#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/metrics.h"
#include "util/trace_span.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  BenchRng rng(seed ^ (0xD1B54A32D192ED03ull * (index + 1)));
  return rng.next();
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double half = std::max(0.5, 0.005 * n);
  const double center = q * (n - 1.0);
  auto lo = static_cast<std::size_t>(std::max(0.0, std::ceil(center - half)));
  auto hi = static_cast<std::size_t>(std::min(n - 1.0, std::floor(center + half)));
  if (hi < lo) hi = lo;
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double pass_time(std::vector<double> per_pass) { return percentile(per_pass, 0.25); }

double pass_rate(std::vector<double> per_pass) { return percentile(per_pass, 0.75); }

double timer_percentile_us(const wdm::TimerStat& timer, double q) {
  const wdm::Histogram& histogram = timer.histogram();
  const std::uint64_t total = histogram.count();
  if (total == 0) return 0.0;
  // value_at_quantile(q) answers for rank round(q * total); this asks it for
  // an integer rank.
  const auto value_at_rank = [&](std::uint64_t rank) {
    return histogram.value_at_quantile((static_cast<double>(rank) - 0.25) /
                                       static_cast<double>(total));
  };
  // The first rank whose value is at least `value` (value_at_rank is
  // monotone), or total + 1.
  const auto first_rank_reaching = [&](std::uint64_t value) {
    std::uint64_t lo = 1;
    std::uint64_t hi = total + 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (value_at_rank(mid) >= value) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  };
  const double target = std::clamp(q * static_cast<double>(total), 1.0,
                                   static_cast<double>(total));
  const std::uint64_t value = value_at_rank(static_cast<std::uint64_t>(target + 0.5));
  const std::uint64_t first = first_rank_reaching(value);
  const std::uint64_t after = first_rank_reaching(value + 1);
  // The bucket holding `value`: [low, low + width).
  const std::size_t index = wdm::Histogram::bucket_index(value);
  constexpr std::uint32_t kSub = wdm::Histogram::kSubBits;
  double low = static_cast<double>(index);
  double width = 1.0;
  if (index >= (1u << kSub)) {
    const std::size_t shift = (index >> kSub) - 1;
    low = static_cast<double>(((1u << kSub) | (index & ((1u << kSub) - 1))) << shift);
    width = static_cast<double>(std::uint64_t{1} << shift);
  }
  const double in_bucket = static_cast<double>(after - first);
  const double position =
      in_bucket > 0.0 ? (target - static_cast<double>(first) + 0.5) / in_bucket : 0.5;
  return (low + std::clamp(position, 0.0, 1.0) * width) / 1e3;
}

int pin_to_cpu(std::size_t index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return -1;
  const int cpu = cpus[index % cpus.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) != 0) return -1;
  return cpu;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void RunResult::absent(const std::string& name, const std::string& unit,
                       const std::string& why) {
  set(name, 0.0, unit);
  notes_["absent." + name] = why;
}

void RunResult::note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

void RunResult::note_values(const std::string& key,
                            const std::vector<double>& values) {
  std::string text;
  char buffer[32];
  for (const double value : values) {
    std::snprintf(buffer, sizeof buffer, "%s%.4g", text.empty() ? "" : " ", value);
    text += buffer;
  }
  notes_[key] = text;
}

void RunResult::fail(const std::string& what) { add_failed(1, what); }

void RunResult::add_failed(std::uint64_t count, const std::string& what) {
  if (count == 0) return;
  failed_ += count;
  if (failures_.size() < 8) failures_.push_back(what);
}

namespace {

/// The text after `"key":` inside [begin, end), or npos.
std::size_t find_value(const std::string& json, std::size_t begin,
                       std::size_t end, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = json.find(needle, begin);
  if (at == std::string::npos || at >= end) return std::string::npos;
  return at + needle.size();
}

}  // namespace

std::vector<Span> read_trace(const std::string& json,
                             const std::vector<const char*>& names) {
  std::vector<Span> spans;
  const std::string marker = "{\"name\":\"";
  std::size_t at = json.find(marker);
  while (at != std::string::npos) {
    const std::size_t next = json.find(marker, at + 1);
    const std::size_t end = next == std::string::npos ? json.size() : next;
    const std::size_t name_begin = at + marker.size();
    const std::size_t name_end = json.find('"', name_begin);
    const char* interned = nullptr;
    for (const char* name : names) {
      const std::size_t length = std::strlen(name);
      if (name_end - name_begin == length &&
          json.compare(name_begin, length, name) == 0) {
        interned = name;
        break;
      }
    }
    const std::size_t ph = find_value(json, at, end, "ph");
    if (interned != nullptr && ph != std::string::npos &&
        json.compare(ph, 3, "\"X\"") == 0) {
      Span span;
      span.name = interned;
      const std::size_t tid = find_value(json, at, end, "tid");
      const std::size_t ts = find_value(json, at, end, "ts");
      const std::size_t dur = find_value(json, at, end, "dur");
      const std::size_t op = find_value(json, at, end, "op");
      if (tid != std::string::npos && ts != std::string::npos &&
          dur != std::string::npos) {
        span.tid = static_cast<std::uint32_t>(std::strtoul(json.c_str() + tid, nullptr, 10));
        span.ts = std::strtod(json.c_str() + ts, nullptr);
        span.dur = std::strtod(json.c_str() + dur, nullptr);
        if (op != std::string::npos) {
          span.op = std::strtoll(json.c_str() + op, nullptr, 10);
        }
        spans.push_back(span);
      }
    }
    at = next;
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;  // a parent sorts before a child starting with it
  });
  return spans;
}

std::vector<std::pair<Span, double>> child_cover(
    const std::vector<Span>& spans, const char* parent,
    const std::vector<const char*>& children) {
  std::vector<std::pair<Span, double>> out;
  const auto is_child = [&](const Span& span) {
    return std::find(children.begin(), children.end(), span.name) !=
           children.end();
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    if (p.name != parent) continue;
    const double end = p.ts + p.dur;
    // Children start at or after the parent on the same thread; spans are
    // sorted by (tid, ts), so scan forward from the parent.
    double covered = 0.0;
    double run_begin = 0.0;
    double run_end = -1.0;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const Span& c = spans[j];
      if (c.tid != p.tid || c.ts > end) break;
      if (!is_child(c)) continue;
      const double c_end = std::min(end, c.ts + c.dur);
      if (c.ts > run_end) {
        if (run_end > run_begin) covered += run_end - run_begin;
        run_begin = c.ts;
        run_end = c_end;
      } else {
        run_end = std::max(run_end, c_end);
      }
    }
    if (run_end > run_begin) covered += run_end - run_begin;
    out.emplace_back(p, covered);
  }
  return out;
}

void start_tracing() {
  wdm::reset_trace();
  wdm::set_tracing_enabled(true);
}

std::string stop_tracing(const Options& options, RunResult& result) {
  wdm::set_tracing_enabled(false);
  std::string trace = wdm::trace_to_chrome_json();
  const std::string dir = ".bench_out";
  const std::string path = dir + "/trace_" + options.workload + ".json";
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  std::ofstream out(path, std::ios::binary);
  out << trace;
  if (!out) result.fail("cannot write " + path);
  result.note("trace_file", path);
  result.note("trace_dropped_events", std::to_string(wdm::trace_dropped_count()));
  return trace;
}

double registry_count(const char* name) {
  return static_cast<double>(wdm::metrics().counter(name).value());
}

}  // namespace perfbench
