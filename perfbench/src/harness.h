// The benchmark's own harness: options, its seeded generator, clocks,
// percentiles, CPU pinning, the result record, and the trace reader that
// turns the Chrome trace of a traced run into per-span durations.
//
// Nothing here reaches into the library's internals; the workloads call the
// layers' public functions only (see perfbench/DESIGN.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wdm {
class TimerStat;
}

namespace perfbench {

enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  /// engine_bound only: override the middle-stage count (0 = the Theorem 2
  /// bound). The smoke test sets it well below the bound to prove that the
  /// zero-block oracle reports blocks.
  std::size_t middles = 0;
};

/// splitmix64: the benchmark's own input generator, so inputs depend only
/// on --seed and never on the library's RNG.
class BenchRng {
 public:
  explicit BenchRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0. The modulo bias is below 2^-40 for
  /// every bound used here.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  std::uint32_t next32() { return static_cast<std::uint32_t>(next() >> 32); }

 private:
  std::uint64_t state_;
};

/// An independent stream for sub-task `index` of seed `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

using Clock = std::chrono::steady_clock;
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Percentile of `samples` (sorted in place): the mean of the order
/// statistics within +-0.5% of rank q*n (at least one), so a percentile
/// moves smoothly with the distribution instead of snapping to one sample.
[[nodiscard]] double percentile(std::vector<double>& samples, double q);
[[nodiscard]] double median(std::vector<double> values);

/// A figure over the passes of a run. Every pass repeats the same whole
/// workload, so a change to the program moves every pass alike, while the
/// shared host's interference, which only ever adds time, lands on some
/// passes and not others. The run reports the fast quartile over its
/// passes: the 25th percentile of a time, the 75th of a rate.
[[nodiscard]] double pass_time(std::vector<double> per_pass);
[[nodiscard]] double pass_rate(std::vector<double> per_pass);

/// The q-percentile of a registry timer (util/metrics TimerStat), read
/// from its log-bucketed histogram and interpolated linearly within the
/// bucket that holds rank q, in microseconds. The histogram's own
/// percentile_ns() snaps to the bucket midpoint (8 buckets per octave).
[[nodiscard]] double timer_percentile_us(const wdm::TimerStat& timer, double q);

/// Pin the calling thread to the `index`-th CPU of the process's allowed
/// set (wrapping). Returns the CPU id, or -1 when pinning failed.
int pin_to_cpu(std::size_t index);

[[nodiscard]] double peak_rss_mb();

/// One measured value.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `failed` counts failed correctness checks and
/// failed operations; the run is correct iff failed == 0.
class RunResult {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// A metric whose layer this workload bypasses: reported as 0 with a note.
  void absent(const std::string& name, const std::string& unit,
              const std::string& why);
  void note(const std::string& key, const std::string& value);
  /// Note a list of values (every pass's value of a figure, say), for
  /// diagnosing the noise behind the figure that is reported.
  void note_values(const std::string& key, const std::vector<double>& values);
  void fail(const std::string& what);
  void add_attempted(std::uint64_t count) { attempted_ += count; }
  void add_failed(std::uint64_t count, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::map<std::string, std::string>& notes() const {
    return notes_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> failures_;  // first few messages only
};

/// One completed span of a Chrome trace written by the library's
/// trace_to_chrome_json(). Times in microseconds.
struct Span {
  const char* name = nullptr;  // interned: compare with ==
  std::uint32_t tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  std::int64_t op = -1;  // the benchmark's "op" argument, -1 when absent
};

/// Spans of the interesting names only, sorted by (tid, ts). `names` lists
/// the names to keep; the returned Span::name points into it.
[[nodiscard]] std::vector<Span> read_trace(const std::string& json,
                                           const std::vector<const char*>& names);

/// For every span named `parent`, the part of its interval covered by spans
/// named in `children` on the same thread (intervals merged). Returns one
/// entry per parent, in trace order: {parent span, covered microseconds}.
[[nodiscard]] std::vector<std::pair<Span, double>> child_cover(
    const std::vector<Span>& spans, const char* parent,
    const std::vector<const char*>& children);

/// Arm span recording (util/trace_span) for the traced phase.
void start_tracing();
/// Disarm it, write the Chrome trace to .bench_out/trace_<workload>.json
/// (noted in `result`, or a failure when the write fails) and return it.
std::string stop_tracing(const Options& options, RunResult& result);

/// num / den, or 0 when den is 0.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}
/// The value of the library's registry counter `name`.
[[nodiscard]] double registry_count(const char* name);

}  // namespace perfbench
