// perfbench: the repository benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--middles <m>]
//
// Runs one workload, checks its outputs against the paper's oracles, and
// prints a report line ("perfbench-report {...}": host, build, sample
// counts, notes) followed, as the last line, by the result object
// {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of a separate traced
// run. Normally started through perfbench/run.py, which builds it first.
#include <cpuid.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "core/export.h"  // json_escape
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json; perfbench/run.py checks the two agree.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"write_p50_us", "us"},    {"write_p99_us", "us"},
    {"read_p50_us", "us"},     {"read_p99_us", "us"},
    {"admitted_share", "ratio"}, {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"engine.connect_p50_us", "us"},
    {"engine.connect_p99_us", "us"},
    {"engine.disconnect_p50_us", "us"},
    {"engine.grow_p50_us", "us"},
    {"engine.self_p50_us", "us"},
    {"engine.op_wait_p99_us", "us"},
    {"engine.client_imbalance", "ratio"},
    {"obs.publishes_per_write", "ratio"},
    {"obs.publish_us", "us"},
    {"obs.snapshot_read_p50_us", "us"},
    {"obs.snapshot_retries_per_read", "ratio"},
    {"obs.session_probe_p50_ns", "ns"},
    {"obs.flight_record_ns", "ns"},
    {"obs.session_table_ns", "ns"},
    {"multistage.find_route_p50_us", "us"},
    {"multistage.find_route_p99_us", "us"},
    {"multistage.find_route_share", "ratio"},
    {"multistage.probes_per_attempt", "ratio"},
    {"multistage.route_found_ratio", "ratio"},
    {"repack.admit_ratio", "ratio"},
    {"repack.moves_per_admit", "ratio"},
    {"repack.rollbacks_per_attempt", "ratio"},
    {"repack.migrate_p50_us", "us"},
    {"repack.share", "ratio"},
    {"sim.generate_us", "us"},
    {"sim.generate_share", "ratio"},
    {"sim.connect_p50_us", "us"},
    {"capacity.lemma1_ms", "ms"},
    {"capacity.lemma2_ms", "ms"},
    {"capacity.lemma3_ms", "ms"},
    {"capacity.lemma3_share", "ratio"},
    {"capacity.result_kbits", "kbit"},
    {"util.biguint_mul_us", "us"},
    {"util.metrics_overhead", "ratio"},
    {"bench.gen_s", "s"},
    {"bench.trace_overhead", "ratio"},
    {"bench.unattributed_share", "ratio"},
};

std::string cpu_model() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload engine_large|engine_bound|sim_repack|"
               "capacity_exact --seed N --seconds S --trace 0|1 [--size full|tiny]"
               " [--middles M]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || options.seconds < 1 || options.seconds > 600) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("bad --size " + value);
      options.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--middles") {
      options.middles = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --middles " + value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (options.workload != "engine_large" && options.workload != "engine_bound" &&
      options.workload != "sim_repack" && options.workload != "capacity_exact") {
    usage("unknown workload '" + options.workload + "'");
  }
  if (options.middles != 0 && options.workload != "engine_bound") {
    usage("--middles applies to engine_bound only");
  }
  return options;
}

/// The layer a per-layer metric belongs to: its name up to the first dot.
std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

void print_json_number(std::ostream& os, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  os << buffer;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  const Options options = parse(argc, argv);
  const int cpus = allowed_cpus();  // before any thread is pinned
  RunResult result;
  try {
    if (options.workload == "engine_large" || options.workload == "engine_bound") {
      run_engine_workload(options, result);
    } else {
      // The single-threaded workloads run on the main thread, pinned like
      // the engine's clients so the scheduler never migrates them.
      pin_to_cpu(1);
      if (options.workload == "sim_repack") {
        run_sim_workload(options, result);
      } else {
        run_capacity_workload(options, result);
      }
    }
  } catch (const std::exception& error) {
    result.fail(std::string("uncaught exception: ") + error.what());
  }

  // Every per-layer metric is printed on every traced run; the layers a
  // workload bypasses read 0 and say so.
  const auto has = [&](const char* name) {
    for (const Metric& metric : result.metrics()) {
      if (metric.name == name) return true;
    }
    return false;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      if (!has(spec.name)) {
        result.absent(spec.name, spec.unit,
                      "the " + layer_of(spec.name) + " metric is not measured on " +
                          options.workload);
      }
    }
  }
  std::vector<Metric> printed;
  const auto select = [&](const auto& specs) {
    for (const MetricSpec& spec : specs) {
      bool found = false;
      for (const Metric& metric : result.metrics()) {
        if (metric.name != spec.name) continue;
        found = true;
        if (metric.unit != spec.unit) result.fail(metric.name + " has unit " + metric.unit);
        if (!std::isfinite(metric.value)) result.fail(metric.name + " is not finite");
        printed.push_back(metric);
      }
      if (!found) {
        result.fail(std::string("metric not measured: ") + spec.name);
        printed.push_back({spec.name, 0.0, spec.unit});
      }
    }
  };
  if (options.trace) {
    select(kPerLayer);
  } else {
    select(kEndToEnd);
  }

  std::ostringstream report;
  report << "perfbench-report {\"workload\":\"" << options.workload
         << "\",\"seed\":" << options.seed << ",\"seconds\":" << options.seconds
         << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"size\":\""
         << (options.size == Size::kTiny ? "tiny" : "full") << "\",\"nproc\":"
         << cpus << ",\"cpu\":\"" << wdm::json_escape(cpu_model())
         << "\",\"compiler\":\"" << wdm::json_escape(PERFBENCH_COMPILER)
         << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"notes\":{";
  bool first = true;
  for (const auto& [key, value] : result.notes()) {
    report << (first ? "" : ",") << "\"" << wdm::json_escape(key) << "\":\""
           << wdm::json_escape(value) << "\"";
    first = false;
  }
  report << "},\"failures\":[";
  first = true;
  for (const std::string& failure : result.failures()) {
    report << (first ? "" : ",") << "\"" << wdm::json_escape(failure) << "\"";
    first = false;
  }
  report << "]}";
  std::cout << report.str() << "\n";

  std::ostringstream line;
  line << "{\"correct\": " << (result.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1, result.attempted())
       << ", \"failed\": " << result.failed() << ", \"metrics\": {";
  first = true;
  for (const Metric& metric : printed) {
    line << (first ? "" : ", ") << "\"" << metric.name << "\": {\"value\": ";
    print_json_number(line, std::isfinite(metric.value) ? metric.value : 0.0);
    line << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}
