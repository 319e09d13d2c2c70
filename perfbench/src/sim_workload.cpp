// sim_repack: run_dynamic_sim single-threaded with repack on, at
// n = r = 16, k = 8, m = 18 -- far below Theorem 1's bound, so blocks occur
// and the repack planner admits some of them by migrating sessions.
//
// The unit of work is one run_dynamic_sim call of a fixed step count on a
// freshly built switch (the sim tracks its own departures, so a switch
// cannot be carried from one call to the next). "write" latency is one
// admission, the program's own registry timer sim.connect (connect with
// repack); "read" latency is one network self_check(), the consistency check
// the benchmark runs on the state each call ends in. Every pass runs the
// same calls.
#include <algorithm>
#include <memory>

#include "multistage/builder.h"
#include "multistage/nonblocking.h"
#include "repack/repack.h"
#include "sim/blocking_sim.h"
#include "sim/request.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace_span.h"
#include "workloads.h"

namespace perfbench {

namespace {

const wdm::ClosParams kParams{16, 16, 18, 8};
constexpr auto kConstruction = wdm::Construction::kMswDominant;
constexpr auto kModel = wdm::MulticastModel::kMSW;
/// Warm consistency reads after each call's first one; their median is the
/// call's read time.
constexpr int kWarmChecks = 16;
/// Passes of an untraced run, each over the same calls.
constexpr std::size_t kPasses = 15;

struct SimPlan {
  std::size_t steps_per_call = 0;
  std::size_t warmup_calls = 0;
  std::size_t pass_calls = 0;
  std::vector<std::uint64_t> seeds;  // one per call, warm-up first
};

SimPlan make_plan(const Options& options) {
  SimPlan plan;
  const bool tiny = options.size == Size::kTiny;
  plan.steps_per_call = tiny ? 500 : 5000;
  plan.warmup_calls = tiny ? 1 : 4;
  plan.pass_calls = std::max<std::size_t>(
      1, (tiny ? 2 : 18) * static_cast<std::size_t>(options.seconds) / kPasses);
  for (std::size_t i = 0; i < plan.warmup_calls + plan.pass_calls; ++i) {
    plan.seeds.push_back(derive_seed(options.seed, i));
  }
  return plan;
}

wdm::SimConfig sim_config(const SimPlan& plan, std::uint64_t seed) {
  wdm::SimConfig config;
  config.steps = plan.steps_per_call;
  config.arrival_fraction = 0.65;
  config.fanout = {1, 4};
  config.seed = seed;
  config.repack = true;
  return config;
}

/// Builds a switch with the sim's default repack engine attached (what
/// run_dynamic_sim would attach itself), timed as set-up.
std::unique_ptr<wdm::MultistageSwitch> build_switch(std::vector<double>& setups) {
  const std::uint64_t t0 = now_ns();
  auto sw = std::make_unique<wdm::MultistageSwitch>(kParams, kConstruction, kModel);
  sw->enable_repack(wdm::repack::RepackPolicy{});
  setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return sw;
}

struct CallTotals {
  std::uint64_t steps = 0;
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t repacked = 0;
  std::uint64_t moves = 0;
  std::uint64_t live_steps = 0;
};

/// One timed sim call plus its checks. Returns the call's wall seconds.
double sim_call(const SimPlan& plan, std::uint64_t seed, std::int64_t op_id,
                std::vector<double>& setups, std::vector<double>& check_us,
                CallTotals& totals, RunResult& result) {
  auto sw = build_switch(setups);
  wdm::SimStats stats;
  const std::uint64_t t0 = now_ns();
  {
    wdm::TraceSpan span("bench.sim_call");
    span.arg("op", op_id);
    stats = wdm::run_dynamic_sim(*sw, sim_config(plan, seed));
  }
  const std::uint64_t t1 = now_ns();
  result.add_attempted(1);
  if (stats.admitted + stats.blocked != stats.attempts) {
    result.fail("sim: admitted + blocked != attempts");
  }
  if (stats.steps != plan.steps_per_call) result.fail("sim: step count mismatch");
  // The first check pays the cold cache after the sim; the warm checks that
  // follow it repeat the same read of the same state, so their spread is the
  // host's, and their median is the call's read time.
  std::vector<double> warm_us;
  for (int check = 0; check <= kWarmChecks; ++check) {
    const std::uint64_t c0 = now_ns();
    try {
      wdm::TraceSpan span("bench.self_check");
      sw->network().self_check();
    } catch (const std::exception& error) {
      result.fail(std::string("sim: self_check failed: ") + error.what());
    }
    if (check > 0) warm_us.push_back(static_cast<double>(now_ns() - c0) / 1e3);
    result.add_attempted(1);
  }
  check_us.push_back(median(warm_us));
  totals.steps += stats.steps;
  totals.attempts += stats.attempts;
  totals.admitted += stats.admitted;
  totals.blocked += stats.blocked;
  totals.repacked += stats.repacked_admits;
  totals.moves += stats.repack_moves;
  totals.live_steps += stats.active_connection_steps;
  return static_cast<double>(t1 - t0) / 1e9;
}

/// random_admissible_request at the sim geometry, on a switch holding the
/// sim's mean number of live connections.
double generate_us(const SimPlan& plan, std::uint64_t seed, double mean_live) {
  std::vector<double> ignored;
  auto sw = build_switch(ignored);
  (void)wdm::run_dynamic_sim(*sw, sim_config(plan, seed));
  std::vector<wdm::ConnectionId> ids;
  for (const auto& [id, entry] : sw->network().connections()) ids.push_back(id);
  const auto target = static_cast<std::size_t>(mean_live);
  for (std::size_t i = target; i < ids.size(); ++i) sw->disconnect(ids[i]);
  wdm::Rng rng(seed);
  const int reps = 2000;
  std::size_t produced = 0;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < reps; ++i) {
    produced += wdm::random_admissible_request(rng, sw->network(), {1, 4}).has_value();
  }
  const double us = static_cast<double>(now_ns() - t0) / 1e3 / reps;
  return produced > 0 ? us : 0.0;
}

}  // namespace

void run_sim_workload(const Options& options, RunResult& result) {
  const std::uint64_t gen_start = now_ns();
  const SimPlan plan = make_plan(options);
  const double gen_s = static_cast<double>(now_ns() - gen_start) / 1e9;

  std::vector<double> setups;
  std::vector<double> check_us;
  CallTotals totals;
  for (std::size_t i = 0; i < plan.warmup_calls; ++i) {
    sim_call(plan, plan.seeds[i], -1, setups, check_us, totals, result);
  }
  setups.clear();
  check_us.clear();
  totals = {};

  // One pass: the plan's timed calls, in order.
  const auto run_pass = [&] {
    double wall = 0.0;
    for (std::size_t i = 0; i < plan.pass_calls; ++i) {
      wall += sim_call(plan, plan.seeds[plan.warmup_calls + i],
                       static_cast<std::int64_t>(i), setups, check_us, totals,
                       result);
    }
    return wall;
  };

  if (!options.trace) {
    std::vector<double> rates;
    std::vector<double> write_p50;
    std::vector<double> write_p99;
    std::vector<std::vector<double>> read_us(plan.pass_calls);  // [call][pass]
    CallTotals all;
    std::size_t write_samples = 0;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      totals = {};
      check_us.clear();
      wdm::metrics().reset();
      const double wall = run_pass();
      rates.push_back(static_cast<double>(totals.steps) / wall);
      const wdm::TimerStat& connect = wdm::metrics().timer("sim.connect");
      write_samples = connect.count();
      write_p50.push_back(timer_percentile_us(connect, 0.50));
      write_p99.push_back(timer_percentile_us(connect, 0.99));
      for (std::size_t call = 0; call < plan.pass_calls; ++call) {
        read_us[call].push_back(check_us[call]);
      }
      all.attempts += totals.attempts;
      all.admitted += totals.admitted;
      all.blocked += totals.blocked;
      all.repacked += totals.repacked;
      all.moves += totals.moves;
    }
    totals = all;
    result.set("setup_s", median(setups), "s");
    result.note_values("pass.ops_per_s", rates);
    result.set("ops_per_s", pass_rate(rates), "1/s");
    result.note_values("pass.write_p50_us", write_p50);
    result.set("write_p50_us", pass_time(write_p50), "us");
    result.note_values("pass.write_p99_us", write_p99);
    result.set("write_p99_us", pass_time(write_p99), "us");
    // A call is the same work in every pass, so its read time is read at its
    // fast quartile over the passes, like a pass's figures; the percentiles
    // are over the calls' end states.
    std::vector<double> call_read_us;
    for (const std::vector<double>& per_pass : read_us) {
      call_read_us.push_back(pass_time(per_pass));
    }
    result.note_values("call_read_us", call_read_us);
    result.set("read_p50_us", percentile(call_read_us, 0.50), "us");
    result.set("read_p99_us", percentile(call_read_us, 0.99), "us");
    result.set("admitted_share",
               totals.attempts == 0 ? 1.0
                                    : static_cast<double>(totals.admitted) /
                                          static_cast<double>(totals.attempts),
               "ratio");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.note("passes", std::to_string(kPasses));
    result.note("calls_per_pass", std::to_string(plan.pass_calls));
    result.note("samples.write_per_pass", std::to_string(write_samples));
    result.note("samples.read", std::to_string(plan.pass_calls) +
                                    " end states, each the median of " +
                                    std::to_string(kWarmChecks) + " checks");
    result.note("samples.setup", std::to_string(setups.size()));
  } else {
    // A plain pass, then a traced pass over the same calls.
    const double wall_a = run_pass();
    const double rate_a = static_cast<double>(totals.steps) / wall_a;
    const double mean_live = static_cast<double>(totals.live_steps) /
                             static_cast<double>(std::max<std::uint64_t>(1, totals.steps));
    totals = {};
    wdm::metrics().reset();
    start_tracing();
    const double wall_c = run_pass();
    stop_tracing(options, result);
    const double rate_c = static_cast<double>(totals.steps) / wall_c;

    wdm::MetricsRegistry& registry = wdm::metrics();
    const wdm::TimerStat& sim_total = registry.timer("sim.dynamic_sim");
    const wdm::TimerStat& connect = registry.timer("sim.connect");
    const wdm::TimerStat& disconnect = registry.timer("sim.disconnect");
    const wdm::TimerStat& find_route = registry.timer("routing.find_route");
    const wdm::TimerStat& migrate = registry.timer("repack.migrate_ns");
    const auto sim_ns = static_cast<double>(sim_total.total_ns());

    result.set("multistage.find_route_p50_us",
               static_cast<double>(find_route.percentile_ns(0.50)) / 1e3, "us");
    result.set("multistage.find_route_p99_us",
               static_cast<double>(find_route.percentile_ns(0.99)) / 1e3, "us");
    result.set("multistage.find_route_share",
               ratio(static_cast<double>(find_route.total_ns()), sim_ns), "ratio");
    result.set("multistage.probes_per_attempt",
               ratio(registry_count("routing.middle_probes"), registry_count("routing.route_attempts")),
               "ratio");
    result.set("multistage.route_found_ratio",
               ratio(registry_count("routing.routes_found"), registry_count("routing.route_attempts")),
               "ratio");
    result.set("repack.admit_ratio",
               ratio(registry_count("repack.admits"), registry_count("repack.attempts")), "ratio");
    result.set("repack.moves_per_admit",
               ratio(registry_count("repack.sessions_moved"), registry_count("repack.admits")), "ratio");
    result.set("repack.rollbacks_per_attempt",
               ratio(registry_count("repack.rollbacks"), registry_count("repack.attempts")), "ratio");
    result.set("repack.migrate_p50_us",
               static_cast<double>(migrate.percentile_ns(0.50)) / 1e3, "us");
    result.set("repack.share", ratio(static_cast<double>(migrate.total_ns()), sim_ns),
               "ratio");
    result.set("sim.generate_us",
               generate_us(plan, plan.seeds.front(), mean_live), "us");
    result.set("sim.generate_share",
               ratio(sim_ns - static_cast<double>(connect.total_ns()) -
                         static_cast<double>(disconnect.total_ns()),
                     sim_ns),
               "ratio");
    result.set("sim.connect_p50_us",
               static_cast<double>(connect.percentile_ns(0.50)) / 1e3, "us");
    result.set("bench.gen_s", gen_s, "s");
    result.set("bench.trace_overhead", rate_a / rate_c, "ratio");
    result.note("sim.mean_live_connections", std::to_string(mean_live));
  }

  result.note("geometry", kParams.to_string());
  result.note("theorem1_bound_m", std::to_string(wdm::theorem1_min_m(kParams.n, kParams.r).m));
  result.note("steps_per_call", std::to_string(plan.steps_per_call));
  result.note("attempts", std::to_string(totals.attempts));
  result.note("blocked", std::to_string(totals.blocked));
  result.note("repacked_admits", std::to_string(totals.repacked));
  result.note("repack_moves", std::to_string(totals.moves));
  result.note("bench.gen_s", std::to_string(gen_s));
}

}  // namespace perfbench
