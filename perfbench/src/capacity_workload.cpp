// capacity_exact: exact multicast capacities (Lemmas 1-3) for MSW, MSDW and
// MAW, full and any, over a fixed (N, k) grid, single-threaded. Each exact
// value is checked against the log10 closed form and the paper's ordering
// MSW <= MSDW <= MAW (Table 1).
//
// "write" latency is one exact multicast_capacity evaluation; "read"
// latency is one log10_multicast_capacity evaluation, the oracle call made
// next to it. Set-up builds the oracle table for the grid. An untraced run
// sweeps the grid in passes; every figure is taken over a whole pass and
// reported as the median over the passes. A cell that evaluates in well
// under a millisecond is evaluated repeatedly within its pass and timed as
// the mean, so a pass's microsecond figures are not one clock tick's worth.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "capacity/capacity.h"
#include "util/biguint.h"
#include "util/trace_span.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Cell {
  std::size_t N = 0;
  std::size_t k = 0;
  wdm::MulticastModel model = wdm::MulticastModel::kMSW;
  wdm::AssignmentKind kind = wdm::AssignmentKind::kFull;
};

struct GridPoint {
  std::size_t N;
  std::size_t k;
};

std::vector<GridPoint> grid(Size size) {
  if (size == Size::kTiny) return {{4, 2}, {8, 2}, {12, 3}};
  // Lemma 3 dominates: about 0.14 s at N=64 k=8 and 0.4 s at N=80 k=8 on a
  // 4-core Xeon, against microseconds for Lemmas 1-2.
  return {{4, 2},  {8, 4},  {16, 4}, {16, 8}, {32, 4},
          {32, 8}, {48, 8}, {64, 8}, {80, 8}};
}

std::vector<Cell> cells(Size size) {
  std::vector<Cell> out;
  for (const GridPoint& point : grid(size)) {
    for (const wdm::MulticastModel model : wdm::kAllModels) {
      for (const auto kind : {wdm::AssignmentKind::kFull, wdm::AssignmentKind::kAny}) {
        out.push_back({point.N, point.k, model, kind});
      }
    }
  }
  return out;
}

std::vector<double> oracle_table(const std::vector<Cell>& all) {
  std::vector<double> out;
  out.reserve(all.size());
  for (const Cell& cell : all) {
    out.push_back(wdm::log10_multicast_capacity(cell.N, cell.k, cell.model, cell.kind));
  }
  return out;
}

/// A BigUInt of about `bits` bits with no special structure.
wdm::BigUInt operand(std::size_t bits, std::uint64_t seed) {
  BenchRng rng(seed);
  wdm::BigUInt value(1);
  while (value.bit_length() < bits) {
    value = value * wdm::BigUInt(rng.next() | 1u);
  }
  return value;
}

}  // namespace

void run_capacity_workload(const Options& options, RunResult& result) {
  const std::uint64_t gen_start = now_ns();
  const std::vector<Cell> all = cells(options.size);
  // The seed fixes the evaluation order of every pass.
  const std::size_t passes =
      options.size == Size::kTiny
          ? 2
          : std::max<std::size_t>(2, static_cast<std::size_t>(options.seconds) * 4 / 5);
  std::vector<std::vector<std::size_t>> orders(passes);
  BenchRng rng(options.seed);
  for (auto& order : orders) {
    for (std::size_t i = 0; i < all.size(); ++i) order.push_back(i);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
  }
  const double gen_s = static_cast<double>(now_ns() - gen_start) / 1e9;

  // Set-up builds the oracle table; it is rebuilt and timed three times
  // before every pass, so its samples span the whole run.
  std::vector<double> setups;
  std::vector<double> oracle;
  const auto set_up = [&] {
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t t0 = now_ns();
      oracle = oracle_table(all);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  };
  set_up();

  // Per cell, its time in the latest pass (mean per evaluation) and the
  // evaluations it makes per pass.
  std::vector<double> write_us(all.size());
  std::vector<double> read_us(all.size());
  std::vector<std::size_t> repeats(all.size(), 1);
  std::vector<std::size_t> bits(all.size(), 0);
  std::uint64_t evaluations = 0;

  const auto run_pass = [&](const std::vector<std::size_t>& order, std::size_t pass) {
    std::vector<wdm::BigUInt> values(all.size());
    double wall = 0.0;
    for (const std::size_t index : order) {
      const Cell& cell = all[index];
      const auto op_id = static_cast<std::int64_t>(pass * all.size() + index);
      const std::size_t times = repeats[index];
      const std::uint64_t t0 = now_ns();
      for (std::size_t rep = 0; rep < times; ++rep) {
      if (cell.model == wdm::MulticastModel::kMSW) {
        wdm::TraceSpan span("bench.lemma1_msw");
        span.arg("op", op_id);
        values[index] = wdm::multicast_capacity(cell.N, cell.k, cell.model, cell.kind);
      } else if (cell.model == wdm::MulticastModel::kMAW) {
        wdm::TraceSpan span("bench.lemma2_maw");
        span.arg("op", op_id);
        values[index] = wdm::multicast_capacity(cell.N, cell.k, cell.model, cell.kind);
      } else {
        wdm::TraceSpan span("bench.lemma3_msdw");
        span.arg("op", op_id);
        values[index] = wdm::multicast_capacity(cell.N, cell.k, cell.model, cell.kind);
      }
      }
      const std::uint64_t t1 = now_ns();
      double estimate = 0.0;
      for (std::size_t rep = 0; rep < times; ++rep) {
        wdm::TraceSpan span("bench.log10_capacity");
        estimate = wdm::log10_multicast_capacity(cell.N, cell.k, cell.model, cell.kind);
      }
      const std::uint64_t t2 = now_ns();
      wall += static_cast<double>(t2 - t0) / 1e9;
      write_us[index] = static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(times);
      read_us[index] = static_cast<double>(t2 - t1) / 1e3 / static_cast<double>(times);
      evaluations += times;
      result.add_attempted(2 * times);

      const double exact_log = values[index].log10();
      if (std::abs(exact_log - oracle[index]) > 1e-9 * std::max(1.0, std::abs(oracle[index]))) {
        std::ostringstream what;
        what << "capacity N=" << cell.N << " k=" << cell.k << " "
             << wdm::model_name(cell.model) << " " << wdm::assignment_kind_name(cell.kind)
             << ": log10 " << exact_log << " vs closed form " << oracle[index];
        result.fail(what.str());
      }
      if (estimate != oracle[index]) result.fail("log10 capacity is not deterministic");
      const std::size_t width = values[index].bit_length();
      if (bits[index] != 0 && bits[index] != width) {
        result.fail("exact capacity changed between passes");
      }
      bits[index] = width;
    }
    // Table 1's ordering at every grid point: MSW <= MSDW <= MAW.
    for (std::size_t i = 0; i + 5 < all.size(); i += 6) {
      for (std::size_t kind = 0; kind < 2; ++kind) {
        const wdm::BigUInt& msw = values[i + kind];
        const wdm::BigUInt& msdw = values[i + 2 + kind];
        const wdm::BigUInt& maw = values[i + 4 + kind];
        result.add_attempted(1);
        if (!(msw <= msdw && msdw <= maw)) {
          result.fail("capacity ordering MSW <= MSDW <= MAW violated at N=" +
                      std::to_string(all[i].N) + " k=" + std::to_string(all[i].k));
        }
      }
    }
    return wall;
  };

  if (!options.trace) {
    // An untimed pass sets each cell's repeat count: enough evaluations to
    // fill about two milliseconds, rounded up to a power of two.
    run_pass(orders.front(), 0);
    for (std::size_t i = 0; i < all.size(); ++i) {
      const double fill = 2000.0 / std::max(1e-3, write_us[i]);
      while (repeats[i] < 4096 && static_cast<double>(repeats[i]) < fill) repeats[i] *= 2;
    }
    evaluations = 0;
    std::vector<double> rates;
    std::vector<double> write_p50;
    std::vector<double> write_p99;
    std::vector<double> read_p50;
    std::vector<double> read_p99;
    double wall = 0.0;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      set_up();
      wall += run_pass(orders[pass], pass);
      double pass_us = 0.0;
      for (const double us : write_us) pass_us += us;
      rates.push_back(static_cast<double>(all.size()) / (pass_us / 1e6));
      std::vector<double> writes = write_us;
      std::vector<double> reads = read_us;
      write_p50.push_back(percentile(writes, 0.50));
      write_p99.push_back(percentile(writes, 0.99));
      read_p50.push_back(percentile(reads, 0.50));
      read_p99.push_back(percentile(reads, 0.99));
    }
    result.set("setup_s", median(setups), "s");
    result.note_values("pass.ops_per_s", rates);
    result.set("ops_per_s", pass_rate(rates), "1/s");
    result.note_values("pass.write_p50_us", write_p50);
    result.set("write_p50_us", pass_time(write_p50), "us");
    result.note_values("pass.write_p99_us", write_p99);
    result.set("write_p99_us", pass_time(write_p99), "us");
    result.note_values("pass.read_p50_us", read_p50);
    result.set("read_p50_us", pass_time(read_p50), "us");
    result.note_values("pass.read_p99_us", read_p99);
    result.set("read_p99_us", pass_time(read_p99), "us");
    result.note("timed_wall_s", std::to_string(wall));
    result.set("admitted_share", 1.0, "ratio");
    result.note("admitted_share", "no admission control on this workload: every evaluation is served");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.note("samples.write", std::to_string(evaluations) + " evaluations, " +
                                     std::to_string(all.size()) + " cells per pass");
    result.note("samples.setup", std::to_string(setups.size()));
  } else {
    const std::size_t half = std::max<std::size_t>(1, passes / 2);
    double wall_a = 0.0;
    for (std::size_t pass = 0; pass < half; ++pass) wall_a += run_pass(orders[pass], pass);
    const double rate_a = static_cast<double>(evaluations) / wall_a;
    evaluations = 0;
    start_tracing();
    double wall_c = 0.0;
    for (std::size_t pass = half; pass < passes; ++pass) wall_c += run_pass(orders[pass], pass);
    const std::string trace = stop_tracing(options, result);
    const double rate_c = static_cast<double>(evaluations) / wall_c;

    static const char* const kLemma1 = "bench.lemma1_msw";
    static const char* const kLemma2 = "bench.lemma2_maw";
    static const char* const kLemma3 = "bench.lemma3_msdw";
    const std::vector<Span> spans = read_trace(trace, {kLemma1, kLemma2, kLemma3});
    const double traced_passes = static_cast<double>(passes - half);
    const auto per_pass_ms = [&](const char* name) {
      double total_us = 0.0;
      for (const Span& span : spans) {
        if (span.name == name) total_us += span.dur;
      }
      return total_us / 1e3 / traced_passes;
    };
    const double l1 = per_pass_ms(kLemma1);
    const double l2 = per_pass_ms(kLemma2);
    const double l3 = per_pass_ms(kLemma3);
    result.set("capacity.lemma1_ms", l1, "ms");
    result.set("capacity.lemma2_ms", l2, "ms");
    result.set("capacity.lemma3_ms", l3, "ms");
    result.set("capacity.lemma3_share", l3 / (l1 + l2 + l3), "ratio");
    std::size_t total_bits = 0;
    std::size_t widest = 0;
    for (const std::size_t width : bits) {
      total_bits += width;
      widest = std::max(widest, width);
    }
    result.set("capacity.result_kbits", static_cast<double>(total_bits) / 1e3, "kbit");

    const wdm::BigUInt a = operand(widest, options.seed);
    const wdm::BigUInt b = operand(widest, options.seed + 1);
    wdm::BigUInt product;
    const int reps = 200;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < reps; ++i) product = a * b;
    const double mul_us = static_cast<double>(now_ns() - t0) / 1e3 / reps;
    if (product.bit_length() + 1 < a.bit_length() + b.bit_length()) {
      result.fail("BigUInt product has the wrong width");
    }
    result.set("util.biguint_mul_us", mul_us, "us");
    result.set("bench.gen_s", gen_s, "s");
    result.set("bench.trace_overhead", rate_a / rate_c, "ratio");
    result.note("widest_result_bits", std::to_string(widest));
  }
  result.note("grid_cells", std::to_string(all.size()));
  result.note("passes", std::to_string(passes));
  result.note("bench.gen_s", std::to_string(gen_s));
}

}  // namespace perfbench
