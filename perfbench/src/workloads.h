// The four workloads (see perfbench/DESIGN.md for why each exists).
//
// Each fills a RunResult with every end-to-end metric (untraced run) or
// every per-layer metric (traced run), plus the attempted/failed counts of
// its public calls and correctness checks.
#pragma once

#include "harness.h"

namespace perfbench {

/// engine_large or engine_bound.
void run_engine_workload(const Options& options, RunResult& result);
void run_sim_workload(const Options& options, RunResult& result);
void run_capacity_workload(const Options& options, RunResult& result);

}  // namespace perfbench
