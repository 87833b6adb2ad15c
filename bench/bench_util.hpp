// Shared helpers for the benchmark harness: paper-style table printing for
// RG sweeps and a common custom main that prints the table before handing
// control to google-benchmark.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "select/flow.hpp"
#include "workloads/workloads.hpp"

namespace partita::bench {

/// One row of a Table 1/2/3-style sweep.
struct SweepRow {
  std::int64_t rg = 0;
  select::Selection selection;
};

/// Runs the optimal selection for each required gain.
std::vector<SweepRow> run_sweep(const select::Flow& flow,
                                const std::vector<std::int64_t>& rgs,
                                const select::SelectOptions& opt = {});

/// The paper's RG ladder: k/steps * gmax for k = 1..steps.
std::vector<std::int64_t> rg_ladder(std::int64_t gmax, int steps);

/// Renders the sweep in the paper's table format:
///   RG | Implementation Method | G | A | S | O
std::string render_paper_table(const select::Flow& flow,
                               const std::vector<SweepRow>& rows,
                               const iplib::IpLibrary& lib);

/// Prints a banner + the workload inventory line (s-calls / IPs / IMPs),
/// mirroring the counts reported in Section 5.
void print_experiment_header(const std::string& title, const workloads::Workload& w,
                             const select::Flow& flow);

/// Publishes a selection's SolverStats as benchmark counters so they land in
/// the JSON output (--benchmark_format=json): nodes, LP iterations,
/// warm-start hit rate, presolve fixings, clique propagations, and the
/// optimality gap when the search was truncated.
void set_solver_counters(benchmark::State& state, const select::Selection& sel);

/// Common main tail: strips a `--smoke` flag (CI mode -- registration is
/// exercised via --benchmark_list_tests instead of timed runs), then hands
/// the remaining arguments to google-benchmark. Returns the process exit
/// code.
int finish_benchmarks(int argc, char** argv);

}  // namespace partita::bench
