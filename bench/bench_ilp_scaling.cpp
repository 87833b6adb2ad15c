// B&B throughput scaling: sweeps synthetic selection-instance sizes and
// reports nodes/sec and LP-iterations/sec of the branch & bound core.
// Complements bench_ilp_solver (which times whole selection calls): this
// bench isolates the solver loop on a pre-built model so the rates are
// directly comparable across sizes.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "ilp/branch_bound.hpp"
#include "workloads/random_workload.hpp"

namespace {

using namespace partita;

workloads::Workload sized_workload(int sites, std::uint64_t seed) {
  workloads::RandomWorkloadParams p;
  p.call_sites = sites;
  p.leaf_functions = std::max(3, sites / 3);
  p.ips = std::max(4, sites / 2);
  return workloads::random_workload(p, seed);
}

/// One solve of the mid-ladder selection ILP at the given size; publishes
/// node and LP-iteration throughput as rate counters.
void BM_BranchBoundThroughput(benchmark::State& state) {
  workloads::Workload w = sized_workload(static_cast<int>(state.range(0)), 4242);
  select::Flow flow(w.module, w.library);
  const std::int64_t rg = flow.max_feasible_gain() / 2;
  const ilp::Model m = flow.selector().build_model(
      std::vector<std::int64_t>(flow.paths().size(), rg), {});

  std::int64_t nodes = 0, lp_iters = 0;
  for (auto _ : state) {
    const ilp::IlpResult r = ilp::solve_ilp(m);
    benchmark::DoNotOptimize(r.objective);
    nodes += r.stats.nodes;
    lp_iters += r.stats.lp_iterations;
  }
  state.counters["vars"] = static_cast<double>(m.var_count());
  state.counters["rows"] = static_cast<double>(m.row_count());
  state.counters["nodes_per_sec"] =
      benchmark::Counter(static_cast<double>(nodes), benchmark::Counter::kIsRate);
  state.counters["lp_iters_per_sec"] =
      benchmark::Counter(static_cast<double>(lp_iters), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BranchBoundThroughput)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Branch & bound throughput on synthetic selection ILPs ===\n");
  std::printf("(rates are nodes/sec and simplex-iterations/sec of the search loop)\n\n");
  return bench::finish_benchmarks(argc, argv);
}
