#include "bench_util.hpp"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "support/strings.hpp"
#include "support/text_table.hpp"

namespace partita::bench {

std::vector<std::int64_t> rg_ladder(std::int64_t gmax, int steps) {
  std::vector<std::int64_t> rgs;
  for (int k = 1; k <= steps; ++k) rgs.push_back(gmax * k / steps);
  return rgs;
}

std::vector<SweepRow> run_sweep(const select::Flow& flow,
                                const std::vector<std::int64_t>& rgs,
                                const select::SelectOptions& opt) {
  std::vector<SweepRow> rows;
  rows.reserve(rgs.size());
  for (std::int64_t rg : rgs) {
    rows.push_back({rg, flow.select(rg, opt)});
  }
  return rows;
}

std::string render_paper_table(const select::Flow& flow, const std::vector<SweepRow>& rows,
                               const iplib::IpLibrary& lib) {
  support::TextTable table({"RG", "Implementation Method", "G", "A", "S", "O"});
  table.set_alignment({support::Align::kRight, support::Align::kLeft,
                       support::Align::kRight, support::Align::kRight,
                       support::Align::kRight, support::Align::kRight});
  for (const SweepRow& row : rows) {
    if (!row.selection.feasible) {
      table.add_row({support::with_commas(row.rg), "(infeasible)", "-", "-", "-", "-"});
      continue;
    }
    table.add_row({support::with_commas(row.rg),
                   row.selection.describe(flow.imp_database(), lib),
                   support::with_commas(row.selection.min_path_gain),
                   support::compact_double(row.selection.total_area()),
                   std::to_string(row.selection.s_instructions),
                   std::to_string(row.selection.selected_scalls)});
  }
  return table.render();
}

void set_solver_counters(benchmark::State& state, const select::Selection& sel) {
  state.counters["ilp_nodes"] = static_cast<double>(sel.solver.nodes);
  state.counters["lp_iters"] = static_cast<double>(sel.solver.lp_iterations);
  state.counters["warm_hit_rate"] = sel.solver.warm_start_hit_rate();
  state.counters["presolve_fixed"] = static_cast<double>(sel.solver.presolve_fixed);
  state.counters["clique_props"] = static_cast<double>(sel.solver.clique_propagations);
  if (sel.truncated) state.counters["optimality_gap"] = sel.optimality_gap;
}

void print_experiment_header(const std::string& title, const workloads::Workload& w,
                             const select::Flow& flow) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("workload: %s | s-calls: %zu | IPs: %zu | IMPs generated: %zu | paths: %zu\n",
              w.name.c_str(), flow.scalls().size(), w.library.size(),
              flow.imp_database().imps().size(), flow.paths().size());
  std::printf("software cycles per run (profile): %s\n\n",
              support::with_commas(flow.profile().total_cycles).c_str());
}

int finish_benchmarks(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char list_flag[] = "--benchmark_list_tests=true";
  if (smoke) args.push_back(list_flag);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  // Provenance in every JSON record (--benchmark_format=json "context"):
  // schema tag + the machine/build identity the numbers were measured on.
  const MachineMeta meta = collect_machine_meta();
  benchmark::AddCustomContext("partita_bench_schema", meta.schema);
  benchmark::AddCustomContext("git_sha", meta.git_sha);
  benchmark::AddCustomContext("cpu_model", meta.cpu_model);
  benchmark::AddCustomContext("cores", std::to_string(meta.cores));
  benchmark::AddCustomContext("build_type", meta.build_type);
  benchmark::AddCustomContext("build_flags", meta.build_flags);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace partita::bench
