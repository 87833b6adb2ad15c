// Search-trajectory pin. The determinism suites compare one run against
// another, so a change that moves a simplex pivot the same way in both runs
// passes them. This test pins the absolute trajectory instead: exact node,
// LP-iteration, root-LP-iteration and wave counts plus the objective on four
// fixed instances. The simplex kernels may be rearranged for speed only when
// every output element keeps its summation order (docs/ilp_solver.md); a
// kernel edit that moves a single pivot changes these counts and fails here,
// even when the optimum itself survives.
//
// Expected values were recorded at commit e13f9a6 plus warm-started root cut
// rounds: each round after the first now re-solves the cut-extended root
// LP with the dual simplex from the previous round's basis instead of phase
// 1 + 2 from scratch. That cuts the root-LP iterations, and where the warm
// re-solve lands on a different optimal vertex of a degenerate root LP, the
// next round separates different cuts and the tree changes -- so the node,
// LP and wave counts moved with it. The objectives did not: cuts never
// remove an integer-feasible point and ties break canonically.
//
// Re-recorded again when the root separator stopped emitting the
// fixed-charge implication cuts x_j <= z_k: the root LPs lose those rows
// (fewer root-LP iterations), the trees change shape (more nodes on
// gsm_encoder and the ladder, fewer on spec_256_paths), and the objectives
// and per-item ladder areas are byte-identical. The derived gain is now the
// exact integer G_min rather than the truncated LP objective. That moves
// spec_256_paths' max_feasible_gain from 335255 to 335256, so its rg went
// from 167627 to 167628; the optimum there is the same 35.745.
//
// Re-recorded when Eq. 3's fixed-charge big-M M_k became the number of
// distinct s-calls with an IMP on IP k instead of the number of IMPs on k.
// The rows, columns and integer feasible set are unchanged; only the z_k
// coefficients shrink, so the LP relaxations are tighter, pivots move and
// the trees change shape (fewer nodes on spec_256_paths and the ladder,
// fewer LP iterations on gsm_encoder). Objectives and per-item ladder areas
// are byte-identical.
//
// Re-recorded when Eq. 2 became a worst-path tree under a uniform
// requirement: one requirement row, plus per conditional one continuous
// column and two arm rows, instead of one row per execution path. The LP
// relaxation projects onto the same x-polytope, so the objectives and the
// ladder's areas are byte-identical; the LPs are shorter, so the pivots
// move. LP and root-LP iterations fell on the three instances with
// conditionals (gsm_encoder, random_24site, spec_256_paths); their node and
// wave counts, jpeg_encoder (one path, so the same model as before) and the
// gsm_decoder ladder did not move.
//
// The ladder pin does the same for Selector::select_batch, which solves a
// gain ladder top-down with carried search state: summed nodes pin the
// search, per-item areas pin the answers (identical to serial solves).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "select/flow.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita {
namespace {

struct Pinned {
  std::string name;
  workloads::Workload w;
  int nodes;
  int lp_iterations;
  int root_lp_iterations;
  int waves;
  double objective;  // total area of the selection at max_feasible_gain / 2
};

workloads::Workload random_24site() {
  workloads::RandomWorkloadParams p;  // as in pricing_determinism_test
  p.call_sites = 24;
  p.leaf_functions = 8;
  p.ips = 12;
  return workloads::random_workload(p, 4242);
}

workloads::Workload spec_256_paths() {
  // The spec_unique benchmark shape: 2^8 execution paths through 8
  // conditionals, so Eq. 2 is a tree of 8 y columns and 16 arm rows.
  workloads::InstanceGenParams p;
  p.scalls = 20;
  p.kernels = 8;
  p.ips = 10;
  p.branch_groups = 8;
  p.max_hierarchy_depth = 1;
  return workloads::spec_workload(workloads::random_instance_spec(p, 1));
}

std::vector<Pinned> pinned() {
  return {
      {"gsm_encoder", workloads::gsm_encoder(), 91, 379, 24, 60, 12.44},
      {"jpeg_encoder", workloads::jpeg_encoder(), 11, 40, 11, 10, 8.26},
      {"random_24site", random_24site(), 7, 72, 15, 7, 7.38},
      {"spec_256_paths", spec_256_paths(), 45, 589, 22, 45, 35.745},
  };
}

TEST(LpTrajectory, SearchCountsAndObjectiveMatchTheRecordedTrajectory) {
  for (const Pinned& c : pinned()) {
    SCOPED_TRACE(c.name);
    select::Flow flow(c.w.module, c.w.library);
    const std::int64_t rg = flow.max_feasible_gain() / 2;
    const select::Selection s = flow.select(rg, {});
    ASSERT_TRUE(s.feasible);
    EXPECT_EQ(s.solver.nodes, c.nodes);
    EXPECT_EQ(s.solver.lp_iterations, c.lp_iterations);
    EXPECT_EQ(s.solver.root_lp_iterations, c.root_lp_iterations);
    EXPECT_EQ(s.solver.waves, c.waves);
    EXPECT_EQ(s.total_area(), c.objective);
  }
}

TEST(LpTrajectory, GainLadderBatchMatchesTheRecordedTrajectory) {
  const workloads::Workload w = workloads::gsm_decoder();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  std::vector<std::int64_t> rgs;
  for (std::int64_t k = 1; k <= 8; ++k) rgs.push_back(k * gmax / 8);
  const std::vector<select::Selection> ladder = flow.select_batch(rgs, {});
  ASSERT_EQ(ladder.size(), rgs.size());
  const std::vector<double> areas = {4.26, 4.26, 4.26, 4.26, 4.52, 5.04, 11.08, 69.08};
  int nodes = 0;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i));
    ASSERT_TRUE(ladder[i].feasible);
    EXPECT_EQ(ladder[i].total_area(), areas[i]);
    nodes += ladder[i].solver.nodes;
  }
  EXPECT_EQ(nodes, 171);
}

}  // namespace
}  // namespace partita
