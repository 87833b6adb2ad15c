// Search-trajectory pin. The determinism suites compare one run against
// another, so a change that moves a simplex pivot the same way in both runs
// passes them. This test pins the absolute trajectory instead: exact node,
// LP-iteration, root-LP-iteration and wave counts plus the objective on four
// fixed instances. The simplex kernels may be rearranged for speed only when
// every output element keeps its summation order (docs/ilp_solver.md); a
// kernel edit that moves a single pivot changes these counts and fails here,
// even when the optimum itself survives.
//
// Expected values were recorded at commit fd1b0ef (before the support-driven
// btran/ftran kernels) and must not change with a pure kernel rewrite.
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
  // The spec_unique benchmark shape: 2^8 execution paths, so the LP is tall
  // (one Eq. 2 gain row per path) and its columns are dense.
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
      {"gsm_encoder", workloads::gsm_encoder(), 89, 516, 106, 61, 12.44},
      {"jpeg_encoder", workloads::jpeg_encoder(), 11, 66, 29, 10, 8.26},
      {"random_24site", random_24site(), 7, 195, 91, 6, 7.38},
      {"spec_256_paths", spec_256_paths(), 131, 1057, 181, 88, 35.745},
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

}  // namespace
}  // namespace partita
