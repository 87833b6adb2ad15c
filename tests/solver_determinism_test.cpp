// The branch & bound promises a reproducible search (repeated runs explore
// the same nodes) and, through canonical lex tie-breaking, the same optimum
// from the warm-start path as from a cold search. Both claims are pinned
// here on the seed workloads and on random instances.
#include <gtest/gtest.h>

#include <cstdint>

#include "select/flow.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita::select {
namespace {

TEST(SolverDeterminism, RepeatedRunsIdentical) {
  workloads::Workload w = workloads::random_workload({}, 99);
  Flow flow(w.module, w.library);
  const std::int64_t rg = flow.max_feasible_gain() / 2;
  const Selection first = flow.select(rg);
  for (int run = 0; run < 3; ++run) {
    const Selection again = flow.select(rg);
    EXPECT_EQ(first.chosen, again.chosen) << "run=" << run;
    EXPECT_EQ(first.solver.nodes, again.solver.nodes) << "run=" << run;
    EXPECT_EQ(first.solver.lp_iterations, again.solver.lp_iterations) << "run=" << run;
  }
}

TEST(SolverDeterminism, WarmAndColdAgreeOnSeedWorkloads) {
  workloads::Workload (*factories[])() = {
      workloads::gsm_encoder, workloads::gsm_decoder, workloads::jpeg_encoder,
      workloads::fig9_case,   workloads::fig10_case,  workloads::adpcm_codec,
  };
  for (auto* factory : factories) {
    workloads::Workload w = factory();
    Flow flow(w.module, w.library);
    const std::int64_t rg = flow.max_feasible_gain() / 2;

    SelectOptions warm;  // defaults: presolve + warm starts on
    SelectOptions cold;
    cold.ilp.presolve = false;
    cold.ilp.warm_start = false;

    const Selection sw = flow.select(rg, warm);
    const Selection sc = flow.select(rg, cold);
    EXPECT_EQ(sw.feasible, sc.feasible) << w.name;
    EXPECT_EQ(sw.chosen, sc.chosen) << w.name;
    EXPECT_DOUBLE_EQ(sw.total_area(), sc.total_area()) << w.name;
    // The cold run never warm-starts; the warm run must report its reuse.
    EXPECT_EQ(sc.solver.warm_starts, 0) << w.name;
    if (sw.solver.nodes > 1) {
      EXPECT_GT(sw.solver.warm_starts, 0) << w.name;
    }
  }
}

TEST(SolverDeterminism, NodeLimitSetsGapAndKeepsSelectionUsable) {
  workloads::Workload w = workloads::random_workload({}, 7);
  Flow flow(w.module, w.library);
  const std::int64_t rg = flow.max_feasible_gain() / 2;

  SelectOptions opt;
  opt.ilp.max_nodes = 1;  // force truncation on any nontrivial search
  const Selection sel = flow.select(rg, opt);

  const Selection full = flow.select(rg);
  if (full.solver.nodes > 1) {
    EXPECT_TRUE(sel.truncated);
    if (sel.feasible) {
      // The greedy fallback (or the partial incumbent) stays usable and the
      // remaining optimality gap is reported.
      EXPECT_GE(sel.optimality_gap, 0.0);
      EXPECT_GE(sel.total_area(), full.total_area());
    }
  } else {
    EXPECT_FALSE(sel.truncated);  // solved at the root within the limit
  }
}

}  // namespace
}  // namespace partita::select
