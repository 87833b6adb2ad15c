// End-to-end integration tests: the three paper experiments run through the
// whole pipeline and must exhibit the qualitative results of Tables 1-3,
// cross-checked by the co-simulator.
#include <gtest/gtest.h>

#include <set>

#include "select/flow.hpp"
#include "sim/cosim.hpp"
#include "workloads/workloads.hpp"

namespace partita {
namespace {

using select::Flow;
using select::Selection;

/// RG sweep rows k/8 * Gmax for k = 1..8 (the paper's Table 1/2 pattern).
std::vector<std::int64_t> rg_sweep(std::int64_t gmax) {
  std::vector<std::int64_t> rgs;
  for (int k = 1; k <= 8; ++k) rgs.push_back(gmax * k / 8);
  return rgs;
}

TEST(Table1, GsmEncoderSweep) {
  workloads::Workload w = workloads::gsm_encoder();
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  ASSERT_GT(gmax, 0);

  double prev_area = -1;
  std::set<iface::InterfaceType> types_low, types_high;
  for (std::size_t i = 0; i < rg_sweep(gmax).size(); ++i) {
    const std::int64_t rg = rg_sweep(gmax)[i];
    const Selection sel = flow.select(rg);
    ASSERT_TRUE(sel.feasible) << "RG=" << rg;
    // Meets the requirement and stays weakly monotone in area.
    EXPECT_GE(sel.min_path_gain, rg);
    EXPECT_GE(sel.total_area(), prev_area - 1e-9);
    prev_area = sel.total_area();
    EXPECT_LE(sel.s_instructions, sel.selected_scalls);
    for (isel::ImpIndex idx : sel.chosen) {
      (i < 2 ? types_low : types_high)
          .insert(flow.imp_database().imps()[idx].iface_type);
    }
  }
  // Paper observation 1: at low RG the cheap type-0 interface dominates.
  EXPECT_TRUE(types_low.count(iface::InterfaceType::kType0) ||
              types_low.size() <= 1);
  // Paper observation 3: higher RG brings in more powerful interfaces.
  bool high_has_powerful = false;
  for (iface::InterfaceType t : types_high) {
    high_has_powerful |= t != iface::InterfaceType::kType0;
  }
  EXPECT_TRUE(high_has_powerful);
}

TEST(Table1, IpSharingReducesSInstructions) {
  workloads::Workload w = workloads::gsm_encoder();
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  // Somewhere in the sweep several s-calls share one IP (S < O).
  bool shared = false;
  for (int k = 2; k <= 8; k += 2) {
    const Selection sel = flow.select(gmax * k / 8);
    ASSERT_TRUE(sel.feasible);
    shared |= sel.s_instructions < sel.selected_scalls;
  }
  EXPECT_TRUE(shared);
}

TEST(Table2, GsmDecoderSweepAndType0ToType2Switch) {
  workloads::Workload w = workloads::gsm_decoder();
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  ASSERT_GT(gmax, 0);

  // The rate-2 postfilter IP must be served by type-0 at low RG (clock
  // slowdown accepted) and upgrade to type-2 when the requirement tightens
  // -- Table 2's SC10 transition.
  std::set<iface::InterfaceType> postfilter_types;
  for (const std::int64_t rg : rg_sweep(gmax)) {
    const Selection sel = flow.select(rg);
    ASSERT_TRUE(sel.feasible) << "RG=" << rg;
    for (isel::ImpIndex idx : sel.chosen) {
      const isel::Imp& imp = flow.imp_database().imps()[idx];
      if (imp.ip_function->function == "postfilter") {
        postfilter_types.insert(imp.iface_type);
      }
    }
  }
  EXPECT_TRUE(postfilter_types.count(iface::InterfaceType::kType2))
      << "the hardware interface never kicked in for the rate-2 IP";
}

TEST(Table3, JpegHierarchyLadder) {
  workloads::Workload w = workloads::jpeg_encoder();
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  ASSERT_GT(gmax, 0);

  // Table 3's ladder: low RG satisfied deep in the hierarchy (C-MUL/FFT
  // flattened IMPs), top RG only by the full 2D-DCT IP.
  const Selection low = flow.select(gmax / 3);
  ASSERT_TRUE(low.feasible);
  bool low_flattened = false;
  for (isel::ImpIndex idx : low.chosen) {
    low_flattened |= flow.imp_database().imps()[idx].flattened;
  }
  EXPECT_TRUE(low_flattened);

  const Selection top = flow.select(gmax);
  ASSERT_TRUE(top.feasible);
  bool top_uses_dct2d_ip = false;
  for (isel::ImpIndex idx : top.chosen) {
    const isel::Imp& imp = flow.imp_database().imps()[idx];
    top_uses_dct2d_ip |= !imp.flattened && imp.ip_function->function == "dct2d";
  }
  EXPECT_TRUE(top_uses_dct2d_ip);
  EXPECT_GT(top.total_area(), low.total_area());
}

TEST(Ablation, IlpNeverWorseThanGreedyAcrossWorkloads) {
  for (auto make :
       {workloads::gsm_encoder, workloads::gsm_decoder, workloads::jpeg_encoder}) {
    workloads::Workload w = make();
    Flow flow(w.module, w.library);
    const std::int64_t gmax = flow.max_feasible_gain();
    for (int k = 1; k <= 3; ++k) {
      const std::int64_t rg = gmax * k / 4;
      const Selection ilp_sel = flow.select(rg);
      const Selection greedy_sel = flow.greedy(rg);
      ASSERT_TRUE(ilp_sel.feasible) << w.name;
      if (greedy_sel.feasible) {
        EXPECT_GE(greedy_sel.total_area() + 1e-9, ilp_sel.total_area()) << w.name;
      }
    }
  }
}

TEST(Ablation, PriorArtCapsBelowFullMethod) {
  // Without interface co-selection and parallel execution, the reachable
  // gain is strictly lower on every paper workload.
  for (auto make :
       {workloads::gsm_encoder, workloads::gsm_decoder, workloads::jpeg_encoder}) {
    workloads::Workload w = make();
    Flow flow(w.module, w.library);
    select::SelectOptions prior;
    prior.imp_filter = select::prior_art_allows;
    const std::int64_t full = flow.max_feasible_gain();
    const std::int64_t prior_max = flow.selector().max_feasible_gain(prior);
    EXPECT_LT(prior_max, full) << w.name;
  }
}

TEST(CrossCheck, SimulatorConfirmsGuaranteedGain) {
  for (auto make : {workloads::gsm_decoder, workloads::jpeg_encoder}) {
    workloads::Workload w = make();
    Flow flow(w.module, w.library);
    sim::CoSimulator cosim(w.module, flow.imp_database(), flow.entry_cdfg());
    const Selection sel = flow.select(flow.max_feasible_gain() / 2);
    ASSERT_TRUE(sel.feasible) << w.name;
    for (int i = 0; i < 5; ++i) {
      support::Rng r1(42 + i), r2(42 + i);
      const sim::SimResult sw = cosim.run(nullptr, r1);
      const sim::SimResult hw = cosim.run(&sel, r2);
      EXPECT_GE(sw.total_cycles - hw.total_cycles, sel.min_path_gain) << w.name;
    }
  }
}

TEST(Problem2, StrictlyExtendsProblem1OnPaperWorkloads) {
  // Problem 2's feasible region contains Problem 1's: max gain never drops.
  for (auto make : {workloads::gsm_encoder, workloads::gsm_decoder,
                    workloads::fig9_case, workloads::fig10_case}) {
    workloads::Workload w = make();
    Flow flow(w.module, w.library);
    select::SelectOptions p1;
    p1.problem2 = false;
    EXPECT_GE(flow.max_feasible_gain(), flow.selector().max_feasible_gain(p1)) << w.name;
  }
}

}  // namespace
}  // namespace partita
