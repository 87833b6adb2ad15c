// Tests for the kernel+IP co-simulator: software reference runs, analytic
// model validation for all four interface types, and the Fig. 2 overlap.
#include <gtest/gtest.h>

#include <algorithm>

#include "frontend/parser.hpp"
#include "iplib/loader.hpp"
#include "select/flow.hpp"
#include "sim/cosim.hpp"
#include "workloads/workloads.hpp"

namespace partita::sim {
namespace {

struct SimFixture {
  workloads::Workload w;
  select::Flow flow;
  CoSimulator cosim;

  explicit SimFixture(workloads::Workload wl, const isel::EnumerateOptions& opts = {})
      : w(std::move(wl)),
        flow(w.module, w.library, opts),
        cosim(w.module, flow.imp_database(), flow.entry_cdfg()) {}
};

workloads::Workload make_workload(std::string_view kl, std::string_view lib_text) {
  support::DiagnosticEngine diags;
  auto m = frontend::parse_module(kl, diags);
  EXPECT_TRUE(m.has_value()) << diags.render_all();
  auto lib = iplib::load_library(lib_text, diags);
  EXPECT_TRUE(lib.has_value()) << diags.render_all();
  return {"inline", std::move(*m), std::move(*lib)};
}

TEST(CoSim, SoftwareRunMatchesProfile) {
  // With no selection, simulated cycles equal the analytic profile on a
  // branch-free program.
  SimFixture f(make_workload(R"(
module t;
func fir scall sw_cycles 5000;
func main {
  seg a 100 writes(x);
  call fir reads(x) writes(y);
  loop 3 { seg b 10 reads(y); }
}
)",
                             R"(
ip FIR_IP {
  area 8
  ports in 2 out 2
  rate in 4 out 4
  latency 16
  pipelined
  protocol sync
  fn fir cycles 1000 in 64 out 64
}
)"));
  support::Rng rng(1);
  const SimResult sw = f.cosim.run(nullptr, rng);
  EXPECT_EQ(sw.total_cycles, f.flow.profile().total_cycles);
  EXPECT_EQ(sw.overlap_cycles, 0);
}

TEST(CoSim, Type0SelectionMatchesAnalyticGain) {
  SimFixture f(make_workload(R"(
module t;
func fir scall sw_cycles 5000;
func main {
  seg a 100 writes(x);
  call fir reads(x) writes(y);
  seg b 200 reads(y);
}
)",
                             R"(
ip FIR_IP {
  area 8
  ports in 2 out 2
  rate in 4 out 4
  latency 16
  pipelined
  protocol sync
  fn fir cycles 1000 in 64 out 64
}
)"));
  isel::EnumerateOptions opts;  // default
  (void)opts;
  const std::int64_t gmax = f.flow.max_feasible_gain();
  const select::Selection sel = f.flow.select(gmax);
  ASSERT_TRUE(sel.feasible);

  support::Rng rng(1);
  const SimResult sw = f.cosim.run(nullptr, rng);
  const SimResult hw = f.cosim.run(&sel, rng);
  EXPECT_EQ(sw.total_cycles - hw.total_cycles, sel.min_path_gain);
}

TEST(CoSim, BufferedOverlapRealizesFig2) {
  // Buffered IMP with PC: the simulator must reproduce the analytic
  // T_IF_IN + MAX(T_IP, T_B) + T_IF_OUT - MIN(T_IP, T_C) exactly when the PC
  // is control-equivalent to the call.
  SimFixture f(make_workload(R"(
module t;
func fir scall sw_cycles 50000;
func main {
  seg a 100 writes(x);
  call fir reads(x) writes(y);
  seg pc_mat 2000 reads(x) writes(z);
  seg b 200 reads(y, z);
}
)",
                             R"(
ip FIR_IP {
  area 8
  ports in 4 out 4
  rate in 1 out 1
  latency 16
  pipelined
  protocol sync
  fn fir cycles 30000 in 64 out 64
}
)"));
  const std::int64_t gmax = f.flow.max_feasible_gain();
  const select::Selection sel = f.flow.select(gmax);
  ASSERT_TRUE(sel.feasible);
  ASSERT_EQ(sel.chosen.size(), 1u);
  const isel::Imp& imp = f.flow.imp_database().imps()[sel.chosen[0]];
  EXPECT_NE(imp.pc_use, isel::PcUse::kNone);
  EXPECT_EQ(imp.parallel_cycles, 2000);

  support::Rng rng(1);
  const SimResult sw = f.cosim.run(nullptr, rng);
  const SimResult hw = f.cosim.run(&sel, rng);
  EXPECT_EQ(hw.overlap_cycles, 2000);  // MIN(T_IP, T_C) = T_C
  EXPECT_EQ(sw.total_cycles - hw.total_cycles, sel.min_path_gain);
}

TEST(CoSim, OverlapCappedByIpTime) {
  // T_C > T_IP: only T_IP cycles actually overlap.
  SimFixture f(make_workload(R"(
module t;
func fir scall sw_cycles 50000;
func main {
  seg a 100 writes(x);
  call fir reads(x) writes(y);
  seg pc_mat 40000 reads(x) writes(z);
  seg b 200 reads(y, z);
}
)",
                             R"(
ip FIR_IP {
  area 8
  ports in 4 out 4
  rate in 1 out 1
  latency 16
  pipelined
  protocol sync
  fn fir cycles 3000 in 64 out 64
}
)"));
  const select::Selection sel = f.flow.select(f.flow.max_feasible_gain());
  ASSERT_TRUE(sel.feasible);
  support::Rng rng(1);
  const SimResult hw = f.cosim.run(&sel, rng);
  EXPECT_EQ(hw.overlap_cycles, 3000);
}

TEST(CoSim, FlattenedImpAcceleratesInnerCalls) {
  SimFixture f(make_workload(R"(
module t;
func cmul scall sw_cycles 40;
func fft scall { loop 32 { call cmul; } seg glue 720; }
func main { loop 10 { call fft; } }
)",
                             R"(
ip CMUL_IP {
  area 3
  ports in 2 out 2
  rate in 4 out 4
  latency 2
  pipelined
  protocol sync
  fn cmul cycles 6 in 4 out 2
}
)"));
  const select::Selection sel = f.flow.select(f.flow.max_feasible_gain());
  ASSERT_TRUE(sel.feasible);
  ASSERT_EQ(sel.chosen.size(), 1u);
  EXPECT_TRUE(f.flow.imp_database().imps()[sel.chosen[0]].flattened);

  support::Rng rng(1);
  const SimResult sw = f.cosim.run(nullptr, rng);
  const SimResult hw = f.cosim.run(&sel, rng);
  EXPECT_EQ(sw.total_cycles - hw.total_cycles, sel.min_path_gain);
  EXPECT_GT(hw.ip_active_cycles, 0);
}

TEST(CoSim, PerSiteStatsTracked) {
  SimFixture f(make_workload(R"(
module t;
func fir scall sw_cycles 5000;
func main { loop 4 { call fir; } }
)",
                             R"(
ip FIR_IP {
  area 8
  ports in 2 out 2
  rate in 4 out 4
  latency 16
  pipelined
  protocol sync
  fn fir cycles 1000 in 64 out 64
}
)"));
  const select::Selection sel = f.flow.select(f.flow.max_feasible_gain());
  ASSERT_TRUE(sel.feasible);
  support::Rng rng(1);
  const SimResult hw = f.cosim.run(&sel, rng);
  ASSERT_EQ(hw.per_site.size(), 1u);
  EXPECT_EQ(hw.per_site.begin()->second.executions, 4);
}

TEST(CoSim, Fig9MaxGainRealizesGuaranteedGain) {
  // Fig. 9 under Problem 2 at its largest feasible gain: straight-line code,
  // so the simulated gain is the guaranteed one exactly. Each chosen IMP runs
  // the PC its gain was priced with, so no chosen s-call is swallowed as
  // software by another s-call's parallel code.
  SimFixture f(workloads::fig9_case());
  const select::Selection sel = f.flow.select(f.flow.max_feasible_gain());
  ASSERT_TRUE(sel.feasible);
  const auto& imps = f.flow.imp_database().imps();
  EXPECT_TRUE(std::any_of(sel.chosen.begin(), sel.chosen.end(), [&](isel::ImpIndex i) {
    return imps[i].pc_use == isel::PcUse::kWithScallSw;
  }));
  support::Rng r1(1), r2(1);
  const SimResult sw = f.cosim.run(nullptr, r1);
  const SimResult hw = f.cosim.run(&sel, r2);
  EXPECT_EQ(sw.total_cycles - hw.total_cycles, sel.min_path_gain);
  for (const isel::ImpIndex i : sel.chosen) {
    const auto it = hw.per_site.find(imps[i].scall.value());
    ASSERT_NE(it, hw.per_site.end()) << "SC" << imps[i].scall.value();
    EXPECT_GT(it->second.executions, 0) << "SC" << imps[i].scall.value();
  }
}

TEST(CoSim, AverageRunsStable) {
  // Monte-Carlo averaging over branches converges near the expectation.
  SimFixture f(make_workload(R"(
module t;
func fir scall sw_cycles 5000;
func main {
  if prob 0.5 { seg a 1000; } else { seg b 3000; }
  call fir;
}
)",
                             R"(
ip FIR_IP {
  area 8
  ports in 2 out 2
  rate in 4 out 4
  latency 16
  pipelined
  protocol sync
  fn fir cycles 1000 in 64 out 64
}
)"));
  support::Rng rng(7);
  const SimResult avg = f.cosim.run_average(nullptr, rng, 2000);
  EXPECT_NEAR(static_cast<double>(avg.total_cycles),
              static_cast<double>(f.flow.profile().total_cycles), 150.0);
}

TEST(CoSim, GsmEncoderEndToEnd) {
  // Full workload: accelerated run must beat software by at least the
  // guaranteed (min-path) gain on every sampled path.
  SimFixture f(workloads::gsm_encoder());
  const std::int64_t gmax = f.flow.max_feasible_gain();
  const select::Selection sel = f.flow.select(gmax / 2);
  ASSERT_TRUE(sel.feasible);
  support::Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    support::Rng r1(1000 + i), r2(1000 + i);  // same branch draws
    const SimResult sw = f.cosim.run(nullptr, r1);
    const SimResult hw = f.cosim.run(&sel, r2);
    EXPECT_GE(sw.total_cycles - hw.total_cycles, sel.min_path_gain)
        << "sampled path fell short of the guaranteed gain";
  }
}

}  // namespace
}  // namespace partita::sim
