// Edge cases and negative paths across the pipeline: empty programs, useless
// libraries, trivial ILPs, determinism.
#include <gtest/gtest.h>

#include "frontend/parser.hpp"
#include "ilp/branch_bound.hpp"
#include "iplib/loader.hpp"
#include "select/flow.hpp"
#include "workloads/workloads.hpp"

namespace partita {
namespace {

workloads::Workload make(std::string_view kl, std::string_view lib) {
  support::DiagnosticEngine diags;
  auto m = frontend::parse_module(kl, diags);
  EXPECT_TRUE(m.has_value()) << diags.render_all();
  auto l = iplib::load_library(lib, diags);
  EXPECT_TRUE(l.has_value()) << diags.render_all();
  return {"edge", std::move(*m), std::move(*l)};
}

constexpr std::string_view kUselessLib = R"(
ip NOPE {
  area 1
  fn unrelated cycles 10 in 2 out 2
}
)";

TEST(Edge, NoScallsMeansNoGain) {
  workloads::Workload w = make(R"(
module t;
func helper sw_cycles 500;
func main { seg a 100 writes(x); call helper reads(x); }
)",
                               kUselessLib);
  select::Flow flow(w.module, w.library);
  EXPECT_TRUE(flow.scalls().empty());
  EXPECT_TRUE(flow.imp_database().imps().empty());
  EXPECT_EQ(flow.max_feasible_gain(), 0);
  EXPECT_TRUE(flow.select(0).feasible);
  EXPECT_FALSE(flow.select(1).feasible);
  EXPECT_FALSE(flow.greedy(1).feasible);
}

TEST(Edge, EmptyMainBody) {
  workloads::Workload w = make("module t; func main { }", kUselessLib);
  select::Flow flow(w.module, w.library);
  EXPECT_EQ(flow.profile().total_cycles, 0);
  ASSERT_EQ(flow.paths().size(), 1u);
  EXPECT_TRUE(flow.paths()[0].nodes.empty());
  EXPECT_TRUE(flow.select(0).feasible);
}

TEST(Edge, ScallWithoutMatchingIp) {
  workloads::Workload w = make(R"(
module t;
func fir scall sw_cycles 1000;
func main { call fir; }
)",
                               kUselessLib);
  select::Flow flow(w.module, w.library);
  EXPECT_TRUE(flow.scalls().empty());  // the library cannot execute fir
  EXPECT_FALSE(flow.select(100).feasible);
}

TEST(Edge, IpSlowerThanSoftwareEverywhereIsUseless) {
  // No buffer material to overlap: every IMP has non-positive gain.
  workloads::Workload w = make(R"(
module t;
func fir scall sw_cycles 100;
func main { call fir writes(x); seg post 10 reads(x); }
)",
                               R"(
ip SLOW {
  area 3
  ports in 2 out 2
  rate in 4 out 4
  latency 4
  pipelined
  protocol sync
  fn fir cycles 5000 in 8 out 8
}
)");
  select::Flow flow(w.module, w.library);
  EXPECT_TRUE(flow.imp_database().imps().empty());
  EXPECT_EQ(flow.max_feasible_gain(), 0);
}

TEST(Edge, DeterministicSelection) {
  for (int run = 0; run < 2; ++run) {
    static std::string first;
    workloads::Workload w = workloads::gsm_encoder();
    select::Flow flow(w.module, w.library);
    const select::Selection sel = flow.select(flow.max_feasible_gain() / 2);
    ASSERT_TRUE(sel.feasible);
    const std::string desc = sel.describe(flow.imp_database(), w.library);
    if (run == 0) first = desc;
    else EXPECT_EQ(desc, first);
  }
}

// --- ILP edge cases -------------------------------------------------------------

TEST(Edge, IlpWithNoRows) {
  ilp::Model m;
  m.set_sense(ilp::Sense::kMaximize);
  m.add_binary("a", 3.0);
  m.add_binary("b", -2.0);
  const ilp::IlpResult r = ilp::solve_ilp(m);
  ASSERT_EQ(r.status, ilp::IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);  // take a, skip b
}

TEST(Edge, IlpAllVariablesFixedByBounds) {
  ilp::Model m;
  const ilp::VarIndex a = m.add_binary("a", 5.0);
  m.var(a).upper = 0.0;  // forced off
  m.add_row("r", {{a, 1.0}}, ilp::RowSense::kLessEqual, 1.0);
  const ilp::IlpResult r = ilp::solve_ilp(m);
  ASSERT_EQ(r.status, ilp::IlpStatus::kOptimal);
  EXPECT_NEAR(r.x[a], 0.0, 1e-9);
}

TEST(Edge, ContinuousOnlyIlp) {
  // No binaries: branch & bound must terminate at the root relaxation.
  ilp::Model m;
  m.set_sense(ilp::Sense::kMaximize);
  const ilp::VarIndex x = m.add_continuous("x", 0, 10, 2.0);
  m.add_row("r", {{x, 1.0}}, ilp::RowSense::kLessEqual, 4.0);
  const ilp::IlpResult r = ilp::solve_ilp(m);
  ASSERT_EQ(r.status, ilp::IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 8.0, 1e-6);
  EXPECT_LE(r.stats.nodes, 2);
}

TEST(Edge, ZeroCoefficientRowsHarmless) {
  ilp::Model m;
  const ilp::VarIndex a = m.add_binary("a", 1.0);
  m.add_row("zero", {{a, 0.0}}, ilp::RowSense::kLessEqual, 0.0);
  m.set_sense(ilp::Sense::kMaximize);
  const ilp::IlpResult r = ilp::solve_ilp(m);
  ASSERT_EQ(r.status, ilp::IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(Edge, EqualityWithZeroRhs) {
  ilp::Model m;
  const ilp::VarIndex a = m.add_binary("a", 1.0);
  const ilp::VarIndex b = m.add_binary("b", 1.0);
  m.add_row("balance", {{a, 1.0}, {b, -1.0}}, ilp::RowSense::kEqual, 0.0);
  m.set_sense(ilp::Sense::kMaximize);
  const ilp::IlpResult r = ilp::solve_ilp(m);
  ASSERT_EQ(r.status, ilp::IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);  // both on together
}

// --- interface edge cases ----------------------------------------------------------

TEST(Edge, ZeroOutputIpStillWorks) {
  // An IP that only consumes data (e.g. a detector raising a flag register).
  workloads::Workload w = make(R"(
module t;
func detect scall sw_cycles 4000;
func main { call detect writes(flag); seg post 50 reads(flag); }
)",
                               R"(
ip DET {
  area 4
  ports in 2 out 1
  rate in 4 out 4
  latency 8
  pipelined
  protocol sync
  fn detect cycles 800 in 64 out 1
}
)");
  select::Flow flow(w.module, w.library);
  ASSERT_FALSE(flow.imp_database().imps().empty());
  EXPECT_TRUE(flow.select(flow.max_feasible_gain()).feasible);
}

}  // namespace
}  // namespace partita
