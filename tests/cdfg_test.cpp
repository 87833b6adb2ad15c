// Tests for the CDFG: dependence edges, transitive closure, execution paths,
// and the Definition 3-5 parallel-code extraction.
#include <gtest/gtest.h>

#include <string>

#include "cdfg/cdfg.hpp"
#include "cdfg/parallel.hpp"
#include "cdfg/paths.hpp"
#include "frontend/parser.hpp"

namespace partita::cdfg {
namespace {

ir::Module parse(std::string_view kl) {
  support::DiagnosticEngine diags;
  auto m = frontend::parse_module(kl, diags);
  EXPECT_TRUE(m.has_value()) << diags.render_all();
  return std::move(*m);
}

Cdfg build(const ir::Module& m) { return Cdfg(m, m.function(m.entry())); }

// --- dependence -----------------------------------------------------------------

TEST(Cdfg, RawDependence) {
  const ir::Module m = parse(R"(
module t;
func main {
  seg a 10 writes(x);
  seg b 10 reads(x);
  seg c 10 reads(y);
}
)");
  const Cdfg g = build(m);
  ASSERT_EQ(g.node_count(), 3u);
  EXPECT_TRUE(g.direct_edge(0, 1));   // RAW on x
  EXPECT_FALSE(g.direct_edge(0, 2));  // disjoint symbols
  EXPECT_TRUE(g.independent(0, 2));
  EXPECT_FALSE(g.independent(0, 1));
}

TEST(Cdfg, WarAndWawDependence) {
  const ir::Module m = parse(R"(
module t;
func main {
  seg a 10 reads(x);
  seg b 10 writes(x);
  seg c 10 writes(x);
}
)");
  const Cdfg g = build(m);
  EXPECT_TRUE(g.direct_edge(0, 1));  // WAR
  EXPECT_TRUE(g.direct_edge(1, 2));  // WAW
}

TEST(Cdfg, TransitiveClosure) {
  const ir::Module m = parse(R"(
module t;
func main {
  seg a 10 writes(x);
  seg b 10 reads(x) writes(y);
  seg c 10 reads(y);
}
)");
  const Cdfg g = build(m);
  EXPECT_FALSE(g.direct_edge(0, 2));
  EXPECT_TRUE(g.depends(0, 2));  // a -> b -> c
}

TEST(Cdfg, LoopAndBranchContext) {
  const ir::Module m = parse(R"(
module t;
func main {
  loop 5 {
    seg body 10 writes(x);
  }
  if prob 0.5 {
    seg t1 10 reads(x);
  } else {
    seg e1 10 reads(x);
  }
}
)");
  const Cdfg g = build(m);
  ASSERT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.node(0).loop_frequency, 5);
  EXPECT_EQ(g.node(0).loop_ctx.size(), 1u);
  EXPECT_EQ(g.node(1).branch_ctx.size(), 1u);
  EXPECT_TRUE(g.node(1).branch_ctx[0].then_arm);
  EXPECT_FALSE(g.node(2).branch_ctx[0].then_arm);
  EXPECT_FALSE(g.same_branch(1, 2));
  EXPECT_TRUE(g.same_loop_ctx(1, 2));
  EXPECT_FALSE(g.same_loop_ctx(0, 1));
}

TEST(Cdfg, CallNodeCyclesAnnotated) {
  const ir::Module m = parse(R"(
module t;
func leaf scall sw_cycles 123;
func main { call leaf; }
)");
  Cdfg g = build(m);
  EXPECT_EQ(g.node(0).cycles, 0);
  g.annotate_call_cycles([](ir::FuncId) { return std::int64_t{123}; });
  EXPECT_EQ(g.node(0).cycles, 123);
  EXPECT_EQ(g.node_of_call(ir::CallSiteId{0}), 0u);
}

// --- path enumeration --------------------------------------------------------------

// Software cycles along a path, honouring loop frequencies.
std::int64_t path_cycles(const ExecPath& p, const Cdfg& g) {
  std::int64_t total = 0;
  for (NodeIndex n : p.nodes) total += g.node(n).cycles * g.node(n).loop_frequency;
  return total;
}

TEST(Paths, StraightLineHasOnePath) {
  const ir::Module m = parse("module t; func main { seg a 5; seg b 6; }");
  const Cdfg g = build(m);
  const auto paths = enumerate_paths(g);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].nodes.size(), 2u);
  EXPECT_EQ(path_cycles(paths[0], g), 11);
}

TEST(Paths, TwoArmedIfMakesTwoPaths) {
  const ir::Module m = parse(R"(
module t;
func main {
  seg pre 1;
  if prob 0.3 { seg hot 10; } else { seg cold 20; }
  seg post 2;
}
)");
  const Cdfg g = build(m);
  const auto paths = enumerate_paths(g);
  ASSERT_EQ(paths.size(), 2u);
  // Both paths contain pre and post.
  for (const ExecPath& p : paths) {
    EXPECT_EQ(p.nodes.size(), 3u);
  }
  EXPECT_EQ(path_cycles(paths[0], g) + path_cycles(paths[1], g), 13 + 23);
}

TEST(Paths, NestedIfsDeduplicate) {
  const ir::Module m = parse(R"(
module t;
func main {
  if prob 0.5 {
    if prob 0.5 { seg a 1; } else { seg b 2; }
  } else {
    seg c 3;
  }
}
)");
  const Cdfg g = build(m);
  const auto paths = enumerate_paths(g);
  // a | b | c -- the inner decision is irrelevant on the else arm.
  ASSERT_EQ(paths.size(), 3u);
}

TEST(Paths, LoopBodyOnEveryPathWithFrequency) {
  const ir::Module m = parse(R"(
module t;
func main {
  loop 7 { seg body 10; }
  if prob 0.5 { seg a 1; } else { seg b 1; }
}
)");
  const Cdfg g = build(m);
  const auto paths = enumerate_paths(g);
  ASSERT_EQ(paths.size(), 2u);
  for (const ExecPath& p : paths) {
    EXPECT_TRUE(p.contains(0));
    EXPECT_EQ(path_cycles(p, g), 71);
  }
}

// --- parallel code (Definitions 3-5) -------------------------------------------------

struct PcFixture {
  ir::Module module;
  Cdfg g;

  explicit PcFixture(std::string_view kl)
      : module(parse(kl)), g(module, module.function(module.entry())) {
    g.annotate_call_cycles([](ir::FuncId) { return std::int64_t{1000}; });
  }
};

TEST(ParallelCode, CollectsIndependentTrailingSegments) {
  PcFixture f(R"(
module t;
func fir scall sw_cycles 1000;
func main {
  seg pre 10 writes(a);
  call fir reads(a) writes(x);
  seg indep 300 reads(a) writes(c);
  seg dep 100 reads(x);
}
)");
  const NodeIndex call = f.g.node_of_call(ir::CallSiteId{0});
  const ParallelCode pc = parallel_code(f.g, call);
  EXPECT_EQ(pc.cycles, 300);
  ASSERT_EQ(pc.nodes.size(), 1u);
  EXPECT_TRUE(pc.consumed_scalls.empty());
}

TEST(ParallelCode, BlockedBySkippedPredecessor) {
  // indep2 depends on dep, which cannot move; so indep2 cannot join either.
  PcFixture f(R"(
module t;
func fir scall sw_cycles 1000;
func main {
  seg pre 10 writes(a);
  call fir reads(a) writes(x);
  seg dep 100 reads(x) writes(y);
  seg indep2 300 reads(y) writes(z);
}
)");
  const NodeIndex call = f.g.node_of_call(ir::CallSiteId{0});
  const ParallelCode pc = parallel_code(f.g, call);
  EXPECT_EQ(pc.cycles, 0);
}

TEST(ParallelCode, SkipsDifferentLoopContext) {
  PcFixture f(R"(
module t;
func fir scall sw_cycles 1000;
func main {
  seg pre 10 writes(a);
  call fir reads(a) writes(x);
  loop 4 { seg inloop 50 reads(a); }
}
)");
  const NodeIndex call = f.g.node_of_call(ir::CallSiteId{0});
  const ParallelCode pc = parallel_code(f.g, call);
  EXPECT_EQ(pc.cycles, 0);  // the loop body runs under a different loop nest
}

TEST(ParallelCode, MinOverPaths) {
  // Definition 5: with two execution paths after the call, the shorter PC
  // guarantees the gain on both.
  PcFixture f(R"(
module t;
func fir scall sw_cycles 1000;
func main {
  seg pre 10 writes(a);
  call fir reads(a) writes(x);
  if prob 0.5 {
    seg big 500 reads(a);
  } else {
    seg small 100 reads(a);
  }
}
)");
  const NodeIndex call = f.g.node_of_call(ir::CallSiteId{0});
  const ParallelCode pc = parallel_code(f.g, call);
  EXPECT_EQ(pc.cycles, 100);
}

TEST(ParallelCode, ScallSoftwareOnlyUnderProblem2) {
  PcFixture f(R"(
module t;
func fir scall sw_cycles 1000;
func dct scall sw_cycles 1000;
func main {
  seg pre 10 writes(a);
  call dct reads(a) writes(x);
  call fir reads(a) writes(y);
  seg post 20 reads(x, y);
}
)");
  const NodeIndex call = f.g.node_of_call(ir::CallSiteId{0});

  PcOptions p1;  // Problem 1: s-calls excluded
  EXPECT_EQ(parallel_code(f.g, call, p1).cycles, 0);

  PcOptions p2;
  p2.allow_scall_software = true;
  const ParallelCode pc = parallel_code(f.g, call, p2);
  EXPECT_EQ(pc.cycles, 1000);
  ASSERT_EQ(pc.consumed_scalls.size(), 1u);
  EXPECT_EQ(pc.consumed_scalls[0], ir::CallSiteId{1});
}

TEST(ParallelCode, NonScallCallsJoinFreely) {
  PcFixture f(R"(
module t;
func helper sw_cycles 700;
func dct scall sw_cycles 1000;
func main {
  seg pre 10 writes(a);
  call dct reads(a) writes(x);
  call helper reads(a) writes(h);
  seg post 20 reads(x, h);
}
)");
  const NodeIndex call = f.g.node_of_call(ir::CallSiteId{0});
  PcOptions opt;  // Problem 1 semantics...
  opt.is_scall = [](ir::CallSiteId c) { return c == ir::CallSiteId{0}; };
  const ParallelCode pc = parallel_code(f.g, call, opt);
  EXPECT_EQ(pc.cycles, 1000);  // annotate gave every call 1000 cycles
  EXPECT_TRUE(pc.consumed_scalls.empty());
}

TEST(ParallelCode, MaxConsumedPrefix) {
  PcFixture f(R"(
module t;
func fir scall sw_cycles 1000;
func main {
  call fir writes(x);
  call fir writes(y);
  call fir writes(z);
  seg post 20 reads(x, y, z);
}
)");
  const NodeIndex call = f.g.node_of_call(ir::CallSiteId{0});
  PcOptions opt;
  opt.allow_scall_software = true;
  opt.max_consumed = 1;
  const ParallelCode pc1 = parallel_code(f.g, call, opt);
  EXPECT_EQ(pc1.consumed_scalls.size(), 1u);
  EXPECT_EQ(pc1.cycles, 1000);
  opt.max_consumed = 2;
  const ParallelCode pc2 = parallel_code(f.g, call, opt);
  EXPECT_EQ(pc2.consumed_scalls.size(), 2u);
  EXPECT_EQ(pc2.cycles, 2000);
}

// 30 conditionals, each holding an s-call whose result a candidate reads
// after them all: under Problem 1 every arm choice blocks a different set of
// readers, 2^29 walk states at the last conditional. The walk stops
// branching at kPcMemoStates and still answers the minimum, where every
// then-arm blocks its reader. Under Problem 2 the s-calls join, nothing is
// blocked, and the exact minimum takes every else-arm.
TEST(ParallelCode, ChainOfExcludedCallsStaysBounded) {
  constexpr int k = 30;
  std::string kl = "module t;\nfunc fir scall sw_cycles 1000;\nfunc main {\n";
  kl += "  seg pre 10 writes(a);\n  call fir reads(a) writes(x);\n";
  for (int j = 0; j < k; ++j) {
    kl += "  if prob 0.5 { call fir reads(a) writes(y" + std::to_string(j) + "); }\n";
  }
  for (int j = 0; j < k; ++j) {
    kl += "  seg r" + std::to_string(j) + " 10 reads(y" + std::to_string(j) + ");\n";
  }
  kl += "}\n";
  PcFixture f(kl);
  const NodeIndex call = f.g.node_of_call(ir::CallSiteId{0});

  const ParallelCode p1 = parallel_code(f.g, call);
  EXPECT_EQ(p1.cycles, 0);
  EXPECT_TRUE(p1.nodes.empty());

  PcOptions p2;
  p2.allow_scall_software = true;
  const ParallelCode pc = parallel_code(f.g, call, p2);
  EXPECT_EQ(pc.cycles, 10 * k);
  EXPECT_EQ(pc.nodes.size(), std::size_t{k});
  EXPECT_TRUE(pc.consumed_scalls.empty());
}

}  // namespace
}  // namespace partita::cdfg
