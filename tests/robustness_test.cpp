// Robustness: random-input fuzzing of the two text frontends and the IP
// loader (must diagnose, never crash), solver stress on degenerate and
// larger random instances, and the resource-governed solve pipeline:
// deadline/memory budgets, the staged degradation ladder, and deterministic
// fault injection.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "frontend/parser.hpp"
#include "ilp/branch_bound.hpp"
#include "iplib/loader.hpp"
#include "minic/mc_codegen.hpp"
#include "report/chip_report.hpp"
#include "select/export.hpp"
#include "select/flow.hpp"
#include "support/clock.hpp"
#include "support/fault_injection.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita {
namespace {

// --- fuzzing -------------------------------------------------------------------

std::string random_token_soup(std::mt19937& rng, bool kl_flavored) {
  static const char* kKlWords[] = {"module", "func",  "seg",   "call", "if",
                                   "loop",   "reads", "writes", "prob", "scall",
                                   "sw_cycles", "entry", "else"};
  static const char* kMcWords[] = {"int",  "void", "for",     "if",      "else",
                                   "in",   "out",  "inout",   "__scall", "__cycles",
                                   "__prob"};
  static const char* kPunct[] = {"{", "}", "(", ")", "[", "]", ";", ",", "=",
                                 "+", "-", "*", "<", ">", "<<", "!=", "|"};
  std::string out;
  const int n = 5 + static_cast<int>(rng() % 120);
  for (int i = 0; i < n; ++i) {
    switch (rng() % 4) {
      case 0:
        out += kl_flavored ? kKlWords[rng() % std::size(kKlWords)]
                           : kMcWords[rng() % std::size(kMcWords)];
        break;
      case 1:
        out += kPunct[rng() % std::size(kPunct)];
        break;
      case 2:
        out += "v" + std::to_string(rng() % 9);
        break;
      case 3:
        out += std::to_string(rng() % 10000);
        break;
    }
    out += (rng() % 6 == 0) ? "\n" : " ";
  }
  return out;
}

class FuzzFrontends : public ::testing::TestWithParam<int> {};

TEST_P(FuzzFrontends, KlParserNeverCrashes) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    support::DiagnosticEngine diags;
    auto m = frontend::parse_module(random_token_soup(rng, true), diags);
    if (!m) {
      EXPECT_TRUE(diags.has_errors());  // rejection must be explained
    }
  }
}

TEST_P(FuzzFrontends, MiniCCompilerNeverCrashes) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 9000);
  for (int i = 0; i < 50; ++i) {
    support::DiagnosticEngine diags;
    auto m = minic::mc_compile_source(random_token_soup(rng, false), "fuzz", diags);
    if (!m) {
      EXPECT_TRUE(diags.has_errors());
    }
  }
}

TEST_P(FuzzFrontends, IpLoaderNeverCrashes) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 5000);
  static const char* kWords[] = {"ip",       "area",    "ports", "rate", "in",
                                 "out",      "latency", "fn",    "cycles", "{",
                                 "}",        "pipelined", "protocol", "sync"};
  for (int i = 0; i < 50; ++i) {
    std::string soup;
    const int n = 5 + static_cast<int>(rng() % 60);
    for (int k = 0; k < n; ++k) {
      soup += (rng() % 3 == 0) ? std::to_string(rng() % 100)
                               : kWords[rng() % std::size(kWords)];
      soup += (rng() % 5 == 0) ? "\n" : " ";
    }
    support::DiagnosticEngine diags;
    auto lib = iplib::load_library(soup, diags);
    if (!lib) {
      EXPECT_TRUE(diags.has_errors());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFrontends, ::testing::Range(0, 6));

// --- solver stress --------------------------------------------------------------

TEST(SolverStress, HighlyDegenerateEqualitySystem) {
  // Many redundant equalities around one feasible point: phase-1 heavy,
  // degenerate pivots; must still terminate at the optimum.
  ilp::Model m;
  m.set_sense(ilp::Sense::kMaximize);
  std::vector<ilp::VarIndex> x;
  for (int j = 0; j < 10; ++j) x.push_back(m.add_binary("x" + std::to_string(j), j + 1));
  for (int r = 0; r < 8; ++r) {
    std::vector<ilp::Term> terms;
    for (int j = r; j < 10; j += 2) terms.push_back({x[static_cast<std::size_t>(j)], 1.0});
    m.add_row("eq" + std::to_string(r), std::move(terms), ilp::RowSense::kEqual,
              r % 2 ? 2.0 : 1.0);
  }
  const ilp::IlpResult r = ilp::solve_ilp(m);
  // May be infeasible depending on parity structure; it must terminate with
  // a definite answer either way.
  EXPECT_NE(r.status, ilp::IlpStatus::kNodeLimit);
  if (r.has_solution) {
    EXPECT_TRUE(m.is_feasible(r.x));
  }
}

TEST(SolverStress, WideKnapsackCloses) {
  // 60 binaries, one knapsack row: B&B with the rounding heuristic must
  // close quickly (fractional LP + one branch level typically suffices).
  std::mt19937 rng(7);
  ilp::Model m;
  m.set_sense(ilp::Sense::kMaximize);
  std::vector<double> weight(60);
  std::vector<ilp::Term> row;
  double total = 0;
  for (int j = 0; j < 60; ++j) {
    const double v = 1 + static_cast<double>(rng() % 40);
    weight[static_cast<std::size_t>(j)] = 1 + static_cast<double>(rng() % 20);
    m.add_binary("x" + std::to_string(j), v);
    row.push_back({static_cast<ilp::VarIndex>(j), weight[static_cast<std::size_t>(j)]});
    total += weight[static_cast<std::size_t>(j)];
  }
  m.add_row("cap", std::move(row), ilp::RowSense::kLessEqual, total / 3);
  const ilp::IlpResult r = ilp::solve_ilp(m);
  ASSERT_EQ(r.status, ilp::IlpStatus::kOptimal);
  EXPECT_TRUE(m.is_feasible(r.x));
  EXPECT_LT(r.stats.nodes, 50000);
}

// --- resource budgets & degradation ladder --------------------------------------

// An injected deadline that trips at the k-th wave-boundary checkpoint stops
// the search after exactly k-1 waves. Each wave solves one node LP, so the
// overshoot past the deadline is at most one node LP, and the truncated
// result is the same on every run.
TEST(ResourceGovernance, InjectedDeadlineStopsAfterOneNodeLpPerWave) {
  const workloads::Workload w = workloads::gsm_encoder();
  const auto flow = select::Flow::create(w.module, w.library);
  ASSERT_TRUE(flow.ok());
  const std::int64_t rg = flow.value()->max_feasible_gain() / 2;

  for (int trip_at : {2, 3, 5}) {
    std::vector<select::Selection> runs;
    for (int run = 0; run < 2; ++run) {
      support::ScopedFault deadline("ilp.deadline", trip_at);
      runs.push_back(flow.value()->select(rg));
    }
    for (const select::Selection& sel : runs) {
      EXPECT_TRUE(sel.truncated) << "trip_at=" << trip_at;
      EXPECT_EQ(sel.solver.termination, ilp::TerminationReason::kDeadline);
      EXPECT_EQ(sel.solver.waves, trip_at - 1);
      EXPECT_LE(sel.solver.warm_starts + sel.solver.cold_starts, sel.solver.waves);
    }
    EXPECT_EQ(runs[1].feasible, runs[0].feasible) << "trip_at=" << trip_at;
    EXPECT_EQ(runs[1].chosen, runs[0].chosen) << "trip_at=" << trip_at;
    EXPECT_EQ(runs[1].rung, runs[0].rung) << "trip_at=" << trip_at;
    EXPECT_EQ(runs[1].greedy_fallback, runs[0].greedy_fallback) << "trip_at=" << trip_at;
  }
}

// A 1-byte arena cap trips at the very first checkpoint (the root node is
// already allocated), before any incumbent exists: the ladder must answer
// with the deterministic greedy baseline.
TEST(ResourceGovernance, ArenaCapFallsBackToGreedy) {
  const workloads::Workload w = workloads::gsm_encoder();
  const auto flow = select::Flow::create(w.module, w.library);
  ASSERT_TRUE(flow.ok());
  const std::int64_t rg = flow.value()->max_feasible_gain() / 4;

  select::SelectOptions opt;
  opt.ilp.budget.memory_limit_bytes = 1;
  const select::Selection sel = flow.value()->select(rg, opt);
  EXPECT_TRUE(sel.truncated);
  EXPECT_EQ(sel.solver.termination, ilp::TerminationReason::kMemoryLimit);
  ASSERT_TRUE(sel.feasible);
  EXPECT_TRUE(sel.greedy_fallback);
  EXPECT_EQ(sel.rung, select::DegradationRung::kGreedyFallback);
  EXPECT_GE(sel.min_path_gain, rg);
}

// Forcing every warm-basis refactorization to fail must route node LPs
// through the cold-start fallback without changing the answer.
TEST(ResourceGovernance, WarmRefactorFaultFallsBackToColdStart) {
  const workloads::Workload w = workloads::fig9_case();
  const auto flow = select::Flow::create(w.module, w.library);
  ASSERT_TRUE(flow.ok());
  const std::int64_t rg = flow.value()->max_feasible_gain() / 2;

  const select::Selection clean = flow.value()->select(rg);
  select::Selection faulted;
  {
    support::ScopedFault refactor("simplex.warm_refactor", /*trip_at=*/1);
    faulted = flow.value()->select(rg);
  }
  EXPECT_EQ(faulted.solver.warm_starts, 0);
  EXPECT_FALSE(faulted.truncated);
  EXPECT_EQ(faulted.rung, select::DegradationRung::kOptimal);
  ASSERT_TRUE(faulted.feasible);
  EXPECT_EQ(faulted.chosen, clean.chosen);
}

// An impossible requirement lands on the bottom rung: a structured
// infeasibility report (never an abort) from both the chip report and the
// JSON export.
TEST(ResourceGovernance, InfeasibleGainProducesStructuredReport) {
  const workloads::Workload w = workloads::fig10_case();
  const auto flow = select::Flow::create(w.module, w.library);
  ASSERT_TRUE(flow.ok());
  const std::int64_t rg = flow.value()->max_feasible_gain() * 10 + 1;

  const select::Selection sel = flow.value()->select(rg);
  EXPECT_FALSE(sel.feasible);
  EXPECT_EQ(sel.rung, select::DegradationRung::kInfeasible);
  EXPECT_EQ(sel.solver.termination, ilp::TerminationReason::kCompleted);
  EXPECT_FALSE(sel.degradation_detail.empty());

  const report::ChipReport rep = report::generate_report(*flow.value(), sel);
  EXPECT_NE(rep.text.find("NO FEASIBLE SELECTION"), std::string::npos);
  EXPECT_NE(rep.text.find("infeasible"), std::string::npos);

  const std::string json =
      select::to_json(sel, flow.value()->imp_database(), w.library, rg);
  EXPECT_NE(json.find("\"feasible\": false"), std::string::npos);
  EXPECT_NE(json.find("\"rung\": \"infeasible\""), std::string::npos);
}

// The deadline path on a larger random instance, driven by the injected
// clock instead of a razor-thin real time limit: a clock that jumps two
// seconds per observation expires a one-second budget at the very first
// wave-boundary checkpoint -- deterministically, with zero real waiting and
// zero flaky timing margin.
TEST(ResourceGovernance, DeadlineTruncatesLargeInstanceOnInjectedClock) {
  workloads::RandomWorkloadParams params;
  params.leaf_functions = 12;
  params.call_sites = 48;
  params.ips = 16;
  const workloads::Workload w = workloads::random_workload(params, /*seed=*/3);
  const auto flow = select::Flow::create(w.module, w.library);
  ASSERT_TRUE(flow.ok());
  const std::int64_t rg = flow.value()->max_feasible_gain() / 2;

  class SteppingClock final : public support::Clock {
   public:
    std::int64_t now_micros() override { return t_ += 2'000'000; }
    void sleep_micros(std::int64_t) override {}

   private:
    std::int64_t t_ = 0;
  } clock;

  select::SelectOptions opt;
  opt.ilp.budget.time_limit_seconds = 1.0;
  opt.ilp.budget.clock = &clock;
  const select::Selection sel = flow.value()->select(rg, opt);
  EXPECT_TRUE(sel.truncated);
  EXPECT_EQ(sel.solver.termination, ilp::TerminationReason::kDeadline);
  EXPECT_EQ(sel.solver.waves, 0);
}

// Budget bookkeeping surfaces in the stats even when nothing trips.
TEST(ResourceGovernance, UntruncatedRunReportsCompletion) {
  const workloads::Workload w = workloads::fig9_case();
  const auto flow = select::Flow::create(w.module, w.library);
  ASSERT_TRUE(flow.ok());
  select::SelectOptions opt;
  opt.ilp.budget.time_limit_seconds = 3600.0;
  opt.ilp.budget.memory_limit_bytes = std::size_t{1} << 30;
  const select::Selection sel =
      flow.value()->select(flow.value()->max_feasible_gain() / 2, opt);
  ASSERT_TRUE(sel.feasible);
  EXPECT_FALSE(sel.truncated);
  EXPECT_EQ(sel.rung, select::DegradationRung::kOptimal);
  EXPECT_EQ(sel.solver.termination, ilp::TerminationReason::kCompleted);
  EXPECT_GT(sel.solver.peak_arena_bytes, 0u);
  EXPECT_GT(sel.solver.waves, 0);
}

// --- fallible construction ------------------------------------------------------

TEST(ResourceGovernance, FlowCreateRejectsUnverifiableModule) {
  ir::Module bad("no_entry");  // no functions, no entry point
  iplib::IpLibrary lib;
  const auto flow = select::Flow::create(bad, lib);
  ASSERT_FALSE(flow.ok());
  EXPECT_FALSE(flow.error().diagnostics.empty());
  EXPECT_NE(flow.error().render().find("verification"), std::string::npos);
}

TEST(SolverStress, AlternatingSignsObjective) {
  ilp::Model m;
  for (int j = 0; j < 12; ++j) {
    m.add_binary("x" + std::to_string(j), (j % 2 ? 1.0 : -1.0) * (j + 1));
  }
  // Minimize: picks all negative-coefficient (even-index) variables.
  const ilp::IlpResult r = ilp::solve_ilp(m);
  ASSERT_EQ(r.status, ilp::IlpStatus::kOptimal);
  double expected = 0;
  for (int j = 0; j < 12; j += 2) expected -= (j + 1);
  EXPECT_NEAR(r.objective, expected, 1e-9);
}

}  // namespace
}  // namespace partita
