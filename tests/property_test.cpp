// Cross-module property tests on randomized inputs: LP relaxation bounds,
// path-probability algebra, print/parse round-trips and Huffman optimality
// bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "cdfg/paths.hpp"
#include "frontend/parser.hpp"
#include "ilp/branch_bound.hpp"
#include "ilp/simplex.hpp"
#include "ir/printer.hpp"
#include "profile/profile.hpp"
#include "select/flow.hpp"
#include "ucode/isa.hpp"
#include "workloads/random_workload.hpp"

namespace partita {
namespace {

// --- LP / ILP algebraic properties -------------------------------------------

ilp::Model random_binary_model(std::mt19937& rng, int n, int rows) {
  std::uniform_int_distribution<int> coef(1, 15);
  ilp::Model m;
  m.set_sense(ilp::Sense::kMaximize);
  for (int j = 0; j < n; ++j) m.add_binary("x" + std::to_string(j), coef(rng));
  for (int r = 0; r < rows; ++r) {
    std::vector<ilp::Term> terms;
    double total = 0;
    for (int j = 0; j < n; ++j) {
      if (rng() % 2) {
        const double c = coef(rng);
        terms.push_back({static_cast<ilp::VarIndex>(j), c});
        total += c;
      }
    }
    if (terms.empty()) continue;
    m.add_row("r" + std::to_string(r), std::move(terms), ilp::RowSense::kLessEqual,
              std::floor(total * 0.6));
  }
  return m;
}

class LpBoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(LpBoundProperty, RelaxationBoundsInteger) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const ilp::Model m = random_binary_model(rng, 8, 4);
  const ilp::LpResult lp = ilp::solve_lp(m);
  const ilp::IlpResult ip = ilp::solve_ilp(m);
  ASSERT_EQ(lp.status, ilp::LpStatus::kOptimal);
  ASSERT_EQ(ip.status, ilp::IlpStatus::kOptimal);
  // Maximize: the relaxation is an upper bound.
  EXPECT_GE(lp.objective + 1e-6, ip.objective);
}

TEST_P(LpBoundProperty, RedundantRowDoesNotChangeOptimum) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 1000);
  ilp::Model m = random_binary_model(rng, 7, 3);
  const ilp::IlpResult before = ilp::solve_ilp(m);
  // sum of all vars <= n is implied by the binaries.
  std::vector<ilp::Term> all;
  for (std::size_t j = 0; j < m.var_count(); ++j) {
    all.push_back({static_cast<ilp::VarIndex>(j), 1.0});
  }
  m.add_row("redundant", std::move(all), ilp::RowSense::kLessEqual,
            static_cast<double>(m.var_count()));
  const ilp::IlpResult after = ilp::solve_ilp(m);
  ASSERT_EQ(before.status, after.status);
  if (before.has_solution) {
    EXPECT_NEAR(before.objective, after.objective, 1e-6);
  }
}

TEST_P(LpBoundProperty, ObjectiveScalingScalesOptimum) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 2000);
  ilp::Model m = random_binary_model(rng, 6, 3);
  const ilp::IlpResult base = ilp::solve_ilp(m);
  for (std::size_t j = 0; j < m.var_count(); ++j) {
    m.var(static_cast<ilp::VarIndex>(j)).objective *= 3.0;
  }
  const ilp::IlpResult scaled = ilp::solve_ilp(m);
  ASSERT_TRUE(base.has_solution && scaled.has_solution);
  EXPECT_NEAR(scaled.objective, 3.0 * base.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpBoundProperty, ::testing::Range(0, 15));

// --- path algebra on random workloads -----------------------------------------

class PathProperty : public ::testing::TestWithParam<int> {};

TEST_P(PathProperty, ProbabilitiesPartitionToOne) {
  workloads::RandomWorkloadParams p;
  workloads::Workload w =
      workloads::random_workload(p, static_cast<std::uint64_t>(GetParam()));
  cdfg::Cdfg g(w.module, w.module.function(w.module.entry()));
  const auto paths = cdfg::enumerate_paths(g);
  double total = 0;
  for (const cdfg::ExecPath& path : paths) total += path.probability;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(PathProperty, EveryNodeOnSomePath) {
  workloads::RandomWorkloadParams p;
  workloads::Workload w =
      workloads::random_workload(p, static_cast<std::uint64_t>(GetParam()) + 100);
  cdfg::Cdfg g(w.module, w.module.function(w.module.entry()));
  const auto paths = cdfg::enumerate_paths(g);
  for (cdfg::NodeIndex n = 0; n < g.node_count(); ++n) {
    bool covered = false;
    for (const cdfg::ExecPath& path : paths) covered |= path.contains(n);
    EXPECT_TRUE(covered) << "node " << n;
  }
}

TEST_P(PathProperty, ExpectedPathCyclesMatchProfile) {
  // E[path software cycles] over path probabilities == the analytic profile
  // of the entry function (call nodes annotated with callee cycles).
  workloads::RandomWorkloadParams p;
  workloads::Workload w =
      workloads::random_workload(p, static_cast<std::uint64_t>(GetParam()) + 200);
  const profile::ModuleProfile prof = profile::profile_module(w.module);
  cdfg::Cdfg g(w.module, w.module.function(w.module.entry()));
  g.annotate_call_cycles([&](ir::FuncId f) { return prof.cycles_of(f); });
  const auto paths = cdfg::enumerate_paths(g);
  double expected = 0;
  for (const cdfg::ExecPath& path : paths) {
    expected += path.probability * static_cast<double>(path.software_cycles(g));
  }
  // The profiler rounds per-if; allow proportional slack.
  EXPECT_NEAR(expected, static_cast<double>(prof.total_cycles),
              2.0 + 0.01 * expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathProperty, ::testing::Range(0, 12));

// --- frontend round-trip on random workloads ------------------------------------

class RoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripProperty, PrintParsePrintFixpoint) {
  workloads::RandomWorkloadParams p;
  workloads::Workload w =
      workloads::random_workload(p, static_cast<std::uint64_t>(GetParam()) + 500);
  const std::string printed1 = ir::print_module(w.module);
  support::DiagnosticEngine diags;
  auto reparsed = frontend::parse_module(printed1, diags);
  ASSERT_TRUE(reparsed.has_value()) << diags.render_all() << printed1;
  EXPECT_EQ(ir::print_module(*reparsed), printed1);
  // Semantics preserved: identical profile.
  EXPECT_EQ(profile::profile_module(*reparsed).total_cycles,
            profile::profile_module(w.module).total_cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty, ::testing::Range(0, 10));

// --- Huffman optimality bounds ---------------------------------------------------

class HuffmanProperty : public ::testing::TestWithParam<int> {};

TEST_P(HuffmanProperty, ExpectedBitsWithinEntropyPlusOne) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> freq(0.5, 500.0);
  ucode::InstructionSet isa;
  const int n = 3 + static_cast<int>(rng() % 20);
  double total = 0;
  std::vector<double> f(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    f[static_cast<std::size_t>(i)] = freq(rng);
    total += f[static_cast<std::size_t>(i)];
    ucode::Instruction instr;
    instr.name = "i" + std::to_string(i);
    instr.frequency = f[static_cast<std::size_t>(i)];
    isa.add(instr);
  }
  isa.encode();
  ASSERT_TRUE(isa.codes_are_prefix_free());
  double entropy = 0;
  for (double w : f) {
    const double q = w / total;
    entropy -= q * std::log2(q);
  }
  const double expected = isa.expected_opcode_bits();
  EXPECT_GE(expected + 1e-9, entropy);
  EXPECT_LE(expected, entropy + 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace partita
