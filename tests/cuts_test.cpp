// Cut-validity property tests for the root cutting planes (ilp/cuts.hpp).
//
// The contract under test: separation never returns an inequality that cuts
// off an integer-feasible point of the original model. On small all-binary
// models this is checked exhaustively (every 0/1 point); on the real
// selection models it is checked against the ILP optimum, the independent
// exhaustive oracle (src/oracle), and the cuts-on/cuts-off answer equality
// that canonical tie-breaking guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "ilp/branch_bound.hpp"
#include "ilp/cuts.hpp"
#include "ilp/model.hpp"
#include "ilp/presolve.hpp"
#include "ilp/simplex.hpp"
#include "oracle/exhaustive.hpp"
#include "select/flow.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita::ilp {
namespace {

double cut_activity(const Cut& cut, const std::vector<double>& x) {
  double a = 0.0;
  for (const Term& t : cut.terms) a += t.coeff * x[t.var];
  return a;
}

bool cut_satisfied(const Cut& cut, const std::vector<double>& x, double tol = 1e-7) {
  const double a = cut_activity(cut, x);
  switch (cut.sense) {
    case RowSense::kLessEqual:
      return a <= cut.rhs + tol;
    case RowSense::kGreaterEqual:
      return a >= cut.rhs - tol;
    case RowSense::kEqual:
      return std::abs(a - cut.rhs) <= tol;
  }
  return false;
}

/// Separates at the LP-relaxation optimum and checks every returned cut
/// against every integer-feasible 0/1 point of the (all-binary) model.
/// Returns the number of cuts separated so callers can assert coverage.
std::size_t check_cuts_exhaustively(const Model& m) {
  const std::size_t n = m.var_count();
  EXPECT_LE(n, 20u) << "exhaustive check needs a small model";
  std::vector<double> lo(n), hi(n);
  for (std::size_t j = 0; j < n; ++j) {
    lo[j] = m.var(static_cast<VarIndex>(j)).lower;
    hi[j] = m.var(static_cast<VarIndex>(j)).upper;
  }
  const PresolveResult pre = presolve(m, lo, hi);
  if (pre.infeasible) return 0;
  const LpResult r = solve_lp(m, pre.lower, pre.upper, {});
  if (r.status != LpStatus::kOptimal) return 0;
  const std::vector<Cut> cuts = separate_cuts(m, lift_cliques(pre.cliques, n), r.x);

  // Every cut must be violated by the fractional point it was separated at...
  for (const Cut& cut : cuts) {
    EXPECT_FALSE(cut_satisfied(cut, r.x, 1e-9))
        << cut.name << " returned but not violated at the fractional point";
  }
  // ...and satisfied by every integer-feasible point of the original model.
  std::vector<double> x(n, 0.0);
  for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
    for (std::size_t j = 0; j < n; ++j) x[j] = (bits >> j) & 1u ? 1.0 : 0.0;
    if (!m.is_feasible(x)) continue;
    for (const Cut& cut : cuts) {
      EXPECT_TRUE(cut_satisfied(cut, x))
          << cut.name << " cuts off feasible point bits=" << bits;
    }
  }
  return cuts.size();
}

TEST(Cuts, CliqueCutFromPairwiseConflicts) {
  // Pairwise at-most-ones over {x1,x2,x3}; LP optimum is all-half, which the
  // merged 3-clique  x1 + x2 + x3 <= 1  cuts off.
  Model m;
  const VarIndex x1 = m.add_binary("x1", -1.0);
  const VarIndex x2 = m.add_binary("x2", -1.0);
  const VarIndex x3 = m.add_binary("x3", -1.0);
  m.add_row("c12", {{x1, 1.0}, {x2, 1.0}}, RowSense::kLessEqual, 1.0);
  m.add_row("c23", {{x2, 1.0}, {x3, 1.0}}, RowSense::kLessEqual, 1.0);
  m.add_row("c13", {{x1, 1.0}, {x3, 1.0}}, RowSense::kLessEqual, 1.0);
  EXPECT_GT(check_cuts_exhaustively(m), 0u);
}

TEST(Cuts, LiftedCoverCutFromKnapsackRow) {
  // max 5 x1 + 5 x2 + 4 x3  st  3 x1 + 3 x2 + 3 x3 <= 7: the LP packs one
  // variable fractionally (7/3 total weight), and the minimal cover
  // {x1, x2, x3} yields  x1 + x2 + x3 <= 2, violated at the fractional point.
  Model m;
  const VarIndex x1 = m.add_binary("x1", -5.0);
  const VarIndex x2 = m.add_binary("x2", -5.0);
  const VarIndex x3 = m.add_binary("x3", -4.0);
  m.add_row("cap", {{x1, 3.0}, {x2, 3.0}, {x3, 3.0}}, RowSense::kLessEqual, 7.0);
  EXPECT_GT(check_cuts_exhaustively(m), 0u);
}

TEST(Cuts, RandomSmallModelsNeverCutFeasiblePoints) {
  // Random all-binary models mixing the three row shapes of the selection
  // models (at-most-one, knapsack, fixed charge). The property (no feasible point cut off) must hold no
  // matter whether any particular instance separates cuts.
  std::mt19937 rng(20260808u);
  std::size_t separated = 0;
  for (int inst = 0; inst < 40; ++inst) {
    const int n = 6 + static_cast<int>(rng() % 7);  // 6..12 binaries
    Model m;
    std::uniform_int_distribution<int> coeff(1, 6);
    std::uniform_int_distribution<int> obj(-8, -1);
    for (int j = 0; j < n; ++j)
      m.add_binary("x" + std::to_string(j), static_cast<double>(obj(rng)));
    const int rows = 2 + static_cast<int>(rng() % 4);
    for (int r = 0; r < rows; ++r) {
      const int shape = static_cast<int>(rng() % 3);
      std::vector<Term> terms;
      if (shape == 0) {  // at-most-one over a random subset
        for (int j = 0; j < n; ++j)
          if (rng() % 3 == 0) terms.push_back({static_cast<VarIndex>(j), 1.0});
        if (terms.size() < 2) continue;
        m.add_row("amo" + std::to_string(r), std::move(terms),
                  RowSense::kLessEqual, 1.0);
      } else if (shape == 1) {  // knapsack
        double total = 0.0;
        for (int j = 0; j < n; ++j) {
          if (rng() % 2) continue;
          const double c = coeff(rng);
          total += c;
          terms.push_back({static_cast<VarIndex>(j), c});
        }
        if (terms.size() < 3) continue;
        m.add_row("cap" + std::to_string(r), std::move(terms),
                  RowSense::kLessEqual, std::max(1.0, total / 2.0));
      } else {  // fixed charge onto the last binary
        const VarIndex z = static_cast<VarIndex>(n - 1);
        for (int j = 0; j + 1 < n; ++j)
          if (rng() % 2) terms.push_back({static_cast<VarIndex>(j), 1.0});
        if (terms.size() < 2) continue;
        terms.push_back({z, -static_cast<double>(n)});
        m.add_row("fc" + std::to_string(r), std::move(terms),
                  RowSense::kLessEqual, 0.0);
      }
    }
    separated += check_cuts_exhaustively(m);
  }
  EXPECT_GT(separated, 0u) << "property run never exercised a separated cut";
}

TEST(Cuts, SeparationIsDeterministic) {
  Model m;
  const VarIndex x1 = m.add_binary("x1", -5.0);
  const VarIndex x2 = m.add_binary("x2", -5.0);
  const VarIndex x3 = m.add_binary("x3", -4.0);
  const VarIndex z = m.add_binary("z", 6.0);
  m.add_row("cap", {{x1, 4.0}, {x2, 4.0}, {x3, 3.0}}, RowSense::kLessEqual, 7.0);
  m.add_row("fc", {{x1, 1.0}, {x2, 1.0}, {x3, 1.0}, {z, -3.0}},
            RowSense::kLessEqual, 0.0);
  std::vector<double> lo(m.var_count(), 0.0), hi(m.var_count(), 1.0);
  const PresolveResult pre = presolve(m, lo, hi);
  const LpResult r = solve_lp(m, pre.lower, pre.upper, {});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  const std::vector<LiftedClique> lifted = lift_cliques(pre.cliques, m.var_count());
  const std::vector<Cut> a = separate_cuts(m, lifted, r.x);
  const std::vector<Cut> b = separate_cuts(m, lifted, r.x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].rhs, b[i].rhs);
    ASSERT_EQ(a[i].terms.size(), b[i].terms.size());
    for (std::size_t t = 0; t < a[i].terms.size(); ++t) {
      EXPECT_EQ(a[i].terms[t].var, b[i].terms[t].var);
      EXPECT_EQ(a[i].terms[t].coeff, b[i].terms[t].coeff);
    }
  }
}

// --- selection models -------------------------------------------------------

TEST(Cuts, SelectionModelOptimumSurvivesSeparation) {
  // Cuts separated at the selection root must keep the true integer optimum
  // (solved without cuts) feasible -- on the seed apps and a random model.
  struct Case {
    const char* name;
    workloads::Workload w;
  };
  workloads::RandomWorkloadParams p;
  p.call_sites = 16;
  p.leaf_functions = 5;
  p.ips = 8;
  const Case cases[] = {
      {"gsm_decoder", workloads::gsm_decoder()},
      {"random_16site", workloads::random_workload(p, 4242)},
  };
  for (const Case& c : cases) {
    select::Flow flow(c.w.module, c.w.library);
    const std::int64_t gmax = flow.max_feasible_gain();
    const Model m = flow.selector().build_model(
        std::vector<std::int64_t>(flow.paths().size(), gmax / 2), {});
    std::vector<double> lo(m.var_count()), hi(m.var_count());
    for (std::size_t j = 0; j < m.var_count(); ++j) {
      lo[j] = m.var(static_cast<VarIndex>(j)).lower;
      hi[j] = m.var(static_cast<VarIndex>(j)).upper;
    }
    const PresolveResult pre = presolve(m, lo, hi);
    ASSERT_FALSE(pre.infeasible) << c.name;
    const LpResult root = solve_lp(m, pre.lower, pre.upper, {});
    ASSERT_EQ(root.status, LpStatus::kOptimal) << c.name;
    const std::vector<Cut> cuts =
        separate_cuts(m, lift_cliques(pre.cliques, m.var_count()), root.x);

    IlpOptions no_cuts;
    no_cuts.cuts = false;
    const IlpResult exact = solve_ilp(m, no_cuts);
    ASSERT_TRUE(exact.has_solution) << c.name;
    for (const Cut& cut : cuts) {
      EXPECT_TRUE(cut_satisfied(cut, exact.x))
          << c.name << ": " << cut.name << " cuts off the integer optimum";
    }
  }
}

TEST(Cuts, CutsPreserveCanonicalSelection) {
  // With canonical tie-breaking the reported selection must be bit-identical
  // with cuts on and off: cuts shrink the search, never the answer.
  workloads::RandomWorkloadParams p;
  p.call_sites = 20;
  p.leaf_functions = 6;
  p.ips = 10;
  const workloads::Workload w = workloads::random_workload(p, 777);
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  for (const std::int64_t rg : {gmax / 4, gmax / 2, gmax}) {
    select::SelectOptions on, off;
    off.ilp.cuts = false;
    const select::Selection a = flow.select(rg, on);
    const select::Selection b = flow.select(rg, off);
    EXPECT_EQ(a.feasible, b.feasible) << "rg=" << rg;
    EXPECT_EQ(a.chosen, b.chosen) << "rg=" << rg;
    EXPECT_EQ(a.min_path_gain, b.min_path_gain) << "rg=" << rg;
    EXPECT_DOUBLE_EQ(a.total_area(), b.total_area()) << "rg=" << rg;
  }
}

TEST(Cuts, OracleOptimumNeverCutOff) {
  // Differential audit against the independent exhaustive oracle: on small
  // random instances the cut-enabled ILP must land exactly on the oracle's
  // optimal area, and its decoded selection must pass the oracle's
  // feasibility checker.
  for (const std::uint64_t seed : {11u, 23u, 58u}) {
    workloads::RandomWorkloadParams p;
    p.call_sites = 10;
    p.leaf_functions = 4;
    p.ips = 6;
    const workloads::Workload w = workloads::random_workload(p, seed);
    select::Flow flow(w.module, w.library);
    const std::int64_t gmax = flow.max_feasible_gain();
    for (const std::int64_t rg : {gmax / 3, (2 * gmax) / 3, gmax}) {
      const select::Selection sel = flow.select(rg, {});  // cuts on by default
      const oracle::OracleResult ref = oracle::exhaustive_select(
          flow.imp_database(), flow.library(), flow.entry_cdfg(), flow.paths(), rg);
      ASSERT_TRUE(ref.exhausted) << "seed=" << seed << " rg=" << rg;
      ASSERT_EQ(sel.feasible, ref.feasible) << "seed=" << seed << " rg=" << rg;
      if (!ref.feasible) continue;
      EXPECT_NEAR(sel.total_area(), ref.total_area, 1e-6)
          << "seed=" << seed << " rg=" << rg
          << ": a cut (or the search) lost the oracle optimum";
      EXPECT_EQ(oracle::check_selection(flow.imp_database(), flow.entry_cdfg(),
                                        flow.paths(), rg, sel.chosen),
                "")
          << "seed=" << seed << " rg=" << rg;
    }
  }
}

}  // namespace
}  // namespace partita::ilp
