// Unit and property tests for the 0/1 ILP solver (model, simplex, B&B).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ilp/branch_bound.hpp"
#include "ilp/model.hpp"
#include "ilp/simplex.hpp"

namespace partita::ilp {
namespace {

TEST(Model, MergesDuplicateTerms) {
  Model m;
  const VarIndex x = m.add_binary("x");
  m.add_row("r", {{x, 1.0}, {x, 2.0}}, RowSense::kLessEqual, 2.0);
  ASSERT_EQ(m.row(0).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(m.row(0).terms[0].coeff, 3.0);
}

TEST(Model, FeasibilityChecker) {
  Model m;
  const VarIndex x = m.add_binary("x");
  const VarIndex y = m.add_binary("y");
  m.add_row("r1", {{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 1.0);
  EXPECT_TRUE(m.is_feasible({1.0, 0.0}));
  EXPECT_FALSE(m.is_feasible({1.0, 1.0}));
  EXPECT_FALSE(m.is_feasible({0.5, 0.0}));  // binary must be integral
}

// --- pure LP ----------------------------------------------------------------

TEST(Simplex, SolvesTwoVarLp) {
  // max 3x + 2y st x + y <= 4, x <= 2, x,y in [0, 10]: optimum x=2, y=2 -> 10.
  Model m;
  m.set_sense(Sense::kMaximize);
  const VarIndex x = m.add_continuous("x", 0, 10, 3.0);
  const VarIndex y = m.add_continuous("y", 0, 10, 2.0);
  m.add_row("cap", {{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 4.0);
  m.add_row("xcap", {{x, 1.0}}, RowSense::kLessEqual, 2.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-7);
  EXPECT_NEAR(r.x[x], 2.0, 1e-7);
  EXPECT_NEAR(r.x[y], 2.0, 1e-7);
}

TEST(Simplex, HandlesGreaterEqualAndEquality) {
  // min x + y st x + 2y >= 4, x - y = 1 -> y=1, x=2, obj 3.
  Model m;
  const VarIndex x = m.add_continuous("x", 0, kInfinity, 1.0);
  const VarIndex y = m.add_continuous("y", 0, kInfinity, 1.0);
  m.add_row("ge", {{x, 1.0}, {y, 2.0}}, RowSense::kGreaterEqual, 4.0);
  m.add_row("eq", {{x, 1.0}, {y, -1.0}}, RowSense::kEqual, 1.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-7);
  EXPECT_NEAR(r.x[x], 2.0, 1e-7);
  EXPECT_NEAR(r.x[y], 1.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  const VarIndex x = m.add_continuous("x", 0, 1, 1.0);
  m.add_row("lo", {{x, 1.0}}, RowSense::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const VarIndex x = m.add_continuous("x", 0, kInfinity, 1.0);
  const VarIndex y = m.add_continuous("y", 0, kInfinity, 0.0);
  m.add_row("r", {{x, 1.0}, {y, -1.0}}, RowSense::kLessEqual, 1.0);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, RespectsUpperBoundsWithoutRows) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const VarIndex x = m.add_continuous("x", 0, 7, 1.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-7);
  EXPECT_NEAR(r.x[x], 7.0, 1e-7);
}

TEST(Simplex, BoundOverridesFixVariables) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const VarIndex x = m.add_binary("x", 5.0);
  const VarIndex y = m.add_binary("y", 3.0);
  m.add_row("r", {{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 2.0);
  const LpResult r = solve_lp(m, {0.0, 0.0}, {0.0, 1.0});  // x fixed to 0
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-7);
  EXPECT_NEAR(r.x[x], 0.0, 1e-9);
}

TEST(Simplex, EmptyDomainIsInfeasible) {
  Model m;
  m.add_binary("x", 1.0);
  EXPECT_EQ(solve_lp(m, {1.0}, {0.0}).status, LpStatus::kInfeasible);
}

// --- ILP ---------------------------------------------------------------------

TEST(BranchBound, SolvesSmallKnapsack) {
  // max 10a + 13b + 7c st 3a + 4b + 2c <= 6 -> a + c (17) vs b + c (20): b+c.
  Model m;
  m.set_sense(Sense::kMaximize);
  const VarIndex a = m.add_binary("a", 10);
  const VarIndex b = m.add_binary("b", 13);
  const VarIndex c = m.add_binary("c", 7);
  m.add_row("w", {{a, 3}, {b, 4}, {c, 2}}, RowSense::kLessEqual, 6);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.x[a], 0.0, 1e-6);
  EXPECT_NEAR(r.x[b], 1.0, 1e-6);
  EXPECT_NEAR(r.x[c], 1.0, 1e-6);
}

TEST(BranchBound, MinimizationWithCover) {
  // min 2a + 3b + 4c st a + b >= 1, b + c >= 1, a + c >= 1: pick a + c = 6?
  // a+b = 5, but then b+c unmet unless b covers it: a=1,b=1 -> 5 covers all.
  Model m;
  const VarIndex a = m.add_binary("a", 2);
  const VarIndex b = m.add_binary("b", 3);
  const VarIndex c = m.add_binary("c", 4);
  m.add_row("r1", {{a, 1}, {b, 1}}, RowSense::kGreaterEqual, 1);
  m.add_row("r2", {{b, 1}, {c, 1}}, RowSense::kGreaterEqual, 1);
  m.add_row("r3", {{a, 1}, {c, 1}}, RowSense::kGreaterEqual, 1);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);
}

TEST(BranchBound, InfeasibleIlp) {
  Model m;
  const VarIndex a = m.add_binary("a", 1);
  const VarIndex b = m.add_binary("b", 1);
  m.add_row("need3", {{a, 1}, {b, 1}}, RowSense::kGreaterEqual, 3);
  EXPECT_EQ(solve_ilp(m).status, IlpStatus::kInfeasible);
}

TEST(BranchBound, FixedChargeLinearization) {
  // The paper's Eq. 3 pattern: z=1 iff any user x_i selected.
  // min 10z + 1*x1 + 1*x2 st x1 + x2 <= 2z, x1 + x2 >= 1.
  Model m;
  const VarIndex z = m.add_binary("z", 10);
  const VarIndex x1 = m.add_binary("x1", 1);
  const VarIndex x2 = m.add_binary("x2", 1);
  m.add_row("fc", {{x1, 1}, {x2, 1}, {z, -2}}, RowSense::kLessEqual, 0);
  m.add_row("use", {{x1, 1}, {x2, 1}}, RowSense::kGreaterEqual, 1);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 11.0, 1e-6);
  EXPECT_NEAR(r.x[z], 1.0, 1e-6);
}

TEST(BranchBound, EqualityConstrainedAssignment) {
  // Assign 2 tasks to 2 workers, each exactly once; costs force the
  // off-diagonal.
  Model m;
  const VarIndex x00 = m.add_binary("x00", 5);
  const VarIndex x01 = m.add_binary("x01", 1);
  const VarIndex x10 = m.add_binary("x10", 1);
  const VarIndex x11 = m.add_binary("x11", 5);
  m.add_row("t0", {{x00, 1}, {x01, 1}}, RowSense::kEqual, 1);
  m.add_row("t1", {{x10, 1}, {x11, 1}}, RowSense::kEqual, 1);
  m.add_row("w0", {{x00, 1}, {x10, 1}}, RowSense::kEqual, 1);
  m.add_row("w1", {{x01, 1}, {x11, 1}}, RowSense::kEqual, 1);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
  EXPECT_NEAR(r.x[x01], 1.0, 1e-6);
  EXPECT_NEAR(r.x[x10], 1.0, 1e-6);
}

// Property: on random knapsack-family instances the B&B optimum matches
// exhaustive enumeration.
class RandomIlpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomIlpProperty, MatchesBruteForce) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> coef(1, 20);
  std::uniform_int_distribution<int> nvars_d(2, 10);
  std::uniform_int_distribution<int> nrows_d(1, 5);
  std::uniform_int_distribution<int> sense_d(0, 2);

  const int n = nvars_d(rng);
  const int rows = nrows_d(rng);

  Model m;
  m.set_sense(GetParam() % 2 == 0 ? Sense::kMaximize : Sense::kMinimize);
  for (int j = 0; j < n; ++j) {
    m.add_binary("x" + std::to_string(j), coef(rng));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng() % 2) terms.push_back({static_cast<VarIndex>(j), double(coef(rng))});
    }
    if (terms.empty()) continue;
    double total = 0;
    for (const Term& t : terms) total += t.coeff;
    // RHS chosen so the row is restrictive but not trivially infeasible.
    const double rhs = std::floor(total / 2.0);
    const RowSense sense =
        sense_d(rng) == 0 ? RowSense::kLessEqual
                          : (sense_d(rng) == 1 ? RowSense::kGreaterEqual : RowSense::kLessEqual);
    m.add_row("r" + std::to_string(r), terms, sense, rhs);
  }

  // Brute force.
  bool any = false;
  double best = 0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = (mask >> j) & 1;
    if (!m.is_feasible(x)) continue;
    const double obj = m.objective_value(x);
    if (!any || (m.sense() == Sense::kMaximize ? obj > best : obj < best)) {
      best = obj;
      any = true;
    }
  }

  const IlpResult r = solve_ilp(m);
  if (!any) {
    EXPECT_EQ(r.status, IlpStatus::kInfeasible) << m.dump();
  } else {
    ASSERT_EQ(r.status, IlpStatus::kOptimal) << m.dump();
    EXPECT_NEAR(r.objective, best, 1e-6) << m.dump();
    EXPECT_TRUE(m.is_feasible(r.x));
  }
}

// Property: with canonical ties the answer is the lexicographically smallest
// optimal vector. Objectives drawn from {1, 2} over covering rows make ties
// common, and an integral node LP often lands on a tie that is not the
// lex-smallest one, so the search must keep splitting such nodes.
TEST_P(RandomIlpProperty, ReturnsLexSmallestOptimum) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 1000u);
  const int n = 4 + static_cast<int>(rng() % 7);  // 4..10 binaries
  Model m;
  for (int j = 0; j < n; ++j) m.add_binary("x" + std::to_string(j), 1.0 + rng() % 2);
  const int rows = 2 + static_cast<int>(rng() % 4);
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng() % 2) terms.push_back({static_cast<VarIndex>(j), 1.0 + rng() % 3});
    }
    if (terms.empty()) continue;
    m.add_row("cover" + std::to_string(r), terms, RowSense::kGreaterEqual,
              1.0 + rng() % 3);
  }

  // Brute force: ascending masks with bit j as x_j; keep the lex-smallest
  // (compared as vectors) among the cheapest feasible points.
  bool any = false;
  double best = 0;
  std::vector<double> best_x;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = (mask >> j) & 1;
    if (!m.is_feasible(x)) continue;
    const double obj = m.objective_value(x);
    if (!any || obj < best || (obj == best && x < best_x)) {
      best = obj;
      best_x = x;
      any = true;
    }
  }

  const IlpResult r = solve_ilp(m);
  if (!any) {
    EXPECT_EQ(r.status, IlpStatus::kInfeasible) << m.dump();
    return;
  }
  ASSERT_EQ(r.status, IlpStatus::kOptimal) << m.dump();
  EXPECT_EQ(r.x, best_x) << m.dump();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomIlpProperty, ::testing::Range(0, 60));

TEST(Simplex, BasisExportImportWarmStart) {
  // min x + 2y  s.t.  x + y >= 3,  x - y <= 1,  x,y in [0, 10].
  Model m;
  m.set_sense(Sense::kMinimize);
  const VarIndex x = m.add_continuous("x", 0.0, 10.0, 1.0);
  const VarIndex y = m.add_continuous("y", 0.0, 10.0, 2.0);
  m.add_row("r1", {{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 3.0);
  m.add_row("r2", {{x, 1.0}, {y, -1.0}}, RowSense::kLessEqual, 1.0);

  SimplexSolver solver(m);
  std::vector<double> lo{0.0, 0.0}, hi{10.0, 10.0};
  const LpResult cold = solver.solve(lo, hi);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_NEAR(cold.objective, 4.0, 1e-7);  // (x, y) = (2, 1)
  const Basis basis = solver.last_basis();
  ASSERT_FALSE(basis.empty());

  // Tighten x's domain (the branch & bound move) and re-solve from the
  // exported basis: the dual simplex must reach the new optimum.
  lo[0] = 3.0;
  const LpResult warm = solver.solve_warm(lo, hi, basis);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_NEAR(warm.objective, 7.0, 1e-7);  // (x, y) = (3, 2)

  SimplexSolver fresh(m);
  const LpResult check = fresh.solve(lo, hi);
  ASSERT_EQ(check.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, check.objective, 1e-7);
}

// Presolve and warm starts are pure accelerations: every combination must
// report the same status, objective, and (canonical) solution vector, and
// the stats must reflect which features actually ran.
TEST(BranchBound, OptionTogglesPreserveTheOptimum) {
  std::mt19937 rng(4242);
  std::uniform_int_distribution<int> coef(1, 20);
  std::uniform_int_distribution<int> nvars_d(3, 12);
  std::uniform_int_distribution<int> nrows_d(1, 6);

  for (int instance = 0; instance < 25; ++instance) {
    const int n = nvars_d(rng);
    const int rows = nrows_d(rng);
    Model m;
    m.set_sense(instance % 2 == 0 ? Sense::kMaximize : Sense::kMinimize);
    for (int j = 0; j < n; ++j) m.add_binary("x" + std::to_string(j), coef(rng));
    for (int r = 0; r < rows; ++r) {
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j) {
        if (rng() % 2) terms.push_back({static_cast<VarIndex>(j), double(coef(rng))});
      }
      if (terms.empty()) continue;
      double total = 0;
      for (const Term& t : terms) total += t.coeff;
      m.add_row("r" + std::to_string(r), terms,
                rng() % 2 ? RowSense::kLessEqual : RowSense::kGreaterEqual,
                std::floor(total / 2.0));
    }

    IlpResult reference;
    bool have_reference = false;
    for (const bool presolve : {true, false}) {
      for (const bool warm : {true, false}) {
        IlpOptions opt;
        opt.presolve = presolve;
        opt.warm_start = warm;
        const IlpResult r = solve_ilp(m, opt);
        // Presolve may prove infeasibility before any node is explored.
        if (r.status == IlpStatus::kOptimal) {
          EXPECT_GE(r.stats.nodes, 1) << m.dump();
        }
        if (!warm) {
          EXPECT_EQ(r.stats.warm_starts, 0) << m.dump();
        }
        if (!presolve) {
          EXPECT_EQ(r.stats.presolve_fixed, 0) << m.dump();
          EXPECT_EQ(r.stats.presolve_rounds, 0) << m.dump();
        }
        if (!have_reference) {
          reference = r;
          have_reference = true;
          continue;
        }
        EXPECT_EQ(r.status, reference.status) << m.dump();
        if (r.status == IlpStatus::kOptimal) {
          EXPECT_NEAR(r.objective, reference.objective, 1e-6) << m.dump();
          ASSERT_EQ(r.x.size(), reference.x.size());
          for (std::size_t j = 0; j < r.x.size(); ++j) {
            EXPECT_NEAR(r.x[j], reference.x[j], 1e-6)
                << "var " << j << " differs (presolve=" << presolve
                << " warm=" << warm << ")\n"
                << m.dump();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace partita::ilp
