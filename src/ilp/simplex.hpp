// Bounded-variable revised simplex with sparse column storage.
//
// Solves the LP relaxation of a Model (binary variables relaxed to their
// [lower, upper] interval, optionally tightened per call -- that is how the
// branch & bound fixes variables). Unlike the old dense-tableau code this
// keeps the constraint matrix fixed and sparse (built once per model) and
// maintains a *reduced* basis inverse: only the k x k matrix over the basic
// structural columns and their active rows (k <= min(n, m)), since every
// other basic column is a unit logical. Models with far more rows than
// variables thus pivot in O(k^2), not O(m^2):
//
//   * every row i gets one logical column with coefficient +1 whose bounds
//     encode the sense (<=: [0,inf); >=: (-inf,0]; =: [0,0]), so the
//     all-logical basis is the identity and no artificial columns exist;
//   * phase 1 runs the primal simplex on a dynamic infeasibility objective
//     (cost -1/+1 on basic variables below/above their bounds) until the
//     basic solution is within bounds;
//   * phase 2 prices the real objective; nonbasic variables rest at either
//     bound (upper-bound technique), so binaries do not explode the row
//     count;
//   * Dantzig pricing with a Bland's-rule fallback after a stall, which
//     guarantees termination; the inverse is refactorized periodically for
//     numerical hygiene;
//   * a bounded dual simplex restores primal feasibility from an imported
//     basis, which is how branch & bound warm-starts a child node from its
//     parent's optimal basis after one bound change instead of re-running
//     phase 1 + 2 from scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "ilp/model.hpp"

namespace partita::ilp {

enum class LpStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

/// Position of one column (structural variables first, then one logical
/// column per row) relative to a basis.
enum class BasisStatus : std::uint8_t { kAtLower, kAtUpper, kBasic };

/// Compact basis snapshot: one status per structural and logical column.
/// Exported after every optimal solve; importing it into a later solve over
/// the same model (with different bounds) warm-starts that solve.
struct Basis {
  std::vector<BasisStatus> status;
  bool empty() const { return status.empty(); }
};

struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  /// Objective in the model's own sense (max problems report the max value).
  double objective = 0.0;
  /// Values of the structural (model) variables.
  std::vector<double> x;
  /// Executed simplex pivots / bound flips (optimality-detection passes that
  /// move nothing are not counted).
  int iterations = 0;
  /// True when this solve started from an imported basis (and did not have
  /// to fall back to a cold start).
  bool warm_started = false;
  /// Columns priced through the bounded candidate list (kCandidateList only;
  /// full refresh scans are not counted here).
  long long candidate_scans = 0;
  /// Full-scan refreshes of the candidate list (kCandidateList only). Each
  /// refresh is equivalent to one Dantzig pricing pass.
  int pricing_refreshes = 0;
};

/// Entering-column pricing strategy of the primal simplex.
enum class PricingMode : std::uint8_t {
  /// Full Dantzig scan over every nonbasic column each iteration.
  kDantzig,
  /// Bounded candidate list, refreshed by a full scan on exhaustion. Same
  /// optimum (the list only restricts *which* improving column enters, and
  /// optimality is only ever declared from a full scan), far fewer column
  /// prices per iteration on the wide selection models.
  kCandidateList,
};

struct LpOptions {
  /// Entering-column pricing. The Bland's-rule anti-cycling fallback always
  /// prices with a full lowest-index scan regardless of this setting.
  PricingMode pricing = PricingMode::kCandidateList;
};

/// Pivot cap per solve; a solve that reaches it ends kIterationLimit.
inline constexpr int kMaxLpIterations = 20000;
/// Reduced-cost optimality and ratio-test tie tolerance.
inline constexpr double kLpEps = 1e-9;
/// Candidate-list capacity for PricingMode::kCandidateList.
inline constexpr int kCandidateListSize = 24;
/// Non-improving iterations tolerated before switching to Bland's rule
/// (also bounds the dual simplex's degenerate-step tolerance).
inline constexpr int kStallLimit = 64;

/// Reusable revised-simplex engine for one Model.
///
/// Construction transposes the model into sparse columns once; individual
/// solves only vary the variable bounds, so branch & bound keeps one
/// instance per worker thread for all of its node relaxations.
class SimplexSolver {
 public:
  explicit SimplexSolver(const Model& model);
  ~SimplexSolver();
  SimplexSolver(const SimplexSolver&) = delete;
  SimplexSolver& operator=(const SimplexSolver&) = delete;

  /// Cold solve: phase 1 + phase 2 primal simplex from the all-logical basis.
  LpResult solve(const std::vector<double>& lower, const std::vector<double>& upper,
                 const LpOptions& opt = {});

  /// Warm solve: import `basis`, restore primal feasibility with the dual
  /// simplex, then finish with primal phase 2. Falls back to a cold solve
  /// when the basis cannot be refactorized.
  LpResult solve_warm(const std::vector<double>& lower, const std::vector<double>& upper,
                      const Basis& basis, const LpOptions& opt = {});

  /// Basis snapshot of the most recent solve that ended kOptimal. Empty
  /// before the first optimal solve.
  const Basis& last_basis() const { return last_basis_; }

 private:
  class Impl;
  Impl* impl_;
  Basis last_basis_;
};

/// Solves the LP relaxation with the model's own bounds.
LpResult solve_lp(const Model& model, const LpOptions& opt = {});

/// Solves with per-variable bound overrides (sizes must equal var_count()).
/// Used by branch & bound to fix binaries to 0 or 1.
LpResult solve_lp(const Model& model, const std::vector<double>& lower,
                  const std::vector<double>& upper, const LpOptions& opt = {});

}  // namespace partita::ilp
