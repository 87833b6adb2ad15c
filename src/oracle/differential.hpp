// Differential harness: exhaustive oracle vs. the ILP selection pipeline.
//
// For instances small enough to enumerate, the oracle's optimal area and the
// selector's `optimal`-rung area must agree *exactly* (within floating-point
// tolerance); the selector's chosen assignment must additionally pass the
// oracle's independent feasibility audit. For larger instances the harness
// falls back to a sandwich check: LP-relaxation objective <= ILP area <=
// greedy area.
#pragma once

#include <cstdint>
#include <string>

#include "oracle/exhaustive.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita::oracle {

struct DiffOptions {
  bool problem2 = true;
};

/// Required gain as a fraction of the instance's max feasible gain, used
/// when the spec does not pin one (required_gain == 0). A mid fraction
/// keeps the constraint binding without forcing infeasibility.
inline constexpr double kRgFraction = 0.6;

struct DiffResult {
  /// Oracle and ILP agree (both infeasible, or equal areas + audited ILP
  /// assignment). False means a real divergence, described in `detail`.
  bool ok = false;
  /// The oracle hit its enumeration guard; no verdict (ok stays false but
  /// the instance should be skipped, not reported).
  bool skipped = false;
  std::int64_t required_gain = 0;
  bool oracle_feasible = false;
  bool ilp_feasible = false;
  double oracle_area = 0.0;
  double ilp_area = 0.0;
  /// The selector's degradation rung name ("optimal" expected here).
  std::string rung;
  std::string detail;
};

/// Exact differential check of one workload. The verdict only applies when
/// the selector answers on the `optimal` rung -- degraded answers are
/// reported as failures (tests pick instances small enough not to degrade).
DiffResult differential_check(const workloads::Workload& wl, const DiffOptions& opt = {});

/// Renders the spec and runs differential_check; the spec's required_gain
/// (when non-zero) overrides the kRgFraction derivation.
DiffResult differential_check_spec(const workloads::InstanceSpec& spec,
                                   const DiffOptions& opt = {});

struct SandwichResult {
  bool ok = false;
  std::int64_t required_gain = 0;
  bool feasible = false;
  double lp_bound = 0.0;     // LP-relaxation objective (lower bound)
  double ilp_area = 0.0;
  double greedy_area = 0.0;  // feasible upper bound (when greedy succeeds)
  bool greedy_feasible = false;
  std::string detail;
};

/// Bound-sandwich check for instances too large to enumerate:
/// lp_bound - tol <= ilp_area, and ilp_area <= greedy_area + tol when the
/// greedy baseline finds a feasible point. The ILP answer must also pass the
/// oracle's independent feasibility audit.
SandwichResult sandwich_check(const workloads::Workload& wl, const DiffOptions& opt = {});

}  // namespace partita::oracle
