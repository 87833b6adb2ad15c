// Selection results: the decoded solution of the optimal S-instruction
// generation problem, in the shape of the paper's result tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdfg/paths.hpp"
#include "ilp/branch_bound.hpp"
#include "isel/enumerate.hpp"

namespace partita::select {

/// Which rung of the staged degradation ladder produced a Selection. The
/// ladder runs full ILP -> truncated ILP with a proven optimality gap ->
/// greedy baseline -> structured infeasibility report; every answer is
/// labeled honestly so callers (CLI exit codes, export JSON, chip report)
/// can tell a proven optimum from a budget-limited best effort.
enum class DegradationRung : std::uint8_t {
  kOptimal,         // ILP proved optimality
  kGapBounded,      // truncated ILP incumbent, optimality_gap bounds the loss
  kGreedyFallback,  // greedy baseline answered (ILP truncated without a
                    // usable incumbent, or greedy beat the incumbent)
  kInfeasible,      // no rung produced a feasible selection
};

/// Display name: "optimal", "gap-bounded", "greedy-fallback", "infeasible".
const char* to_string(DegradationRung r);

/// The decoded outcome of one selection run (one RG row of Tables 1-3).
struct Selection {
  bool feasible = false;

  /// Indices into the IMP database of the selected IMPs, one per implemented
  /// s-call, ordered by s-call id.
  std::vector<isel::ImpIndex> chosen;

  /// Distinct IPs instantiated and their summed area (each counted once).
  std::vector<iplib::IpId> ips_used;
  double ip_area = 0.0;
  /// Summed interface area of the selected IMPs (c_ij).
  double interface_area = 0.0;
  double total_area() const { return ip_area + interface_area; }

  /// Power of the accelerator subsystem: distinct IPs (once each) plus the
  /// selected interfaces.
  double ip_power = 0.0;
  double interface_power = 0.0;
  double total_power() const { return ip_power + interface_power; }

  /// Number of S-instructions after merging: s-calls implemented with the
  /// same IP and the same interface type share one S-instruction (column S).
  int s_instructions = 0;
  /// Number of s-calls implemented with IPs (column O).
  int selected_scalls = 0;

  /// Guaranteed gain: the minimum over all execution paths of the achieved
  /// gain (column G is reported against this).
  std::int64_t min_path_gain = 0;

  /// Solver statistics of the solve that answered.
  ilp::SolverStats solver;

  /// True when the branch & bound hit its node limit or resource budget
  /// before proving optimality; the selection is then the best incumbent
  /// (or the greedy fallback if that was better) and optimality_gap bounds
  /// how far from the optimum it can be. solver.termination says which
  /// limit struck.
  bool truncated = false;
  /// True when the greedy baseline replaced (or supplied) the solution after
  /// a truncation.
  bool greedy_fallback = false;
  /// Relative gap |area - best_bound| / max(1, |area|); 0 when optimal.
  double optimality_gap = 0.0;

  /// Which degradation rung answered (see DegradationRung).
  DegradationRung rung = DegradationRung::kInfeasible;
  /// One human-readable line on *why* a degraded rung answered ("" when
  /// optimal): the resource that struck, or the infeasibility evidence.
  std::string degradation_detail;

  /// "SC13: IP12,IF0,115037,3"-style summary, paper notation.
  std::string describe(const isel::ImpDatabase& db, const iplib::IpLibrary& lib) const;
};

/// Canonical one-line signature of everything solution-defining in a
/// Selection: feasibility, the chosen IMP set, the instantiated IPs, the
/// exact area/power doubles (%.17g -- bit-faithful), S/O counts, min-path
/// gain and the answering rung. Solver observability counters are
/// deliberately excluded: two solves that found the SAME answer by a
/// different search (e.g. a warm-started one) signature equally. The
/// cache-consistency harness, the soak test and the bench answer gate all
/// compare cached/seeded answers to cold solves through this.
std::string solution_signature(const Selection& sel);

/// Computes the derived fields (areas, S, O, min-path gain) for a set of
/// chosen IMPs; `tree` is entry_cdfg's. Used by the ILP and the baselines.
Selection decode_selection(const std::vector<isel::ImpIndex>& chosen,
                           const isel::ImpDatabase& db, const iplib::IpLibrary& lib,
                           const cdfg::Cdfg& entry_cdfg, const cdfg::CondTree& tree);

/// Achieved gain of a chosen IMP set per scope of `tree`, folded bottom-up:
/// entry s is the worst gain over the paths inside s's subtree -- the scope's
/// own chosen gains plus, per conditional directly in it, its smaller arm's
/// entry. Entry 0 is the worst path's gain, over every path.
std::vector<std::int64_t> worst_scope_gains(const std::vector<isel::ImpIndex>& chosen,
                                            const isel::ImpDatabase& db,
                                            const cdfg::Cdfg& entry_cdfg,
                                            const cdfg::CondTree& tree);

/// Achieved gain of a chosen IMP set on one execution path: the sum of
/// per-execution gains times the loop frequency of each s-call node on the
/// path.
std::int64_t path_gain(const std::vector<isel::ImpIndex>& chosen,
                       const isel::ImpDatabase& db, const cdfg::Cdfg& entry_cdfg,
                       const cdfg::ExecPath& path);

}  // namespace partita::select
