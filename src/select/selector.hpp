// The optimal S-instruction generation problem as a 0/1 ILP (Section 4).
//
// Decision variables:
//   x_ij = 1 iff IMP_ij implements SC_i   (one binary per database IMP)
//   z_k  = 1 iff IP k is instantiated     (fixed-charge)
//
// Constraints:
//   Eq. 1   sum_j x_ij <= 1                       per s-call
//   Eq. 2   sum_{SC_i on P} sum_j g_ij x_ij >= T   on every execution path P,
//           where g_ij = gain_per_exec(IMP_ij) * loop frequency of SC_i.
//           It is built as a worst-path tree: one requirement row
//           sum(straight-line terms) + sum y_c >= T, and per conditional c
//           a continuous y_c with one row y_c <= (arm gain) per arm, so
//           y_c is at most the min over c's arms. The tree covers every
//           path, however many conditionals there are (docs/ilp_solver.md,
//           "Eq. 2 as a worst-path tree"). The paper allows a T_k per path;
//           this system takes one uniform T. The requirement row is built
//           whatever the gain; a T <= 0 gets a never-binding floor as its
//           RHS.
//   FC      sum_{ij : s_ijk=1} x_ij <= M_k z_k    fixed charge, M_k = number
//           of distinct s-calls with an IMP on IP k
//   P1      x_iA = x_jB for matching IMPs of s-calls to the same function
//           (Problem 1 only: same function => same implementation)
//   SC-PC   x_A + x_B <= 1 when IMP-A's parallel code contains SC_m's
//           software body and IMP-B implements SC_m (Problem 2)
//
// Objective: minimize  sum_k a_k z_k + sum_ij c_ij x_ij   (Eq. 3)
//
// Re-entrancy: a Selector is immutable after construction -- select(),
// select_batch(), build_model() and max_feasible_gain() are const, build
// every model and solver state locally, and share nothing mutable between
// calls. Concurrent select() calls on one Selector (or one Flow) from
// different threads are safe and return bit-identical results for identical
// arguments; the solve service's worker pool relies on this. The only global
// the solve path touches is the test-only support::FaultInjector, which is
// itself thread-safe.
#pragma once

#include <functional>
#include <optional>

#include "cdfg/paths.hpp"
#include "ilp/branch_bound.hpp"
#include "select/selection.hpp"

namespace partita::select {

struct SelectOptions {
  /// Problem 2 (default): s-calls to the same function may differ, SC-PC
  /// conflict rows enforce the selection rule. Problem 1: same function =>
  /// same implementation, PC-with-software-s-call IMPs are excluded.
  bool problem2 = true;
  /// Optional IMP filter: rejected IMPs are forced to 0 (used by the
  /// prior-art baseline and the interface ablations).
  std::function<bool(const isel::Imp&)> imp_filter;
  /// Optional power budget: sum of IP power (once per instantiated IP) and
  /// interface power of the selected IMPs must stay below this.
  std::optional<double> max_power;
  ilp::IlpOptions ilp;
};

class Selector {
 public:
  Selector(const isel::ImpDatabase& db, const iplib::IpLibrary& lib,
           const cdfg::Cdfg& entry_cdfg, const std::vector<cdfg::ExecPath>& paths)
      : db_(db), lib_(lib), entry_cdfg_(entry_cdfg), paths_(paths),
        tree_(cdfg::conditional_tree(entry_cdfg)) {}

  /// Solves with the required gain T = required_gain on every path: a
  /// one-item select_batch.
  Selection select(std::int64_t required_gain, const SelectOptions& opt = {}) const;

  /// Called once per batch item, in index order and before any solve, with
  /// (item index, that item's solver options); lets callers install
  /// per-item cancel tokens or budgets without giving up the shared
  /// amortization context.
  using BatchItemHook = std::function<void(std::size_t, ilp::IlpOptions&)>;

  /// Batch solve: one Selection per uniform required gain, amortizing the
  /// model build, the presolve clique table, its lifted cliques and the root
  /// LP basis across items (see ilp::BatchContext). Items are solved in
  /// descending order of gain with carried search state, so each starts
  /// from the previous (harder) item's optimum; results come back in index
  /// order. Results are bit-identical to calling select() once
  /// per gain -- the model is built a single time and only the gain-row RHS
  /// is retargeted between items, and every reused artifact is
  /// answer-neutral for a completed search under canonical tie-breaking. A
  /// truncated (not cancelled) item that started from carried state is
  /// re-solved from a fresh context, so it answers as a standalone solve.
  std::vector<Selection> select_batch(const std::vector<std::int64_t>& required_gains,
                                      const SelectOptions& opt = {},
                                      const BatchItemHook& per_item = {}) const;

  /// Seeded single solve for the cross-request cache: a one-item ladder
  /// through the same core as select_batch, starting from the artifacts in
  /// `batch` (non-null; see ilp::BatchContext) and leaving this solve's
  /// there. Every solve under one SelectOptions builds one model layout,
  /// whatever the gain, so artifacts from a previous solve under the same
  /// options stay valid; a context from other options or another workload
  /// must not be passed in. A seeded search that truncates is redone from a
  /// fresh context (setting `*redone_cold`, when given), so the answer is
  /// bit-identical to an unseeded one. `required_gains` holds one uniform
  /// gain per path (path_count() entries).
  Selection select_seeded(const std::vector<std::int64_t>& required_gains,
                          const SelectOptions& opt, ilp::BatchContext* batch,
                          bool* redone_cold = nullptr) const;

  /// Number of execution paths: the length build_model and select_seeded
  /// expect of their (uniform) gains vector.
  std::size_t path_count() const { return paths_.size(); }

  /// Exposes the built ILP (for tests and debugging dumps) at the uniform
  /// gain that `required_gains` (path_count() equal entries) holds. Eq. 2 is
  /// the worst-path tree; a non-positive gain keeps its row, with a
  /// never-binding floor as the RHS.
  ilp::Model build_model(const std::vector<std::int64_t>& required_gains,
                         const SelectOptions& opt) const;

  /// Digest of everything a decoded Selection reports that is NOT a function
  /// of the ILP's mathematical content: the column -> (s-call, IP, interface)
  /// identity map and the per-IP area/power the degradation ladder sums. Two
  /// specs can build bit-identical models (e.g. duplicate-parameter IPs
  /// swapped by a column permutation) yet decode the same optimal vector to
  /// different IP indices, so a key built from ilp::fingerprint_model alone
  /// would serve one's answer for the other.
  std::uint64_t answer_map_digest() const;

  /// The largest uniform required gain that stays feasible: maximizes an
  /// auxiliary G_min variable with  (worst path's gain) >= G_min  under the
  /// full constraint system. Returns 0 when no IMP exists.
  std::int64_t max_feasible_gain(const SelectOptions& opt = {}) const;

 private:
  /// build_model with Eq. 2's requirement row at RHS 0, for the caller to
  /// retarget; `*gain_row` receives that row's index.
  ilp::Model build_form(const SelectOptions& opt, ilp::RowIndex* gain_row) const;

  /// The one gain a build_model/select_seeded vector holds: asserts that it
  /// has path_count() equal entries.
  std::int64_t uniform_gain(const std::vector<std::int64_t>& required_gains) const;

  /// The one ladder core behind every selection (select, select_batch,
  /// select_seeded): builds the model once, solves the gains hardest-first
  /// through `ctx`, and redoes from a fresh context any truncated item that
  /// started from carried state (setting `*redone`, when given).
  std::vector<Selection> solve_ladder(const std::vector<std::int64_t>& required_gains,
                                      const SelectOptions& opt,
                                      const BatchItemHook& per_item,
                                      ilp::BatchContext& ctx, bool* redone) const;

  /// Decodes one ladder item's IlpResult into a Selection: degradation
  /// ladder, greedy fallback, rung labeling.
  Selection finish_selection(const ilp::IlpResult& r, std::int64_t required_gain,
                             const SelectOptions& opt) const;

  const isel::ImpDatabase& db_;
  const iplib::IpLibrary& lib_;
  const cdfg::Cdfg& entry_cdfg_;
  const std::vector<cdfg::ExecPath>& paths_;
  const cdfg::CondTree tree_;
};

}  // namespace partita::select
