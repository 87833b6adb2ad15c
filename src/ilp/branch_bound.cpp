#include "ilp/branch_bound.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>

#include "ilp/cuts.hpp"
#include "ilp/presolve.hpp"
#include "support/assert.hpp"
#include "support/fault_injection.hpp"

namespace partita::ilp {

const char* to_string(TerminationReason r) {
  switch (r) {
    case TerminationReason::kCompleted:
      return "completed";
    case TerminationReason::kNodeLimit:
      return "node-limit";
    case TerminationReason::kDeadline:
      return "deadline";
    case TerminationReason::kMemoryLimit:
      return "memory-limit";
    case TerminationReason::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One search-tree node in the arena. A node does not copy its subproblem's
/// bound vectors: it stores only the fixings it adds on top of its parent
/// (a range in the shared fix arena), and the full bounds are reconstructed
/// by walking the parent chain.
struct Node {
  double bound = -kInfinity;  // internal (minimization) bound from the parent LP
  std::int32_t parent = -1;
  std::int32_t basis_id = -1;  // parent's optimal basis (arena id), -1 = cold
  std::uint32_t first_fix = 0;
  std::uint32_t fix_count = 0;
  VarIndex branch_var = 0;
  float branch_frac = 0.0f;  // fractional part of branch_var at the parent
  bool branch_up = false;    // this node fixed branch_var to 1
  bool has_parent_obj = false;
  double parent_obj = 0.0;
};

struct HeapEntry {
  double bound;
  std::int32_t id;
};

/// Min-heap on (bound, id): smaller bound first, then smaller id -- a total
/// deterministic order.
struct HeapCmp {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.id > b.id;
  }
};

class Solver {
 public:
  Solver(const Model& model, const IlpOptions& opt, BatchContext& batch)
      : model_(model),
        opt_(opt),
        batch_(batch),
        clock_(opt.budget.clock ? *opt.budget.clock : support::Clock::system()) {
    sign_ = model.sense() == Sense::kMinimize ? 1.0 : -1.0;
    root_lo_.resize(model.var_count());
    root_hi_.resize(model.var_count());
    for (std::size_t j = 0; j < model.var_count(); ++j) {
      root_lo_[j] = model.var(static_cast<VarIndex>(j)).lower;
      root_hi_[j] = model.var(static_cast<VarIndex>(j)).upper;
    }
    const std::size_t n = model.var_count();
    pc_sum_[0].assign(n, 0.0);
    pc_sum_[1].assign(n, 0.0);
    pc_cnt_[0].assign(n, 0);
    pc_cnt_[1].assign(n, 0);
    // Cross-request carry: adopt the neighbor's pseudo-cost tables as the
    // branching prior. Pure search-order heuristics -- the canonical optimum
    // of a completed search is unchanged (see BatchContext).
    if (batch_.carry_search_state && batch_.has_search_state &&
        batch_.pc_sum[0].size() == n && batch_.pc_sum[1].size() == n &&
        batch_.pc_cnt[0].size() == n && batch_.pc_cnt[1].size() == n) {
      pc_sum_[0] = batch_.pc_sum[0];
      pc_sum_[1] = batch_.pc_sum[1];
      pc_cnt_[0] = batch_.pc_cnt[0];
      pc_cnt_[1] = batch_.pc_cnt[1];
      ++result_.stats.seeded_artifacts;
    }
  }

  IlpResult run() {
    const Clock::time_point t0 = Clock::now();
    budget_start_micros_ = clock_.now_micros();

    // ---- root presolve -----------------------------------------------------
    if (opt_.presolve) {
      const Clock::time_point tp = Clock::now();
      // Batch amortization: the clique table only depends on row structure
      // (not on the retargeted gain RHS values), so later batch items reuse
      // the first item's table instead of re-scanning every row.
      const bool reuse_cliques = batch_.has_cliques;
      pre_ = presolve(model_, root_lo_, root_hi_, /*extract_cliques=*/!reuse_cliques);
      if (reuse_cliques) {
        pre_.cliques = batch_.cliques;
        pre_.var_cliques = batch_.var_cliques;
        ++result_.stats.batch_hits;
      }
      result_.stats.presolve_seconds = seconds_since(tp);
      result_.stats.presolve_fixed = pre_.fixed_vars;
      result_.stats.presolve_rounds = pre_.rounds;
      if (pre_.infeasible) {
        finish(TerminationReason::kCompleted, t0);  // no incumbent => kInfeasible
        return result_;
      }
      root_lo_ = pre_.lower;
      root_hi_ = pre_.upper;
      if (!reuse_cliques) {
        batch_.cliques = pre_.cliques;
        batch_.var_cliques = pre_.var_cliques;
        batch_.has_cliques = true;
      }
    } else {
      pre_.var_cliques.assign(model_.var_count(), {});
    }

    // ---- root relaxation: batch warm start + cutting planes -----------------
    search_model_ = &model_;
    if (!root_relaxation()) {
      finish(TerminationReason::kCompleted, t0);  // root LP proves infeasible
      return result_;
    }

    // ---- seeded incumbent (cross-request carry) -----------------------------
    // The neighbor's best solution becomes the starting incumbent *iff* it is
    // feasible for this model -- offer_incumbent re-audits it, so a seed
    // invalidated by an RHS retarget is dropped, never served.
    if (batch_.carry_search_state && batch_.has_incumbent &&
        batch_.incumbent.size() == model_.var_count()) {
      offer_incumbent(batch_.incumbent);
      if (has_incumbent_) ++result_.stats.seeded_artifacts;
    }

    // ---- node LP and root node --------------------------------------------
    lane_.lp = std::make_unique<SimplexSolver>(*search_model_);
    lane_.lo.resize(model_.var_count());
    lane_.hi.resize(model_.var_count());

    nodes_.push_back(Node{});
    if (opt_.warm_start && !root_basis_.empty() &&
        root_basis_.status.size() ==
            search_model_->var_count() + search_model_->row_count()) {
      // Node 0 re-prices from the already-optimal root basis instead of
      // re-running phase 1 + 2 on the relaxation just solved above.
      nodes_[0].basis_id = store_basis(std::move(root_basis_));
      basis_refs_[nodes_[0].basis_id] = 1;
    }
    push_open(0);

    // ---- wave loop ---------------------------------------------------------
    // Each wave solves exactly one node LP. The top of each iteration is a
    // *wave boundary*: the only point where the budget is consulted, so
    // cancellation never interrupts a node LP and repeated runs stop at the
    // same wave.
    TerminationReason stop = TerminationReason::kCompleted;
    while (true) {
      if (const auto over = budget_exceeded()) {
        stop = *over;
        break;
      }
      if (result_.stats.nodes >= opt_.max_nodes) {
        stop = TerminationReason::kNodeLimit;
        break;
      }
      if (!next_node()) break;  // no plunge continuation and the heap is empty
      solve_node();
      ++result_.stats.waves;
    }

    finish(stop, t0);
    return result_;
  }

 private:
  // --- root relaxation + cutting planes -------------------------------------

  void accumulate_root_lp(const LpResult& lp) {
    result_.stats.lp_iterations += lp.iterations;
    result_.stats.root_lp_iterations += lp.iterations;
    result_.stats.pricing_candidate_scans += lp.candidate_scans;
    result_.stats.pricing_refreshes += lp.pricing_refreshes;
  }

  /// Solves the root relaxation: warm-starts from the context's previous
  /// root basis, leaves this one there, separates root cuts (when enabled)
  /// into an extended copy of the model (the *search* model: same
  /// variables, extra <= rows), and leaves the final root basis for node 0.
  /// Each round after the first warm-starts from the previous round's
  /// optimal basis with the new cut rows' logicals basic: that basis stays
  /// dual feasible (the reduced costs do not change), so a few dual pivots
  /// repair the violated cuts instead of a phase 1 + 2 re-solve.
  /// Returns false iff the root LP proves the subproblem infeasible --
  /// extended-LP infeasibility also qualifies, because cuts retain every
  /// integer-feasible point.
  bool root_relaxation() {
    SimplexSolver root(model_);
    LpResult lp;
    if (batch_.root_basis.status.size() == model_.var_count() + model_.row_count()) {
      lp = root.solve_warm(root_lo_, root_hi_, batch_.root_basis, opt_.lp);
      if (lp.warm_started) ++result_.stats.batch_hits;
    } else {
      lp = root.solve(root_lo_, root_hi_, opt_.lp);
    }
    accumulate_root_lp(lp);
    if (lp.status == LpStatus::kInfeasible) return false;
    if (lp.status != LpStatus::kOptimal) return true;  // no usable fractional point
    batch_.root_basis = root.last_basis();
    root_basis_ = root.last_basis();

    if (!opt_.cuts) return true;
    const std::vector<LiftedClique>& lifted = lifted_cliques();
    std::vector<double> x = lp.x;
    for (int round = 0; round < kMaxCutRounds; ++round) {
      // Separating against the *extended* model is self-deduplicating: a cut
      // already present as a row is satisfied by that LP's optimum, so it can
      // never come back violated.
      std::vector<Cut> cuts = separate_cuts(*search_model_, lifted, x);
      if (cuts.empty()) break;
      result_.stats.cuts_separated += static_cast<int>(cuts.size());
      ++result_.stats.cut_rounds;
      if (search_model_ == &model_) {
        ext_model_ = model_;  // copy once, on the first applied round
        search_model_ = &ext_model_;
      }
      for (Cut& cut : cuts) {
        ext_model_.add_row(std::move(cut.name), std::move(cut.terms), cut.sense, cut.rhs);
      }
      result_.stats.cuts_applied += static_cast<int>(cuts.size());
      // Logicals follow the structurals in row order, so the new rows'
      // logicals extend the previous round's basis at its end.
      root_basis_.status.resize(root_basis_.status.size() + cuts.size(),
                                BasisStatus::kBasic);
      SimplexSolver ext_root(ext_model_);
      lp = ext_root.solve_warm(root_lo_, root_hi_, root_basis_, opt_.lp);
      accumulate_root_lp(lp);
      if (lp.status == LpStatus::kInfeasible) return false;
      if (lp.status != LpStatus::kOptimal) {
        root_basis_.status.clear();  // shape mismatch with the search model
        return true;
      }
      root_basis_ = ext_root.last_basis();
      x = lp.x;
    }
    return true;
  }

  /// The clique table's extensions, lifted once per table: the context
  /// lifts on its first separating item and hands the list on.
  const std::vector<LiftedClique>& lifted_cliques() {
    if (!batch_.has_lifted_cliques) {
      batch_.lifted_cliques = lift_cliques(pre_.cliques, model_.var_count());
      batch_.has_lifted_cliques = true;
    }
    return batch_.lifted_cliques;
  }

  /// The node being solved. Between waves `node_id` holds a parked plunge
  /// continuation (-1 when the next node comes from the heap).
  struct Lane {
    std::unique_ptr<SimplexSolver> lp;
    std::vector<double> lo, hi;  // reconstructed bounds of the current node
    std::int32_t node_id = -1;
    int plunge = 0;  // consecutive dives
  };

  // --- resource budget ------------------------------------------------------

  /// Bytes currently committed to the search arenas (nodes, fix deltas,
  /// parked warm-start bases, open heap). Capacity-based, so it reflects
  /// reserved rather than touched memory.
  std::size_t arena_bytes() const {
    std::size_t bytes = nodes_.capacity() * sizeof(Node) +
                        fixes_.capacity() * sizeof(std::pair<VarIndex, double>) +
                        bases_.capacity() * sizeof(Basis) +
                        basis_refs_.capacity() * sizeof(int) +
                        basis_free_.capacity() * sizeof(std::int32_t) +
                        open_.capacity() * sizeof(HeapEntry);
    for (const Basis& b : bases_) bytes += b.status.capacity() * sizeof(BasisStatus);
    return bytes;
  }

  /// Wave-boundary check. The "ilp.deadline" fault site models an
  /// expired deadline (trip-at-Nth-check), which is how tests exercise
  /// the cancellation path without real clock pressure. The cancel token is
  /// consulted first, so a cancelled solve reports kCancelled even when a
  /// deadline expired in the same wave. The deadline reads the *injected*
  /// clock (budget.clock), never steady_clock directly.
  std::optional<TerminationReason> budget_exceeded() {
    if (opt_.budget.cancel.cancelled()) {
      return TerminationReason::kCancelled;
    }
    if (support::fault_should_trip("ilp.deadline") ||
        (opt_.budget.time_limit_seconds > 0 &&
         static_cast<double>(clock_.now_micros() - budget_start_micros_) * 1e-6 >=
             opt_.budget.time_limit_seconds)) {
      return TerminationReason::kDeadline;
    }
    const std::size_t bytes = arena_bytes();
    result_.stats.peak_arena_bytes = std::max(result_.stats.peak_arena_bytes, bytes);
    if (arena_alloc_failed_ || (opt_.budget.memory_limit_bytes > 0 &&
                                bytes > opt_.budget.memory_limit_bytes)) {
      return TerminationReason::kMemoryLimit;
    }
    return std::nullopt;
  }

  // --- open set -------------------------------------------------------------

  void push_open(std::int32_t id) {
    open_.push_back({nodes_[id].bound, id});
    std::push_heap(open_.begin(), open_.end(), HeapCmp{});
  }

  std::int32_t pop_open() {
    std::pop_heap(open_.begin(), open_.end(), HeapCmp{});
    const std::int32_t id = open_.back().id;
    open_.pop_back();
    return id;
  }

  /// Picks the next node: the parked plunge continuation, else the best
  /// surviving open node. Returns false when the search is exhausted.
  bool next_node() {
    if (lane_.node_id >= 0) return true;  // plunge continuation, counted at assignment
    while (!open_.empty() && result_.stats.nodes < opt_.max_nodes) {
      const std::int32_t id = pop_open();
      ++result_.stats.nodes;
      const Node& node = nodes_[id];
      bool prune = false;
      if (has_incumbent_) {
        if (node.bound > incumbent_obj_ + kGapTol) {
          prune = true;
        } else if (node.bound >= incumbent_obj_ - kGapTol) {
          if (opt_.canonical_ties) {
            reconstruct_bounds(id, scratch_lo_, scratch_hi_);
            prune = !lex_improvable(scratch_lo_);
          } else {
            prune = true;
          }
        }
      }
      if (prune) {
        release_basis(node.basis_id);
        continue;  // the incumbent improved since enqueue
      }
      lane_.node_id = id;
      lane_.plunge = 0;
      return true;
    }
    return false;
  }

  void reconstruct_bounds(std::int32_t id, std::vector<double>& lo,
                          std::vector<double>& hi) const {
    lo = root_lo_;
    hi = root_hi_;
    // Deltas applied root-first so a (hypothetical) re-fixing resolves to the
    // deepest decision; order within one node does not matter.
    std::int32_t chain[256];
    int depth = 0;
    for (std::int32_t c = id; c >= 0 && depth < 256; c = nodes_[c].parent) {
      chain[depth++] = c;
    }
    for (int i = depth - 1; i >= 0; --i) {
      const Node& node = nodes_[chain[i]];
      for (std::uint32_t f = 0; f < node.fix_count; ++f) {
        const auto& [v, val] = fixes_[node.first_fix + f];
        lo[v] = hi[v] = val;
      }
    }
  }

  // --- one wave: solve the node LP, then branch -----------------------------

  void solve_node() {
    const std::int32_t id = lane_.node_id;
    lane_.node_id = -1;
    reconstruct_bounds(id, lane_.lo, lane_.hi);
    const Node node = nodes_[id];  // copy: the arena may grow below
    const LpResult lp =
        opt_.warm_start && node.basis_id >= 0
            ? lane_.lp->solve_warm(lane_.lo, lane_.hi, bases_[node.basis_id], opt_.lp)
            : lane_.lp->solve(lane_.lo, lane_.hi, opt_.lp);
    release_basis(node.basis_id);

    result_.stats.lp_iterations += lp.iterations;
    result_.stats.pricing_candidate_scans += lp.candidate_scans;
    result_.stats.pricing_refreshes += lp.pricing_refreshes;
    if (lp.status == LpStatus::kOptimal || lp.status == LpStatus::kInfeasible) {
      if (lp.warm_started) ++result_.stats.warm_starts;
      else ++result_.stats.cold_starts;
    }

    if (lp.status == LpStatus::kInfeasible) return;
    if (lp.status == LpStatus::kUnbounded) {
      // A relaxation unbounded in the optimization direction: with all-
      // binary decision variables this indicates an unbounded continuous
      // part; report as no solution.
      return;
    }

    double node_bound;
    VarIndex branch_var = 0;
    double branch_frac = 0.0;
    bool have_branch_var = false;
    bool bound_usable = lp.status == LpStatus::kOptimal;

    if (lp.status == LpStatus::kIterationLimit) {
      // No usable bound; keep exploring below this node.
      node_bound = node.bound;
      have_branch_var = pick_free_binary(/*lex=*/false, branch_var);
      branch_frac = 0.5;
    } else {
      node_bound = sign_ * lp.objective;
      if (node.has_parent_obj) update_pseudo_cost(node, node_bound);
      if (pruned_by_bound(node_bound, lane_.lo)) return;
      have_branch_var = pick_branch_var(lp.x, branch_var, branch_frac);
      // Rounded, the LP point is a candidate incumbent: a cheap heuristic at
      // a fractional node, the node's own optimum at an integral one.
      const bool rounds_feasibly = offer_incumbent(lp.x);
      if (!have_branch_var) {
        // An LP value below kIntTol that a huge coefficient made count can
        // round to a point that breaks a row: that proves nothing about the
        // subtree, which keeps splitting. A feasible one is only one integer
        // point of it. Under canonical ties another one with the same
        // objective may still be lex-smaller than the incumbent, so a subtree
        // in the tie window keeps splitting until lex_improvable rules it out.
        if (rounds_feasibly &&
            (!opt_.canonical_ties || pruned_by_bound(node_bound, lane_.lo))) {
          return;
        }
        have_branch_var = pick_free_binary(/*lex=*/rounds_feasibly, branch_var);
        bound_usable = false;  // no fractional move: nothing for the pseudo-costs
      }
      if (pruned_by_bound(node_bound, lane_.lo)) return;
    }
    if (!have_branch_var) return;

    // Parent basis for the children's warm starts.
    std::int32_t basis_id = -1;
    if (opt_.warm_start && lp.status == LpStatus::kOptimal &&
        !lane_.lp->last_basis().empty()) {
      basis_id = store_basis(Basis(lane_.lp->last_basis()));
    }

    // Children: the preferred side continues the plunge, the other
    // goes to the best-bound heap.
    const std::int32_t down = make_child(id, node_bound, bound_usable, basis_id,
                                         branch_var, branch_frac,
                                         /*up=*/false, lane_.lo, lane_.hi);
    const std::int32_t up = make_child(id, node_bound, bound_usable, basis_id,
                                       branch_var, branch_frac,
                                       /*up=*/true, lane_.lo, lane_.hi);
    if (basis_id >= 0 && basis_refs_[basis_id] == 0) free_basis_slot(basis_id);

    const bool prefer_up =
        pc_estimate(1, branch_var) * (1.0 - branch_frac) <=
        pc_estimate(0, branch_var) * branch_frac;
    std::int32_t dive = prefer_up ? up : down;
    std::int32_t other = prefer_up ? down : up;
    if (dive < 0) std::swap(dive, other);

    if (dive >= 0 && lane_.plunge < kMaxPlungeDepth &&
        result_.stats.nodes < opt_.max_nodes) {
      lane_.node_id = dive;
      ++lane_.plunge;
      ++result_.stats.nodes;
    } else if (dive >= 0) {
      push_open(dive);
    }
    if (other >= 0) push_open(other);
  }

  /// Creates a child node (branch fixing + clique propagation); returns -1
  /// when the child is pruned or proven infeasible immediately.
  std::int32_t make_child(std::int32_t parent, double bound, bool bound_usable,
                          std::int32_t basis_id, VarIndex var, double frac, bool up,
                          const std::vector<double>& lo, const std::vector<double>& hi) {
    if (has_incumbent_ && bound > incumbent_obj_ + kGapTol) return -1;

    // Test-only allocation-failure injection: behaves exactly like a failed
    // arena reservation -- the child is dropped and the next wave-boundary
    // check turns the sticky flag into a kMemoryLimit stop.
    if (support::fault_should_trip("ilp.node_arena")) {
      arena_alloc_failed_ = true;
      return -1;
    }

    const std::uint32_t first_fix = static_cast<std::uint32_t>(fixes_.size());
    fixes_.emplace_back(var, up ? 1.0 : 0.0);
    if (up) {
      // Fixing a clique member to 1 zeroes every other member. A sibling
      // already fixed to 1 proves the child infeasible outright.
      for (std::uint32_t cl : pre_.var_cliques[var]) {
        for (VarIndex w : pre_.cliques[cl]) {
          if (w == var || hi[w] <= 0.5) continue;
          if (lo[w] > 0.5) {
            fixes_.resize(first_fix);
            return -1;
          }
          fixes_.emplace_back(w, 0.0);
          ++result_.stats.clique_propagations;
        }
      }
    }

    // In the incumbent's tie window the child survives only while it can
    // still improve the canonical (lexicographic) tie-break.
    if (has_incumbent_ && bound >= incumbent_obj_ - kGapTol) {
      bool keep = false;
      if (opt_.canonical_ties) {
        scratch_lo_ = lo;
        for (std::uint32_t f = first_fix; f < fixes_.size(); ++f) {
          scratch_lo_[fixes_[f].first] = fixes_[f].second;
        }
        keep = lex_improvable(scratch_lo_);
      }
      if (!keep) {
        fixes_.resize(first_fix);
        return -1;
      }
    }

    Node child;
    child.bound = bound;
    child.parent = parent;
    child.first_fix = first_fix;
    child.fix_count = static_cast<std::uint32_t>(fixes_.size()) - first_fix;
    child.branch_var = var;
    child.branch_frac = static_cast<float>(frac);
    child.branch_up = up;
    child.has_parent_obj = bound_usable;
    child.parent_obj = bound;
    if (basis_id >= 0) {
      child.basis_id = basis_id;
      ++basis_refs_[basis_id];
    }
    nodes_.push_back(child);
    return static_cast<std::int32_t>(nodes_.size()) - 1;
  }

  // --- basis arena ----------------------------------------------------------

  std::int32_t store_basis(Basis&& basis) {
    std::int32_t id;
    if (!basis_free_.empty()) {
      id = basis_free_.back();
      basis_free_.pop_back();
      bases_[id] = std::move(basis);
      basis_refs_[id] = 0;
    } else {
      id = static_cast<std::int32_t>(bases_.size());
      bases_.push_back(std::move(basis));
      basis_refs_.push_back(0);
    }
    return id;
  }

  void release_basis(std::int32_t id) {
    if (id < 0) return;
    if (--basis_refs_[id] == 0) free_basis_slot(id);
  }

  void free_basis_slot(std::int32_t id) {
    bases_[id].status.clear();
    bases_[id].status.shrink_to_fit();
    basis_free_.push_back(id);
  }

  // --- branching ------------------------------------------------------------

  double pc_estimate(int dir, VarIndex v) const {
    if (pc_cnt_[dir][v] > 0) return pc_sum_[dir][v] / pc_cnt_[dir][v];
    // Uninitialized: degradation proportional to the objective weight.
    return std::abs(model_.var(v).objective) + 1.0;
  }

  void update_pseudo_cost(const Node& node, double node_bound) {
    const double degradation = std::max(0.0, node_bound - node.parent_obj);
    const double f = node.branch_frac;
    const int dir = node.branch_up ? 1 : 0;
    const double dist = node.branch_up ? std::max(1.0 - f, 1e-6) : std::max(f + 0.0, 1e-6);
    pc_sum_[dir][node.branch_var] += degradation / dist;
    ++pc_cnt_[dir][node.branch_var];
  }

  bool pick_branch_var(const std::vector<double>& x, VarIndex& out,
                       double& out_frac) const {
    double best_score = -1.0;
    bool found = false;
    for (std::size_t j = 0; j < model_.var_count(); ++j) {
      if (model_.var(static_cast<VarIndex>(j)).kind != VarKind::kBinary) continue;
      const double frac = std::abs(x[j] - std::round(x[j]));
      if (frac <= kIntTol) continue;
      const double score =
          std::max(pc_estimate(0, static_cast<VarIndex>(j)) * frac, 1e-12) *
          std::max(pc_estimate(1, static_cast<VarIndex>(j)) * (1.0 - frac), 1e-12);
      if (score > best_score) {
        best_score = score;
        out = static_cast<VarIndex>(j);
        out_frac = frac;
        found = true;
      }
    }
    return found;
  }

  /// The first free binary; with `lex`, the first the incumbent sets to 1:
  /// the tie-window split of an integral node, whose down side holds exactly
  /// the subtree's points that can first undercut the incumbent there.
  bool pick_free_binary(bool lex, VarIndex& out) const {
    for (VarIndex j = 0; j < model_.var_count(); ++j) {
      if (model_.var(j).kind == VarKind::kBinary && lane_.lo[j] < lane_.hi[j] - kIntTol &&
          (!lex || incumbent_x_[j] > 0.5)) {
        out = j;
        return true;
      }
    }
    return false;
  }

  // --- pruning --------------------------------------------------------------

  /// True while a subtree whose componentwise lower-bound vector is `lo` can
  /// still contain a solution strictly lex-smaller than the incumbent. Every
  /// solution in the subtree satisfies x >= lo componentwise, and
  /// componentwise >= implies lexicographic >=, so this test is a sound
  /// prune; keeping exactly these nodes alive makes the reported optimum the
  /// lexicographically smallest optimal vector -- a canonical answer that
  /// does not depend on search order.
  bool lex_improvable(const std::vector<double>& lo) const {
    for (std::size_t j = 0; j < lo.size(); ++j) {
      const double d = lo[j] - incumbent_x_[j];
      if (d < -kIntTol) return true;
      if (d > kIntTol) return false;
    }
    return false;  // equal everywhere: cannot be strictly smaller
  }

  /// Objective-based prune that keeps equal-objective (tie-window) nodes
  /// alive while they may still lex-improve the incumbent.
  bool pruned_by_bound(double bound, const std::vector<double>& lo) const {
    if (!has_incumbent_) return false;
    if (bound > incumbent_obj_ + kGapTol) return true;
    if (bound < incumbent_obj_ - kGapTol) return false;
    return !opt_.canonical_ties || !lex_improvable(lo);
  }

  // --- incumbent ------------------------------------------------------------

  /// Offers x with its binaries rounded; false when that point is
  /// infeasible (and so not offered).
  bool offer_incumbent(const std::vector<double>& x) {
    std::vector<double> xi = x;
    for (VarIndex j = 0; j < xi.size(); ++j) {
      if (model_.var(j).kind == VarKind::kBinary) xi[j] = std::round(xi[j]);
    }
    if (!model_.is_feasible(xi)) return false;
    const double obj = sign_ * model_.objective_value(xi);
    const double inc = incumbent_obj_;
    const bool better = !has_incumbent_ || obj < inc - kGapTol;
    // Equal-objective tie-break on the solution vector keeps the reported
    // selection independent of search order whenever ties exist at the
    // optimum.
    const bool tie_wins = opt_.canonical_ties && has_incumbent_ &&
                          obj <= inc + kGapTol &&
                          std::lexicographical_compare(xi.begin(), xi.end(),
                                                       incumbent_x_.begin(),
                                                       incumbent_x_.end());
    if (better || tie_wins) {
      has_incumbent_ = true;
      incumbent_obj_ = tie_wins ? std::min(obj, inc) : obj;
      incumbent_x_ = std::move(xi);
    }
    return true;
  }

  // --- wrap-up --------------------------------------------------------------

  void finish(TerminationReason reason, Clock::time_point t0) {
    // Export the search state for the next same-structure solve. Done before
    // the result is assembled so even infeasible/truncated runs leave their
    // (still valid) branching statistics behind.
    if (batch_.carry_search_state) {
      for (int d = 0; d < 2; ++d) {
        batch_.pc_sum[d] = pc_sum_[d];
        batch_.pc_cnt[d] = pc_cnt_[d];
      }
      batch_.has_search_state = true;
      if (has_incumbent_) {
        batch_.incumbent = incumbent_x_;
        batch_.has_incumbent = true;
      }
    }
    result_.stats.termination = reason;
    result_.stats.total_seconds = seconds_since(t0);
    result_.stats.search_seconds =
        result_.stats.total_seconds - result_.stats.presolve_seconds;
    result_.stats.peak_arena_bytes =
        std::max(result_.stats.peak_arena_bytes, arena_bytes());

    const bool truncated = reason != TerminationReason::kCompleted;
    const IlpStatus truncated_status = reason == TerminationReason::kNodeLimit
                                           ? IlpStatus::kNodeLimit
                                           : IlpStatus::kResourceLimit;

    // Global lower bound (internal sense): open nodes still in the heap or
    // parked as the plunge continuation, else the incumbent itself.
    double lb = has_incumbent_ ? incumbent_obj_ : kInfinity;
    if (truncated) {
      for (const HeapEntry& e : open_) lb = std::min(lb, e.bound);
      if (lane_.node_id >= 0) lb = std::min(lb, nodes_[lane_.node_id].bound);
    }

    if (!has_incumbent_) {
      result_.status = truncated ? truncated_status : IlpStatus::kInfeasible;
      result_.best_bound = std::isfinite(lb) ? sign_ * lb : 0.0;
      return;
    }
    result_.status = truncated ? truncated_status : IlpStatus::kOptimal;
    result_.has_solution = true;
    result_.objective = sign_ * incumbent_obj_;
    result_.best_bound = sign_ * lb;
    result_.x = incumbent_x_;
  }

  const Model& model_;
  const IlpOptions& opt_;
  BatchContext& batch_;
  // Search model: `model_` itself, or `ext_model_` (model_ + root cut rows)
  // once a separation round applied cuts. Incumbent checks and branching
  // always use `model_` -- the variable set is identical and every cut is
  // valid for the original integer feasible set.
  const Model* search_model_ = nullptr;
  Model ext_model_;
  Basis root_basis_;
  support::Clock& clock_;  // deadline clock (injectable)
  std::int64_t budget_start_micros_ = 0;
  double sign_ = 1.0;
  std::vector<double> root_lo_, root_hi_;
  std::vector<double> scratch_lo_, scratch_hi_;  // prune-time reconstruction
  PresolveResult pre_;

  // Arenas.
  std::vector<Node> nodes_;
  std::vector<std::pair<VarIndex, double>> fixes_;
  std::vector<Basis> bases_;
  std::vector<int> basis_refs_;
  std::vector<std::int32_t> basis_free_;

  // Search state.
  std::vector<HeapEntry> open_;
  Lane lane_;
  double incumbent_obj_ = kInfinity;
  bool has_incumbent_ = false;
  std::vector<double> incumbent_x_;
  std::vector<double> pc_sum_[2];
  std::vector<int> pc_cnt_[2];
  bool arena_alloc_failed_ = false;  // sticky: set by a failed arena reservation
  IlpResult result_;
};

}  // namespace

IlpResult solve_ilp(const Model& model, const IlpOptions& opt, BatchContext* batch) {
  BatchContext local;
  BatchContext& ctx = batch != nullptr ? *batch : local;
  IlpResult res = Solver(model, opt, ctx).run();
  ++ctx.items;
  return res;
}

}  // namespace partita::ilp
