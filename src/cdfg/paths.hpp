// Execution paths and the conditional tree.
//
// Every resolution of a function's two-armed conditionals yields one
// execution path P_k. The conditional tree describes them all at once; the
// explicit list serves the greedy baseline and the oracle. Loop bodies
// belong to every path (their nodes carry a loop_frequency multiplier);
// conditionals *inside* loops are resolved once per path, which approximates
// the dominant-iteration behaviour the paper's profile-driven flow relies
// on.
#pragma once

#include <cstdint>
#include <vector>

#include "cdfg/cdfg.hpp"

namespace partita::cdfg {

/// One execution path.
struct ExecPath {
  /// Atomic nodes on the path, in program order.
  std::vector<NodeIndex> nodes;
  /// Profile probability of this path (product of arm probabilities).
  double probability = 1.0;

  bool contains(NodeIndex n) const;

  /// Total software cycles along the path, honouring loop frequencies.
  /// Call-node cycles must have been annotated (Cdfg::annotate_call_cycles).
  std::int64_t software_cycles(const Cdfg& g) const;
};

/// Hard cap on enumerated paths. Enumeration walks the decision vectors
/// then-arm first and stops after kMaxPaths of them, before merging the ones
/// that materialize the same nodes: past 12 conditionals the last vectors in
/// that order are dropped, whatever their probability. Only greedy and the
/// oracle read the list.
inline constexpr std::size_t kMaxPaths = 4096;

/// The conditionals of a function as a tree of scopes. Scope 0 is the
/// straight-line code; each conditional c owns two arm scopes,
/// arm_scope(c, true) and arm_scope(c, false). Every node sits in the scope
/// of its innermost enclosing arm, and every conditional in the scope of the
/// arm (or straight-line code) that encloses it. An execution path picks one
/// arm of each conditional it reaches, so a sum over the nodes of the worst
/// path is the sum over scope 0 plus, per conditional directly in it, the
/// minimum over that conditional's arms of the same sum, recursively.
struct CondTree {
  struct Cond {
    ir::StmtId stmt;
    /// Scope holding the conditional; always an earlier conditional's arm
    /// or scope 0, so parents precede their children in `conds`.
    std::size_t parent_scope = 0;
  };
  /// Outermost-first by first occurrence in node order: the order in which
  /// enumerate_paths resolves them.
  std::vector<Cond> conds;
  /// Scope of every node of the graph, indexed by NodeIndex.
  std::vector<std::size_t> node_scope;

  static std::size_t arm_scope(std::size_t c, bool then_arm) {
    return 1 + 2 * c + (then_arm ? 0 : 1);
  }
  std::size_t scope_count() const { return 1 + 2 * conds.size(); }
};

/// Builds the conditional tree of the function underlying `g`.
CondTree conditional_tree(const Cdfg& g);

/// Enumerates execution paths of the function underlying `g`.
/// Always returns at least one path (a straight-line function has exactly
/// one, possibly empty).
std::vector<ExecPath> enumerate_paths(const Cdfg& g);

}  // namespace partita::cdfg
