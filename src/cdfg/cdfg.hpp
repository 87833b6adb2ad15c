// Control/data-flow graph over the atomic statements of one function.
//
// This is the representation behind Definitions 3-5 of the paper: a node per
// MOP-producing statement (straight-line segment or call), directed edges for
// data/control dependence, and the transitive closure that decides which
// nodes are "independent code" with respect to an s-call.
//
// Dependence edges are derived from the declared reads/writes symbol sets
// (RAW, WAR and WAW conflicts) between nodes in program order. The branch
// and loop context of every node is recorded so path enumeration and the
// same-execution-branch requirement of Definition 5 can be enforced.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/function.hpp"

namespace partita::cdfg {

/// Index of an atomic node inside a Cdfg.
using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kInvalidNode = ~NodeIndex{0};

/// One arm of a conditional on the enclosing-branch stack.
struct BranchFrame {
  ir::StmtId if_stmt;
  bool then_arm = true;
  bool operator==(const BranchFrame&) const = default;
};

/// An atomic node: a `seg` or `call` statement occurrence.
struct AtomicNode {
  ir::StmtId stmt;
  bool is_call = false;
  ir::CallSiteId call_site;  // valid iff is_call
  /// Per-execution software cycles. For segments this is the declared cycle
  /// count; for calls it is 0 until annotate_call_cycles() fills in the
  /// callee's T_SW (the CDFG itself does not know cross-function times).
  std::int64_t cycles = 0;
  /// Outermost-first stack of enclosing loop statements.
  std::vector<ir::StmtId> loop_ctx;
  /// Outermost-first stack of enclosing conditional arms.
  std::vector<BranchFrame> branch_ctx;
  /// Product of enclosing loop trip counts (profile execution frequency of
  /// the node relative to one invocation of the function).
  std::int64_t loop_frequency = 1;
};

/// The graph. Build once per function; immutable afterwards.
class Cdfg {
 public:
  /// Builds the CDFG of `fn` inside `module`.
  Cdfg(const ir::Module& module, const ir::Function& fn);

  const ir::Module& module() const { return *module_; }
  const ir::Function& function() const { return *fn_; }

  std::size_t node_count() const { return nodes_.size(); }
  const AtomicNode& node(NodeIndex i) const { return nodes_[i]; }
  const std::vector<AtomicNode>& nodes() const { return nodes_; }

  /// Node index of a call site, or kInvalidNode.
  NodeIndex node_of_call(ir::CallSiteId cs) const;

  /// Direct dependence edge u -> v (u precedes v and v must stay after u)?
  bool direct_edge(NodeIndex u, NodeIndex v) const;

  /// Transitive dependence u ->* v (program order respected: u < v).
  bool depends(NodeIndex u, NodeIndex v) const;

  /// Every v with u ->* v: bit v % 64 of word v / 64 of a node_count()-bit row.
  const std::uint64_t* dependents(NodeIndex u) const { return &closure_[u * words_per_row_]; }

  /// True when the two nodes have no transitive dependence either way --
  /// Definition 3's "independent code" relation.
  bool independent(NodeIndex a, NodeIndex b) const {
    return !depends(a, b) && !depends(b, a);
  }

  /// Fills in per-execution cycles of call nodes (callee T_SW), used when the
  /// parallel-code extractor measures segment lengths. `cycles_of` maps a
  /// callee FuncId to its software time.
  template <typename F>
  void annotate_call_cycles(F&& cycles_of) {
    for (AtomicNode& n : nodes_) {
      if (n.is_call) {
        n.cycles = cycles_of(module_->call_site(n.call_site).callee);
      }
    }
  }

  /// True when a and b sit in the same execution branch (identical
  /// conditional-arm stacks) -- the Definition 4/5 requirement.
  bool same_branch(NodeIndex a, NodeIndex b) const {
    return nodes_[a].branch_ctx == nodes_[b].branch_ctx;
  }

  /// True when a and b are governed by the same loop nest, so one execution
  /// of a overlaps one execution of b.
  bool same_loop_ctx(NodeIndex a, NodeIndex b) const {
    return nodes_[a].loop_ctx == nodes_[b].loop_ctx;
  }

 private:
  void build();
  void walk_seq(const std::vector<ir::StmtId>& seq);
  void add_dependence_edges();
  void close_transitively();

  const ir::Module* module_;
  const ir::Function* fn_;
  std::vector<AtomicNode> nodes_;
  std::vector<ir::StmtId> loop_stack_;
  std::vector<BranchFrame> branch_stack_;
  std::int64_t freq_ = 1;

  // Adjacency and closure as bitsets: row u holds the set of v with u -> v.
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> adj_;
  std::vector<std::uint64_t> closure_;

  bool bit(const std::vector<std::uint64_t>& m, NodeIndex u, NodeIndex v) const {
    return (m[u * words_per_row_ + v / 64] >> (v % 64)) & 1u;
  }
  void set_bit(std::vector<std::uint64_t>& m, NodeIndex u, NodeIndex v) {
    m[u * words_per_row_ + v / 64] |= std::uint64_t{1} << (v % 64);
  }
};

}  // namespace partita::cdfg
