#include "cdfg/cdfg.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace partita::cdfg {

Cdfg::Cdfg(const ir::Module& module, const ir::Function& fn)
    : module_(&module), fn_(&fn) {
  build();
}

void Cdfg::build() {
  walk_seq(fn_->body());
  words_per_row_ = (nodes_.size() + 63) / 64;
  adj_.assign(nodes_.size() * words_per_row_, 0);
  add_dependence_edges();
  close_transitively();
}

void Cdfg::walk_seq(const std::vector<ir::StmtId>& seq) {
  for (ir::StmtId id : seq) {
    const ir::Stmt& s = fn_->stmt(id);
    switch (s.kind) {
      case ir::StmtKind::kSeg:
      case ir::StmtKind::kCall: {
        AtomicNode n;
        n.stmt = id;
        n.is_call = s.kind == ir::StmtKind::kCall;
        if (n.is_call) n.call_site = s.call_site;
        n.cycles = s.kind == ir::StmtKind::kSeg ? s.cycles : 0;
        n.loop_ctx = loop_stack_;
        n.branch_ctx = branch_stack_;
        n.loop_frequency = freq_;
        nodes_.push_back(std::move(n));
        break;
      }
      case ir::StmtKind::kIf:
        branch_stack_.push_back({id, true});
        walk_seq(s.then_stmts);
        branch_stack_.back().then_arm = false;
        walk_seq(s.else_stmts);
        branch_stack_.pop_back();
        break;
      case ir::StmtKind::kLoop:
        loop_stack_.push_back(id);
        freq_ *= s.trip_count;
        walk_seq(s.body_stmts);
        freq_ /= s.trip_count;
        loop_stack_.pop_back();
        break;
    }
  }
}

namespace {

bool intersects(const std::vector<ir::SymbolId>& a, const std::vector<ir::SymbolId>& b) {
  for (ir::SymbolId x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

}  // namespace

void Cdfg::add_dependence_edges() {
  for (NodeIndex v = 0; v < nodes_.size(); ++v) {
    const ir::Stmt& sv = fn_->stmt(nodes_[v].stmt);
    for (NodeIndex u = 0; u < v; ++u) {
      const ir::Stmt& su = fn_->stmt(nodes_[u].stmt);
      const bool raw = intersects(su.writes, sv.reads);
      const bool war = intersects(su.reads, sv.writes);
      const bool waw = intersects(su.writes, sv.writes);
      if (raw || war || waw) set_bit(adj_, u, v);
    }
  }
}

void Cdfg::close_transitively() {
  // Nodes are numbered in program order and edges only go forward, so one
  // backward sweep computes the closure: closure[u] = adj[u] union of
  // closure[v] for each direct successor v.
  closure_ = adj_;
  for (NodeIndex u = static_cast<NodeIndex>(nodes_.size()); u-- > 0;) {
    for (NodeIndex v = u + 1; v < nodes_.size(); ++v) {
      if (!bit(adj_, u, v)) continue;
      for (std::size_t w = 0; w < words_per_row_; ++w) {
        closure_[u * words_per_row_ + w] |= closure_[v * words_per_row_ + w];
      }
    }
  }
}

NodeIndex Cdfg::node_of_call(ir::CallSiteId cs) const {
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_call && nodes_[i].call_site == cs) return i;
  }
  return kInvalidNode;
}

bool Cdfg::direct_edge(NodeIndex u, NodeIndex v) const {
  PARTITA_ASSERT(u < nodes_.size() && v < nodes_.size());
  return u < v && bit(adj_, u, v);
}

bool Cdfg::depends(NodeIndex u, NodeIndex v) const {
  PARTITA_ASSERT(u < nodes_.size() && v < nodes_.size());
  return u < v && bit(closure_, u, v);
}

}  // namespace partita::cdfg
