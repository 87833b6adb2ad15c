#include "cdfg/paths.hpp"

#include <algorithm>

namespace partita::cdfg {

bool ExecPath::contains(NodeIndex n) const {
  return std::find(nodes.begin(), nodes.end(), n) != nodes.end();
}

CondTree conditional_tree(const Cdfg& g) {
  CondTree t;
  t.node_scope.reserve(g.node_count());
  for (const AtomicNode& n : g.nodes()) {
    // Walk the node's arm stack outermost-first; each frame's conditional
    // sits in the scope the previous frame opened.
    std::size_t scope = 0;
    for (const BranchFrame& f : n.branch_ctx) {
      std::size_t c = 0;
      while (c < t.conds.size() && t.conds[c].stmt != f.if_stmt) ++c;
      if (c == t.conds.size()) t.conds.push_back({f.if_stmt, scope});
      scope = CondTree::arm_scope(c, f.then_arm);
    }
    t.node_scope.push_back(scope);
  }
  return t;
}

namespace {

/// A node belongs to a path iff, for every conditional frame in its branch
/// context, the path picked the same arm. The path is described by the set
/// of (if_stmt, arm) decisions.
class Enumerator {
 public:
  explicit Enumerator(const Cdfg& g) : g_(g) {}

  std::vector<ExecPath> run() {
    std::vector<ir::StmtId> ifs;
    for (const CondTree::Cond& c : conditional_tree(g_).conds) ifs.push_back(c.stmt);

    std::vector<ExecPath> out;
    std::vector<std::pair<ir::StmtId, bool>> decision;
    expand(ifs, 0, decision, out);
    if (out.empty()) out.push_back(ExecPath{});  // function with no nodes
    return dedup(std::move(out));
  }

 private:
  void expand(const std::vector<ir::StmtId>& ifs, std::size_t k,
              std::vector<std::pair<ir::StmtId, bool>>& decision,
              std::vector<ExecPath>& out) {
    if (out.size() >= kMaxPaths) return;
    if (k == ifs.size()) {
      out.push_back(materialize(decision));
      return;
    }
    decision.emplace_back(ifs[k], true);
    expand(ifs, k + 1, decision, out);
    decision.back().second = false;
    expand(ifs, k + 1, decision, out);
    decision.pop_back();
  }

  ExecPath materialize(const std::vector<std::pair<ir::StmtId, bool>>& decision) const {
    ExecPath p;
    for (NodeIndex i = 0; i < g_.node_count(); ++i) {
      const AtomicNode& n = g_.node(i);
      bool on_path = true;
      for (const BranchFrame& f : n.branch_ctx) {
        for (const auto& [if_stmt, arm] : decision) {
          if (f.if_stmt == if_stmt && f.then_arm != arm) {
            on_path = false;
            break;
          }
        }
        if (!on_path) break;
      }
      if (on_path) p.nodes.push_back(i);
    }
    return p;
  }

  /// Nested conditionals make some decision vectors materialize the same node
  /// set (the inner if is irrelevant when the outer arm excludes it); keep
  /// the first of each.
  static std::vector<ExecPath> dedup(std::vector<ExecPath> paths) {
    std::vector<ExecPath> out;
    for (ExecPath& p : paths) {
      if (std::none_of(out.begin(), out.end(),
                       [&](const ExecPath& q) { return q.nodes == p.nodes; })) {
        out.push_back(std::move(p));
      }
    }
    return out;
  }

  const Cdfg& g_;
};

}  // namespace

std::vector<ExecPath> enumerate_paths(const Cdfg& g) {
  return Enumerator(g).run();
}

}  // namespace partita::cdfg
