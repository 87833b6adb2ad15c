#include "cdfg/parallel.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace partita::cdfg {

namespace {

/// The depth-first walk behind parallel_code: one greedy join/skip step per
/// node of the current path after the call, branching on a conditional the
/// first time one of its nodes is reached.
struct PcSearch {
  const Cdfg& g;
  const NodeIndex call;
  const PcOptions& opt;
  /// Per node from the call on: its arms as (conditional, then_arm),
  /// outermost first, conditionals numbered in order of appearance.
  std::vector<std::vector<std::pair<std::size_t, bool>>> frames{};
  std::vector<int> arm{};  // per conditional: 1 then, 0 else, -1 undecided
  ParallelCode cur{};      // segment of the current path prefix
  std::vector<NodeIndex> skipped{};  // nodes passed over (dependent or excluded)
  std::optional<ParallelCode> best{};
  std::uint64_t visits = 0;

  /// Runs the current path on from node v and keeps its PC if it is the
  /// best so far; restores the segment state on return.
  void walk(NodeIndex v) {
    const std::size_t joined = cur.nodes.size(), passed = skipped.size(),
                      consumed = cur.consumed_scalls.size();
    const std::int64_t cycles = cur.cycles;
    if (extend(v) && (!best || cur.cycles < best->cycles)) best = cur;
    cur.nodes.resize(joined);
    skipped.resize(passed);
    cur.consumed_scalls.resize(consumed);
    cur.cycles = cycles;
  }

  /// Steps through the nodes from v to the end: false when the path was
  /// pruned, ran over budget or was handed to the arms of a conditional.
  bool extend(NodeIndex v) {
    for (; v < g.node_count(); ++v) {
      if (++visits > kPcVisitBudget || (best && cur.cycles >= best->cycles)) return false;
      const auto& f = frames[v];
      const auto open = std::find_if(f.begin(), f.end(), [&](const auto& fr) {
        return arm[fr.first] != static_cast<int>(fr.second);
      });
      if (open == f.end()) {
        step(v);
      } else if (arm[open->first] < 0) {
        for (const int a : {1, 0}) {
          arm[open->first] = a;
          walk(v);
        }
        arm[open->first] = -1;
        return false;
      }
      // Otherwise v lies in an arm this path does not take.
    }
    return true;
  }

  /// Node v of the current path joins the segment or is skipped.
  void step(NodeIndex v) {
    const AtomicNode& node = g.node(v);
    bool join = g.independent(call, v) && g.same_loop_ctx(call, v);
    // Another s-call may join only as its *software* body, when the
    // generalized problem allows it and the consumption budget is not
    // exhausted. Non-s-call calls are ordinary software.
    const bool consumes = join && node.is_call && (!opt.is_scall || opt.is_scall(node.call_site));
    if (consumes) {
      join = opt.allow_scall_software && cur.consumed_scalls.size() < opt.max_consumed;
    }
    // Rule (c): movable next to the call only if no skipped node between
    // the call and v is a transitive predecessor of v.
    join = join && std::none_of(skipped.begin(), skipped.end(),
                                [&](NodeIndex s) { return g.depends(s, v); });
    if (!join) {
      skipped.push_back(v);
      return;
    }
    cur.nodes.push_back(v);
    cur.cycles += node.cycles;
    if (consumes) cur.consumed_scalls.push_back(node.call_site);
  }
};

}  // namespace

std::optional<ParallelCode> parallel_code(const Cdfg& g, NodeIndex call_node,
                                          const PcOptions& opt) {
  PARTITA_ASSERT_MSG(g.node(call_node).is_call, "PC is defined for call nodes");
  PcSearch s{g, call_node, opt};
  std::vector<ir::StmtId> ifs;
  s.frames.resize(g.node_count());
  for (NodeIndex v = call_node; v < g.node_count(); ++v) {
    for (const BranchFrame& f : g.node(v).branch_ctx) {
      const std::size_t c = std::find(ifs.begin(), ifs.end(), f.if_stmt) - ifs.begin();
      if (c == ifs.size()) ifs.push_back(f.if_stmt);
      s.frames[v].emplace_back(c, f.then_arm);
    }
  }
  // The call's own arms are decided: every path here passes through it.
  s.arm.assign(ifs.size(), -1);
  for (const auto& [c, then_arm] : s.frames[call_node]) s.arm[c] = then_arm;
  s.walk(call_node + 1);
  if (s.visits > kPcVisitBudget) return std::nullopt;
  return std::move(s.best);
}

}  // namespace partita::cdfg
