#include "cdfg/parallel.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "support/assert.hpp"

namespace partita::cdfg {

namespace {

using Bits = std::vector<std::uint64_t>;

/// Arm state of a conditional past the memo bound: both arms at once.
constexpr std::int8_t kBothArms = 2;

/// The memoized walk behind parallel_code.
struct PcWalk {
  const Cdfg& g;
  const PcOptions& opt;
  /// Per statement: its number among the conditionals from the call on.
  std::vector<std::size_t> cond = std::vector<std::size_t>(g.function().stmt_count(), -1);
  std::vector<NodeIndex> last{};  // per conditional: its last node
  Bits candidates = Bits((g.node_count() + 63) / 64, 0);  // independent, same loops
  std::unordered_map<std::string, ParallelCode> memo{};  // per branch state

  struct State {
    std::vector<std::int8_t> arm;  // per conditional: 1 then, 0 else, -1 undecided
    Bits blocked;                  // nodes with a skipped transitive predecessor
    std::size_t consumed = 0;
  };

  /// PC of the nodes from v on, given the walk state before v: one greedy
  /// join/skip step per node of the path, branching on a conditional the
  /// first time one of its nodes is reached.
  ParallelCode from(NodeIndex v, State s) {
    ParallelCode pc;
    for (; v < g.node_count(); ++v) {
      const auto& f = g.node(v).branch_ctx;
      const auto open = std::find_if(f.begin(), f.end(), [&](const BranchFrame& fr) {
        return s.arm[cond[fr.if_stmt.value()]] != static_cast<int>(fr.then_arm);
      });
      if (open != f.end()) {
        const std::size_t c = cond[open->if_stmt.value()];
        if (s.arm[c] < 0 && memo.size() < kPcMemoStates) {
          const ParallelCode& rest = branch(v, c, std::move(s));
          pc.nodes.insert(pc.nodes.end(), rest.nodes.begin(), rest.nodes.end());
          pc.cycles += rest.cycles;
          pc.consumed_scalls.insert(pc.consumed_scalls.end(), rest.consumed_scalls.begin(),
                                    rest.consumed_scalls.end());
          return pc;
        }
        if (s.arm[c] < 0) s.arm[c] = kBothArms;
        if (s.arm[c] == kBothArms) skip(v, s);
        continue;  // otherwise v lies in an arm this path does not take
      }
      const AtomicNode& node = g.node(v);
      // Rule (c): movable next to the call only if no skipped node between
      // the call and v is a transitive predecessor of v.
      bool join = (candidates[v / 64] & ~s.blocked[v / 64]) >> (v % 64) & 1;
      // Another s-call may join only as its *software* body, when the
      // generalized problem allows it and the consumption budget is not
      // exhausted. Non-s-call calls are ordinary software.
      const bool consumes =
          join && node.is_call && (!opt.is_scall || opt.is_scall(node.call_site));
      if (consumes) join = opt.allow_scall_software && s.consumed < opt.max_consumed;
      if (!join) {
        skip(v, s);
        continue;
      }
      pc.nodes.push_back(v);
      pc.cycles += node.cycles;
      if (consumes) pc.consumed_scalls.push_back(node.call_site);
      s.consumed += consumes;
    }
    return pc;
  }

  /// v is passed over: every node after it that depends on it is blocked.
  void skip(NodeIndex v, State& s) const {
    const std::uint64_t* later = g.dependents(v);
    for (std::size_t w = v / 64; w < s.blocked.size(); ++w) s.blocked[w] |= later[w];
  }

  /// PC from v on when v decides conditional c: the then-arm's unless the
  /// else-arm's is strictly shorter, memoized per walk state (see the header).
  const ParallelCode& branch(NodeIndex v, std::size_t c, State s) {
    std::string key;
    const auto put = [&key](std::uint64_t w) { key.append(reinterpret_cast<char*>(&w), 8); };
    put(v);
    put(std::min<std::size_t>(opt.max_consumed - s.consumed, g.node_count() - v));
    for (std::size_t d = 0; d < last.size(); ++d) key += last[d] < v ? '-' : char('1' + s.arm[d]);
    for (std::size_t w = v / 64; w < s.blocked.size(); ++w) {
      put(s.blocked[w] & candidates[w] & (w > v / 64 ? ~0ull : ~0ull << (v % 64)));
    }
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    s.arm[c] = 0;
    ParallelCode alt = from(v, s);
    s.arm[c] = 1;
    ParallelCode best = from(v, std::move(s));
    if (alt.cycles < best.cycles) best = std::move(alt);
    return memo.emplace(std::move(key), std::move(best)).first->second;
  }
};

}  // namespace

ParallelCode parallel_code(const Cdfg& g, NodeIndex call_node, const PcOptions& opt) {
  PARTITA_ASSERT_MSG(g.node(call_node).is_call, "PC is defined for call nodes");
  PcWalk walk{g, opt};
  // Number the conditionals from the call on and note each one's last node.
  for (NodeIndex v = call_node; v < g.node_count(); ++v) {
    for (const BranchFrame& f : g.node(v).branch_ctx) {
      std::size_t& c = walk.cond[f.if_stmt.value()];
      if (c == static_cast<std::size_t>(-1)) {
        c = walk.last.size();
        walk.last.push_back(v);
      }
      walk.last[c] = v;
    }
    if (v > call_node && g.independent(call_node, v) && g.same_loop_ctx(call_node, v)) {
      walk.candidates[v / 64] |= std::uint64_t{1} << (v % 64);
    }
  }
  // The call's own arms are decided: every path here passes through it.
  PcWalk::State start{std::vector<std::int8_t>(walk.last.size(), -1),
                      Bits(walk.candidates.size(), 0)};
  for (const BranchFrame& f : g.node(call_node).branch_ctx) {
    start.arm[walk.cond[f.if_stmt.value()]] = f.then_arm;
  }
  return walk.from(call_node + 1, std::move(start));
}

}  // namespace partita::cdfg
