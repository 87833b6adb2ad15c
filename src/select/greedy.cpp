#include "select/greedy.hpp"

#include <algorithm>
#include <set>

namespace partita::select {

namespace {

/// Per scope of `tree`, the number of execution paths through it that pass
/// through no scope whose worst path meets `required_gain` (every path
/// through such a scope meets it): those inside its subtree times the ways
/// to resolve every conditional outside it. `worst` holds the worst gain
/// over the paths through each scope.
std::vector<double> open_paths_through(const cdfg::CondTree& tree,
                                       const std::vector<std::int64_t>& worst,
                                       std::int64_t required_gain) {
  using cdfg::CondTree;
  std::vector<double> inside(tree.scope_count());
  for (std::size_t s = 0; s < inside.size(); ++s) inside[s] = worst[s] < required_gain;
  for (std::size_t c = tree.conds.size(); c-- > 0;) {
    inside[tree.conds[c].parent_scope] *=
        inside[CondTree::arm_scope(c, true)] + inside[CondTree::arm_scope(c, false)];
  }
  std::vector<double> through = inside;
  for (std::size_t c = 0; c < tree.conds.size(); ++c) {
    const std::size_t t = CondTree::arm_scope(c, true), f = CondTree::arm_scope(c, false);
    const double arms = inside[t] + inside[f];
    const double share = arms > 0 ? through[tree.conds[c].parent_scope] / arms : 0.0;
    through[t] = share * inside[t];
    through[f] = share * inside[f];
  }
  return through;
}

}  // namespace

Selection greedy_select(const isel::ImpDatabase& db, const iplib::IpLibrary& lib,
                        const cdfg::Cdfg& entry_cdfg, const cdfg::CondTree& tree,
                        std::int64_t required_gain) {
  const std::vector<isel::Imp>& imps = db.imps();

  std::vector<isel::ImpIndex> chosen;
  std::set<ir::CallSiteId> taken;  // s-calls implemented so far
  std::vector<bool> blocked(imps.size(), false);  // excluded by SC-PC conflicts
  std::set<std::uint32_t> ips_used;  // IP ids instantiated so far

  while (true) {
    std::vector<std::int64_t> worst = worst_scope_gains(chosen, db, entry_cdfg, tree);
    if (worst[0] >= required_gain) break;
    // Top-down, parents first: the worst path through an arm is the worst
    // path through its parent scope with the conditional's smaller arm
    // swapped for this one.
    for (std::size_t c = 0; c < tree.conds.size(); ++c) {
      std::int64_t& t = worst[cdfg::CondTree::arm_scope(c, true)];
      std::int64_t& f = worst[cdfg::CondTree::arm_scope(c, false)];
      const std::int64_t rest = worst[tree.conds[c].parent_scope] - std::min(t, f);
      t += rest;
      f += rest;
    }
    const std::vector<double> through = open_paths_through(tree, worst, required_gain);

    // Pick the IMP with the best useful-gain / marginal-area ratio, if any
    // helps: the first strict maximum.
    double best_ratio = 0;
    isel::ImpIndex best = 0;
    for (std::size_t j = 0; j < imps.size(); ++j) {
      const isel::Imp& imp = imps[j];
      if (blocked[j] || taken.count(imp.scall)) continue;
      const isel::SCall* sc = db.scall_of(imp.scall);
      if (!sc || sc->node == cdfg::kInvalidNode) continue;
      // A consumed s-call that is already implemented in hardware blocks the
      // PC variant.
      if (std::any_of(imp.pc_consumed_scalls.begin(), imp.pc_consumed_scalls.end(),
                      [&](ir::CallSiteId c) { return taken.count(c) != 0; })) {
        continue;
      }

      const std::size_t s = tree.node_scope[sc->node];
      if (worst[s] >= required_gain) continue;
      const std::int64_t contribution =
          imp.gain_per_exec * entry_cdfg.node(sc->node).loop_frequency;
      const double useful = through[s] * static_cast<double>(std::min(
                                             contribution, required_gain - worst[s]));
      if (useful <= 0) continue;

      const double marginal_area =
          imp.interface_area + (ips_used.count(imp.ip.value) ? 0.0 : lib.ip(imp.ip).area);
      const double ratio = useful / std::max(marginal_area, 1e-9);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = static_cast<isel::ImpIndex>(j);
      }
    }

    if (best_ratio <= 0) return Selection{};  // greedy dead end: infeasible

    const isel::Imp& pick = imps[best];
    chosen.push_back(best);
    taken.insert(pick.scall);
    ips_used.insert(pick.ip.value);
    // Block every IMP whose PC consumes the picked s-call, and every IMP of
    // the s-calls the pick consumed.
    for (std::size_t j = 0; j < imps.size(); ++j) {
      for (ir::CallSiteId c : imps[j].pc_consumed_scalls) {
        if (c == pick.scall) blocked[j] = true;
      }
    }
    for (ir::CallSiteId c : pick.pc_consumed_scalls) {
      for (isel::ImpIndex j : db.imps_for(c)) blocked[j] = true;
    }
  }

  return decode_selection(chosen, db, lib, entry_cdfg, tree);
}

bool prior_art_allows(const isel::Imp& imp) {
  return imp.iface_type == iface::InterfaceType::kType0 &&
         imp.pc_use == isel::PcUse::kNone;
}

}  // namespace partita::select
