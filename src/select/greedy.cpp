#include "select/greedy.hpp"

#include <algorithm>
#include <set>

namespace partita::select {

Selection greedy_select(const isel::ImpDatabase& db, const iplib::IpLibrary& lib,
                        const cdfg::Cdfg& entry_cdfg,
                        const std::vector<cdfg::ExecPath>& paths,
                        std::int64_t required_gain) {
  const std::vector<isel::Imp>& imps = db.imps();

  std::vector<isel::ImpIndex> chosen;
  std::set<ir::CallSiteId> taken;  // s-calls implemented so far
  std::vector<bool> blocked(imps.size(), false);  // excluded by SC-PC conflicts
  std::vector<std::uint32_t> ips_used;

  auto path_deficit = [&](const cdfg::ExecPath& p) {
    return required_gain - path_gain(chosen, db, entry_cdfg, p);
  };

  while (true) {
    // Collect unsatisfied paths.
    std::vector<std::size_t> unsat;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (path_deficit(paths[p]) > 0) unsat.push_back(p);
    }
    if (unsat.empty()) break;

    // Pick the IMP with the best useful-gain / marginal-area ratio.
    double best_ratio = 0;
    isel::ImpIndex best = 0;
    bool found = false;
    for (std::size_t j = 0; j < imps.size(); ++j) {
      const isel::Imp& imp = imps[j];
      if (blocked[j] || taken.count(imp.scall)) continue;
      const isel::SCall* sc = db.scall_of(imp.scall);
      if (!sc || sc->node == cdfg::kInvalidNode) continue;
      // A consumed s-call that is already implemented in hardware blocks the
      // PC variant.
      bool conflict = false;
      for (ir::CallSiteId c : imp.pc_consumed_scalls) {
        if (taken.count(c)) conflict = true;
      }
      if (conflict) continue;

      std::int64_t useful = 0;
      for (std::size_t p : unsat) {
        if (!paths[p].contains(sc->node)) continue;
        const std::int64_t contribution =
            imp.gain_per_exec * entry_cdfg.node(sc->node).loop_frequency;
        useful += std::min(contribution, path_deficit(paths[p]));
      }
      if (useful <= 0) continue;

      double marginal_area = imp.interface_area;
      if (std::find(ips_used.begin(), ips_used.end(), imp.ip.value) == ips_used.end()) {
        marginal_area += lib.ip(imp.ip).area;
      }
      const double ratio =
          static_cast<double>(useful) / std::max(marginal_area, 1e-9);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = static_cast<isel::ImpIndex>(j);
        found = true;
      }
    }

    if (!found) {
      Selection sel;
      sel.feasible = false;  // greedy dead end
      return sel;
    }

    const isel::Imp& pick = imps[best];
    chosen.push_back(best);
    taken.insert(pick.scall);
    if (std::find(ips_used.begin(), ips_used.end(), pick.ip.value) == ips_used.end()) {
      ips_used.push_back(pick.ip.value);
    }
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

  Selection sel =
      decode_selection(chosen, db, lib, entry_cdfg, cdfg::conditional_tree(entry_cdfg));
  // The loop met the requirement on the enumerated paths only; past 12
  // conditionals a path the list never held can still miss it.
  if (sel.min_path_gain < required_gain) return Selection{};
  return sel;
}

bool prior_art_allows(const isel::Imp& imp) {
  return imp.iface_type == iface::InterfaceType::kType0 &&
         imp.pc_use == isel::PcUse::kNone;
}

Selection prior_art_select(const isel::ImpDatabase& db, const iplib::IpLibrary& lib,
                           const cdfg::Cdfg& entry_cdfg,
                           const std::vector<cdfg::ExecPath>& paths,
                           std::int64_t required_gain, const SelectOptions& opt) {
  Selector selector(db, lib, entry_cdfg, paths);
  SelectOptions prior = opt;
  prior.imp_filter = prior_art_allows;
  return selector.select(required_gain, prior);
}

}  // namespace partita::select
