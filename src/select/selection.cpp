#include "select/selection.hpp"

#include <algorithm>
#include <sstream>

#include "support/json.hpp"
#include "support/strings.hpp"

namespace partita::select {

const char* to_string(DegradationRung r) {
  switch (r) {
    case DegradationRung::kOptimal:
      return "optimal";
    case DegradationRung::kGapBounded:
      return "gap-bounded";
    case DegradationRung::kGreedyFallback:
      return "greedy-fallback";
    case DegradationRung::kInfeasible:
      return "infeasible";
  }
  return "?";
}

std::int64_t path_gain(const std::vector<isel::ImpIndex>& chosen,
                       const isel::ImpDatabase& db, const cdfg::Cdfg& entry_cdfg,
                       const cdfg::ExecPath& path) {
  std::int64_t g = 0;
  for (isel::ImpIndex idx : chosen) {
    const isel::Imp& imp = db.imps()[idx];
    const isel::SCall* sc = db.scall_of(imp.scall);
    if (!sc || sc->node == cdfg::kInvalidNode) continue;
    if (!path.contains(sc->node)) continue;
    g += imp.gain_per_exec * entry_cdfg.node(sc->node).loop_frequency;
  }
  return g;
}

std::vector<std::int64_t> worst_scope_gains(const std::vector<isel::ImpIndex>& chosen,
                                            const isel::ImpDatabase& db,
                                            const cdfg::Cdfg& entry_cdfg,
                                            const cdfg::CondTree& tree) {
  std::vector<std::int64_t> gain(tree.scope_count(), 0);
  for (isel::ImpIndex idx : chosen) {
    const isel::Imp& imp = db.imps()[idx];
    const isel::SCall* sc = db.scall_of(imp.scall);
    if (!sc || sc->node == cdfg::kInvalidNode) continue;
    gain[tree.node_scope[sc->node]] +=
        imp.gain_per_exec * entry_cdfg.node(sc->node).loop_frequency;
  }
  // Children follow their parents in tree.conds, so innermost arms fold first.
  for (std::size_t c = tree.conds.size(); c-- > 0;) {
    gain[tree.conds[c].parent_scope] +=
        std::min(gain[cdfg::CondTree::arm_scope(c, true)],
                 gain[cdfg::CondTree::arm_scope(c, false)]);
  }
  return gain;
}

Selection decode_selection(const std::vector<isel::ImpIndex>& chosen,
                           const isel::ImpDatabase& db, const iplib::IpLibrary& lib,
                           const cdfg::Cdfg& entry_cdfg, const cdfg::CondTree& tree) {
  Selection sel;
  sel.feasible = true;
  sel.chosen = chosen;
  std::sort(sel.chosen.begin(), sel.chosen.end(),
            [&](isel::ImpIndex a, isel::ImpIndex b) {
              return db.imps()[a].scall < db.imps()[b].scall;
            });

  std::vector<std::pair<std::uint32_t, int>> s_instr;  // (ip, iface) pairs
  for (isel::ImpIndex idx : sel.chosen) {
    const isel::Imp& imp = db.imps()[idx];
    if (std::find(sel.ips_used.begin(), sel.ips_used.end(), imp.ip) ==
        sel.ips_used.end()) {
      sel.ips_used.push_back(imp.ip);
      sel.ip_area += lib.ip(imp.ip).area;
      sel.ip_power += lib.ip(imp.ip).power;
    }
    sel.interface_area += imp.interface_area;
    sel.interface_power += imp.interface_power;
    const std::pair<std::uint32_t, int> key{imp.ip.value,
                                            static_cast<int>(imp.iface_type)};
    if (std::find(s_instr.begin(), s_instr.end(), key) == s_instr.end()) {
      s_instr.push_back(key);
    }
  }
  sel.s_instructions = static_cast<int>(s_instr.size());
  sel.selected_scalls = static_cast<int>(sel.chosen.size());

  sel.min_path_gain = worst_scope_gains(sel.chosen, db, entry_cdfg, tree)[0];
  return sel;
}

std::string Selection::describe(const isel::ImpDatabase& db,
                                const iplib::IpLibrary& lib) const {
  if (!feasible) return "(infeasible)";
  std::ostringstream os;
  bool first = true;
  for (isel::ImpIndex idx : chosen) {
    const isel::Imp& imp = db.imps()[idx];
    if (!first) os << ", ";
    first = false;
    os << "SC" << imp.scall.value() << ":" << imp.cell(lib);
  }
  if (truncated) {
    os << " [gap<=" << optimality_gap * 100.0 << "%"
       << (greedy_fallback ? ", greedy fallback" : "") << "]";
  }
  return os.str();
}

std::string solution_signature(const Selection& sel) {
  std::ostringstream os;
  os << "feasible=" << (sel.feasible ? 1 : 0) << "|chosen=";
  for (std::size_t i = 0; i < sel.chosen.size(); ++i) {
    if (i) os << ',';
    os << sel.chosen[i];
  }
  os << "|ips=";
  for (std::size_t i = 0; i < sel.ips_used.size(); ++i) {
    if (i) os << ',';
    os << sel.ips_used[i].value;
  }
  os << "|ip_area=" << support::json::fmt_double(sel.ip_area)
     << "|if_area=" << support::json::fmt_double(sel.interface_area)
     << "|ip_power=" << support::json::fmt_double(sel.ip_power)
     << "|if_power=" << support::json::fmt_double(sel.interface_power)
     << "|S=" << sel.s_instructions << "|O=" << sel.selected_scalls
     << "|gain=" << sel.min_path_gain << "|rung=" << to_string(sel.rung);
  return os.str();
}

}  // namespace partita::select
