#include "select/export.hpp"

#include <cstdio>
#include <sstream>

namespace partita::select {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string to_json(const Selection& sel, const isel::ImpDatabase& db,
                    const iplib::IpLibrary& lib, std::int64_t required_gain) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"feasible\": " << (sel.feasible ? "true" : "false") << ",\n";
  os << "  \"required_gain\": " << required_gain << ",\n";
  os << "  \"degradation\": {\"rung\": \"" << to_string(sel.rung)
     << "\", \"termination\": \"" << ilp::to_string(sel.solver.termination)
     << "\", \"detail\": \"" << json_escape(sel.degradation_detail) << "\"}";
  if (!sel.feasible) {
    os << "\n}\n";
    return os.str();
  }
  os << ",\n";
  os << "  \"guaranteed_gain\": " << sel.min_path_gain << ",\n";
  os << "  \"area\": {\"total\": " << num(sel.total_area()) << ", \"ip\": "
     << num(sel.ip_area) << ", \"interface\": " << num(sel.interface_area) << "},\n";
  os << "  \"power\": {\"total\": " << num(sel.total_power()) << ", \"ip\": "
     << num(sel.ip_power) << ", \"interface\": " << num(sel.interface_power) << "},\n";
  os << "  \"s_instructions\": " << sel.s_instructions << ",\n";
  os << "  \"selected_scalls\": " << sel.selected_scalls << ",\n";

  os << "  \"solver\": {\"nodes\": " << sel.solver.nodes
     << ", \"lp_iterations\": " << sel.solver.lp_iterations
     << ", \"warm_start_hit_rate\": " << num(sel.solver.warm_start_hit_rate())
     << ", \"presolve_fixed\": " << sel.solver.presolve_fixed
     << ", \"clique_propagations\": " << sel.solver.clique_propagations
     << ", \"waves\": " << sel.solver.waves
     << ", \"peak_arena_bytes\": " << sel.solver.peak_arena_bytes
     << ", \"pricing_candidate_scans\": " << sel.solver.pricing_candidate_scans
     << ", \"pricing_refreshes\": " << sel.solver.pricing_refreshes
     << ", \"root_lp_iterations\": " << sel.solver.root_lp_iterations
     << ", \"cuts_separated\": " << sel.solver.cuts_separated
     << ", \"cuts_applied\": " << sel.solver.cuts_applied
     << ", \"cut_rounds\": " << sel.solver.cut_rounds
     << ", \"batch_hits\": " << sel.solver.batch_hits
     << ", \"seeded_artifacts\": " << sel.solver.seeded_artifacts
     << ", \"truncated\": " << (sel.truncated ? "true" : "false")
     << ", \"optimality_gap\": " << num(sel.optimality_gap)
     << ", \"greedy_fallback\": " << (sel.greedy_fallback ? "true" : "false")
     << "},\n";

  os << "  \"ips\": [";
  for (std::size_t i = 0; i < sel.ips_used.size(); ++i) {
    if (i) os << ", ";
    os << '"' << json_escape(lib.ip(sel.ips_used[i]).name) << '"';
  }
  os << "],\n";

  os << "  \"imps\": [\n";
  for (std::size_t i = 0; i < sel.chosen.size(); ++i) {
    const isel::Imp& imp = db.imps()[sel.chosen[i]];
    const isel::SCall* sc = db.scall_of(imp.scall);
    os << "    {\"scall\": " << imp.scall.value() << ", \"callee\": \""
       << json_escape(sc ? sc->callee_name : "?") << "\", \"ip\": \""
       << json_escape(lib.ip(imp.ip).name) << "\", \"interface\": \""
       << iface::short_name(imp.iface_type) << "\", \"gain\": " << imp.gain
       << ", \"gain_per_exec\": " << imp.gain_per_exec
       << ", \"interface_area\": " << num(imp.interface_area)
       << ", \"flattened\": " << (imp.flattened ? "true" : "false")
       << ", \"parallel_code\": " << imp.parallel_cycles << ", \"consumed_scalls\": [";
    for (std::size_t c = 0; c < imp.pc_consumed_scalls.size(); ++c) {
      if (c) os << ", ";
      os << imp.pc_consumed_scalls[c].value();
    }
    os << "]}" << (i + 1 < sel.chosen.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace partita::select
