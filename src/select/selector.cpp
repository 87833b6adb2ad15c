#include "select/selector.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "ilp/fingerprint.hpp"
#include "select/greedy.hpp"
#include "support/assert.hpp"
#include "support/fault_injection.hpp"

namespace partita::select {

namespace {

/// Signature used by Problem 1's "same function => same implementation"
/// coupling: what the paper calls implementing two s-calls "in the same way".
struct ImplSignature {
  std::uint32_t ip;
  int iface;
  bool operator<(const ImplSignature& o) const {
    return ip != o.ip ? ip < o.ip : iface < o.iface;
  }
};

ImplSignature signature_of(const isel::Imp& imp) {
  return {imp.ip.value, static_cast<int>(imp.iface_type)};
}

/// Points Eq. 2's requirement row at `gain`. A non-positive gain gets the
/// row's never-binding floor, (sum of its negative coefficients) - 1, met by
/// every 0/1 point with y = 0, so the row binds nothing, as if it were absent.
void retarget(ilp::Model& m, ilp::RowIndex row, std::int64_t gain) {
  double floor = -1.0;
  for (const ilp::Term& t : m.row(row).terms) floor += std::min(0.0, t.coeff);
  m.set_rhs(row, gain > 0 ? static_cast<double>(gain) : floor);
}

/// The IMPs a solve's 0/1 point selects (x_j is column j).
std::vector<isel::ImpIndex> chosen_imps(const ilp::IlpResult& r, std::size_t imps) {
  std::vector<isel::ImpIndex> chosen;
  for (std::size_t j = 0; j < imps; ++j) {
    if (r.x[j] > 0.5) chosen.push_back(static_cast<isel::ImpIndex>(j));
  }
  return chosen;
}

}  // namespace

std::int64_t Selector::uniform_gain(const std::vector<std::int64_t>& required_gains) const {
  // invariant: callers expand one RG to one entry per path; no user input
  // reaches this signature.
  PARTITA_ASSERT(required_gains.size() == path_count_ && !required_gains.empty());
  PARTITA_ASSERT(std::all_of(required_gains.begin(), required_gains.end(),
                             [&](std::int64_t g) { return g == required_gains.front(); }));
  return required_gains.front();
}

ilp::Model Selector::build_model(const std::vector<std::int64_t>& required_gains,
                                 const SelectOptions& opt) const {
  ilp::RowIndex req;
  ilp::Model m = build_form(opt, &req);
  retarget(m, req, uniform_gain(required_gains));
  return m;
}

ilp::Model Selector::build_form(const SelectOptions& opt, ilp::RowIndex* gain_row) const {
  const std::vector<isel::Imp>& imps = db_.imps();

  ilp::Model m;
  m.set_sense(ilp::Sense::kMinimize);

  // Fault site for the differential oracle's shrinker demo: a tripped
  // "select.objective_skew" drops the interface-area terms from the
  // objective, so the solve stays feasible but can return a non-optimal
  // selection the oracle is expected to catch.
  const bool skew_objective = support::fault_should_trip("select.objective_skew");

  // --- x_ij ------------------------------------------------------------
  std::vector<ilp::VarIndex> x(imps.size());
  for (std::size_t j = 0; j < imps.size(); ++j) {
    x[j] = m.add_binary("x_sc" + std::to_string(imps[j].scall.value()) + "_imp" +
                            std::to_string(j),
                        skew_objective ? 0.0 : imps[j].interface_area);
    if (!opt.problem2 && imps[j].pc_use == isel::PcUse::kWithScallSw) {
      // Problem 1 forbids s-call software inside a PC.
      m.var(x[j]).upper = 0.0;
    }
    if (opt.imp_filter && !opt.imp_filter(imps[j])) {
      m.var(x[j]).upper = 0.0;
    }
  }

  // --- z_k (fixed charge per IP actually used) --------------------------
  std::map<std::uint32_t, ilp::VarIndex> z;
  for (const isel::Imp& imp : imps) {
    if (!z.count(imp.ip.value)) {
      z[imp.ip.value] =
          m.add_binary("z_" + lib_.ip(imp.ip).name, lib_.ip(imp.ip).area);
    }
  }

  // --- Eq. 1: at most one IMP per s-call --------------------------------
  for (const isel::SCall& sc : db_.scalls()) {
    std::vector<ilp::Term> terms;
    for (isel::ImpIndex j : db_.imps_for(sc.site)) terms.push_back({x[j], 1.0});
    if (!terms.empty()) {
      m.add_row("one_imp_sc" + std::to_string(sc.site.value()), std::move(terms),
                ilp::RowSense::kLessEqual, 1.0);
    }
  }

  // --- Eq. 2 as a worst-path tree ------------------------------------------
  // "Every path >= T" is "the worst path >= T". The worst path's gain is the
  // straight-line gain plus, per conditional c, the min over c's arms of the
  // arm's gain (its terms plus its nested conditionals' y). y_c <= each arm's
  // gain, so any feasible y_c is at most that min, and y_c = min is feasible:
  // the rows project onto exactly the per-path rows' x-set, LP included. The
  // y columns come after x and z, so they sort last in the lex tie-break.
  // Every Eq. 2 row is built with RHS 0; the caller retargets the
  // requirement row.

  // Eq. 2's gain terms g_ij x_ij per scope of the conditional tree.
  std::vector<std::vector<ilp::Term>> scope(tree_.scope_count());
  for (std::size_t j = 0; j < imps.size(); ++j) {
    const isel::SCall* sc = db_.scall_of(imps[j].scall);
    if (!sc || sc->node == cdfg::kInvalidNode) continue;
    scope[tree_.node_scope[sc->node]].push_back(
        {x[j], static_cast<double>(imps[j].gain_per_exec) *
                   static_cast<double>(entry_cdfg_.node(sc->node).loop_frequency)});
  }
  const std::size_t nc = tree_.conds.size();
  std::vector<std::vector<std::size_t>> kids(tree_.scope_count());
  for (std::size_t c = 0; c < nc; ++c) kids[tree_.conds[c].parent_scope].push_back(c);
  // y_c's bound: the larger arm's coefficient sum, nested conditionals at
  // their own bound (children follow their parents in tree_.conds).
  std::vector<double> arm_sum(tree_.scope_count(), 0.0);
  for (std::size_t sc = 0; sc < scope.size(); ++sc) {
    for (const ilp::Term& t : scope[sc]) arm_sum[sc] += t.coeff;
  }
  std::vector<double> y_ub(nc);
  for (std::size_t c = nc; c-- > 0;) {
    y_ub[c] = std::max(arm_sum[cdfg::CondTree::arm_scope(c, true)],
                       arm_sum[cdfg::CondTree::arm_scope(c, false)]);
    arm_sum[tree_.conds[c].parent_scope] += y_ub[c];
  }
  std::vector<ilp::VarIndex> y(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    y[c] = m.add_continuous("y_if" + std::to_string(tree_.conds[c].stmt.value()), 0.0,
                            y_ub[c], 0.0);
  }
  std::vector<ilp::Term> req = scope[0];
  for (std::size_t c : kids[0]) req.push_back({y[c], 1.0});
  *gain_row = m.add_row("gain_path0", std::move(req), ilp::RowSense::kGreaterEqual, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    for (const bool then_arm : {true, false}) {
      const std::size_t arm = cdfg::CondTree::arm_scope(c, then_arm);
      std::vector<ilp::Term> terms{{y[c], 1.0}};
      for (const ilp::Term& t : scope[arm]) terms.push_back({t.var, -t.coeff});
      for (std::size_t k : kids[arm]) terms.push_back({y[k], -1.0});
      m.add_row("arm_if" + std::to_string(tree_.conds[c].stmt.value()) +
                    (then_arm ? "_then" : "_else"),
                std::move(terms), ilp::RowSense::kLessEqual, 0.0);
    }
  }

  // --- fixed charge: IP area counted once --------------------------------
  // Eq. 1 lets at most one IMP per s-call be chosen, so M_k is the number of
  // distinct s-calls with an IMP on IP k, not the (larger) number of IMPs:
  // same integer feasible set, tighter LP relaxation.
  for (const auto& [ip_raw, zvar] : z) {
    std::vector<ilp::Term> terms;
    std::set<ir::CallSiteId> scalls;
    for (std::size_t j = 0; j < imps.size(); ++j) {
      if (imps[j].ip.value != ip_raw) continue;
      terms.push_back({x[j], 1.0});
      scalls.insert(imps[j].scall);
    }
    terms.push_back({zvar, -static_cast<double>(scalls.size())});
    m.add_row("fc_ip" + std::to_string(ip_raw), std::move(terms),
              ilp::RowSense::kLessEqual, 0.0);
  }

  // --- optional power budget ---------------------------------------------
  if (opt.max_power) {
    std::vector<ilp::Term> terms;
    for (std::size_t j = 0; j < imps.size(); ++j) {
      if (imps[j].interface_power > 0) terms.push_back({x[j], imps[j].interface_power});
    }
    for (const auto& [ip_raw, zvar] : z) {
      const double p = lib_.ip(iplib::IpId{ip_raw}).power;
      if (p > 0) terms.push_back({zvar, p});
    }
    m.add_row("power_budget", std::move(terms), ilp::RowSense::kLessEqual, *opt.max_power);
  }

  // --- Problem 1: same function => same implementation -------------------
  if (!opt.problem2) {
    const auto& scalls = db_.scalls();
    for (std::size_t a = 0; a < scalls.size(); ++a) {
      for (std::size_t b = a + 1; b < scalls.size(); ++b) {
        if (scalls[a].callee != scalls[b].callee) continue;
        // For every implementation signature, both s-calls commit equally.
        std::map<ImplSignature, std::pair<std::vector<ilp::Term>, std::vector<ilp::Term>>>
            by_sig;
        for (isel::ImpIndex j : db_.imps_for(scalls[a].site)) {
          by_sig[signature_of(db_.imps()[j])].first.push_back({x[j], 1.0});
        }
        for (isel::ImpIndex j : db_.imps_for(scalls[b].site)) {
          by_sig[signature_of(db_.imps()[j])].second.push_back({x[j], 1.0});
        }
        int sig_idx = 0;
        for (auto& [sig, pair] : by_sig) {
          std::vector<ilp::Term> terms = pair.first;
          for (ilp::Term t : pair.second) terms.push_back({t.var, -1.0});
          m.add_row("p1_sc" + std::to_string(scalls[a].site.value()) + "_sc" +
                        std::to_string(scalls[b].site.value()) + "_" +
                        std::to_string(sig_idx++),
                    std::move(terms), ilp::RowSense::kEqual, 0.0);
        }
      }
    }
  }

  // --- SC-PC conflicts (Problem 2 selection rule) -------------------------
  // Aggregated form: selecting IMP-A (whose PC absorbs SC_m's software)
  // excludes every IMP of SC_m at once:  x_A + sum_j x_mj <= 1. Equivalent
  // to the pairwise rule but one row per (A, SC_m) and a tighter relaxation.
  if (opt.problem2) {
    for (std::size_t a = 0; a < imps.size(); ++a) {
      for (ir::CallSiteId consumed : imps[a].pc_consumed_scalls) {
        std::vector<ilp::Term> terms{{x[a], 1.0}};
        for (isel::ImpIndex b : db_.imps_for(consumed)) terms.push_back({x[b], 1.0});
        if (terms.size() > 1) {
          m.add_row("scpc_" + std::to_string(a) + "_sc" +
                        std::to_string(consumed.value()),
                    std::move(terms), ilp::RowSense::kLessEqual, 1.0);
        }
      }
    }
  }

  return m;
}

Selection Selector::finish_selection(const ilp::IlpResult& r, std::int64_t required_gain,
                                     const SelectOptions& opt) const {
  // Degradation ladder, rung 1 + 2: the exact ILP under its resource
  // budget. A completed search answers rung 1 (proven optimum) or proves
  // infeasibility; a truncated one leaves the best incumbent for rung 2.
  const bool truncated = ilp::is_truncated(r.status);

  Selection sel;
  if (r.has_solution) {
    sel = decode_selection(chosen_imps(r, db_.imps().size()), db_, lib_, entry_cdfg_, tree_);
  }

  // Rung 3: a truncated search may have no incumbent at all, or one that is
  // far from the proven bound; the greedy baseline is a cheap, deterministic
  // safety net. It only understands the default constraint system and a
  // uniform requirement, so it is skipped for filtered/power-capped/
  // Problem-1 runs -- and for cancelled solves, where the caller asked the
  // work to stop rather than for a cheaper answer.
  const bool cancelled =
      r.stats.termination == ilp::TerminationReason::kCancelled;
  if (truncated && !cancelled && !opt.imp_filter && !opt.max_power && opt.problem2) {
    Selection greedy = greedy_select(db_, lib_, entry_cdfg_, tree_, required_gain);
    if (greedy.feasible &&
        (!sel.feasible || greedy.total_area() < sel.total_area())) {
      greedy.greedy_fallback = true;
      sel = std::move(greedy);
    }
  }

  sel.solver = r.stats;
  sel.truncated = truncated;
  if (truncated && sel.feasible) {
    sel.optimality_gap = std::abs(sel.total_area() - r.best_bound) /
                         std::max(1.0, std::abs(sel.total_area()));
  }

  // Label which rung answered and why, so every consumer (CLI, JSON export,
  // chip report) reports an honest quality level instead of a bare answer.
  const char* why = ilp::to_string(r.stats.termination);
  if (!sel.feasible) {
    sel.rung = DegradationRung::kInfeasible;
    sel.degradation_detail = truncated
        ? "search stopped (" + std::string(why) +
              ") before any feasible incumbent; infeasibility not proven"
        : "constraint system proven infeasible: no IMP set meets the "
          "required per-path gains";
  } else if (!truncated) {
    sel.rung = DegradationRung::kOptimal;
  } else if (sel.greedy_fallback) {
    sel.rung = DegradationRung::kGreedyFallback;
    sel.degradation_detail =
        "greedy baseline answered after " + std::string(why) + " truncation";
  } else {
    sel.rung = DegradationRung::kGapBounded;
    sel.degradation_detail = "ILP truncated (" + std::string(why) +
                             "); incumbent proven within " +
                             std::to_string(sel.optimality_gap * 100.0) +
                             "% of the optimum";
  }
  return sel;
}

Selection Selector::select(std::int64_t required_gain, const SelectOptions& opt) const {
  return std::move(select_batch({required_gain}, opt).front());
}

std::vector<Selection> Selector::select_batch(
    const std::vector<std::int64_t>& required_gains, const SelectOptions& opt,
    const BatchItemHook& per_item) const {
  ilp::BatchContext ctx;
  ctx.carry_search_state = true;
  return solve_ladder(required_gains, opt, per_item, ctx, nullptr);
}

Selection Selector::select_seeded(const std::vector<std::int64_t>& required_gains,
                                  const SelectOptions& opt, ilp::BatchContext* batch,
                                  bool* redone_cold) const {
  PARTITA_ASSERT(batch != nullptr);
  if (redone_cold != nullptr) *redone_cold = false;
  return std::move(
      solve_ladder({uniform_gain(required_gains)}, opt, {}, *batch, redone_cold).front());
}

std::vector<Selection> Selector::solve_ladder(
    const std::vector<std::int64_t>& required_gains, const SelectOptions& opt,
    const BatchItemHook& per_item, ilp::BatchContext& ctx, bool* redone) const {
  if (required_gains.empty()) return {};

  // One model for the whole ladder; items only retarget the requirement
  // row's RHS below.
  ilp::RowIndex req;
  ilp::Model m = build_form(opt, &req);

  std::vector<ilp::IlpOptions> iopts(required_gains.size(), opt.ilp);
  if (per_item) {
    for (std::size_t i = 0; i < required_gains.size(); ++i) per_item(i, iopts[i]);
  }

  // Hardest item first: with carried search state every later item starts
  // from the previous optimum, which a lower requirement usually keeps
  // feasible (offer_incumbent re-audits it either way).
  std::vector<std::size_t> order(required_gains.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return required_gains[a] > required_gains[b];
  });

  std::vector<Selection> out(required_gains.size());
  for (const std::size_t i : order) {
    retarget(m, req, required_gains[i]);
    // Any earlier solve through ctx -- a previous item or a cache seed --
    // counts as carried state.
    const bool carried = ctx.items > 0;
    ilp::IlpResult r = ilp::solve_ilp(m, iopts[i], &ctx);
    if (carried && ilp::is_truncated(r.status) &&
        r.stats.termination != ilp::TerminationReason::kCancelled) {
      // Carried state is answer-neutral only for completed searches: redo a
      // truncated item from a fresh context, as a standalone solve, and
      // carry that context on.
      ilp::BatchContext fresh;
      fresh.carry_search_state = ctx.carry_search_state;
      ctx = std::move(fresh);
      r = ilp::solve_ilp(m, iopts[i], &ctx);
      if (redone != nullptr) *redone = true;
    }
    out[i] = finish_selection(r, required_gains[i], opt);
  }
  return out;
}

std::uint64_t Selector::answer_map_digest() const {
  std::uint64_t h = ilp::fp_mix(db_.imps().size());
  for (const isel::Imp& imp : db_.imps()) {
    h = ilp::fp_mix(h ^ imp.scall.value());
    h = ilp::fp_mix(h ^ imp.ip.value);
    h = ilp::fp_mix(h ^ static_cast<std::uint64_t>(imp.iface_type));
    h = ilp::fp_mix(h ^ ilp::fp_double(imp.interface_area));
    h = ilp::fp_mix(h ^ ilp::fp_double(imp.interface_power));
  }
  for (const iplib::IpDescriptor& ip : lib_.all()) {
    h = ilp::fp_mix(h ^ ilp::fp_double(ip.area));
    h = ilp::fp_mix(h ^ ilp::fp_double(ip.power));
  }
  return h;
}

std::int64_t Selector::max_feasible_gain(const SelectOptions& opt) const {
  ilp::RowIndex req;
  ilp::Model m = build_form(opt, &req);

  // Upper bound for G_min: everything selected at once (ignoring conflicts).
  double ub = 1.0;
  for (const isel::Imp& imp : db_.imps()) {
    ub += static_cast<double>(std::max<std::int64_t>(imp.gain, imp.gain_per_exec)) *
          1024.0;  // generous headroom for loop frequencies
  }

  m.set_sense(ilp::Sense::kMaximize);
  for (std::size_t v = 0; v < m.var_count(); ++v) {
    ilp::Variable& var = m.var(static_cast<ilp::VarIndex>(v));
    var.objective = 0.0;  // area is irrelevant here
    // Without a power budget an IP column z_k sits only in its own
    // fixed-charge row, with a negative coefficient, and area is not in
    // this objective: z_k = 1 keeps every point feasible and G unchanged.
    // Fixed there, it is not an objective-free fractional column to branch
    // on.
    if (!opt.max_power && var.kind == ilp::VarKind::kBinary &&
        var.name.rfind("z_", 0) == 0) {
      var.lower = var.upper;
    }
  }
  const ilp::VarIndex gmin = m.add_continuous("G_min", 0.0, ub, 1.0);

  // The requirement row becomes sum(gains) + sum(y) - G_min >= 0.
  m.append_term(req, {gmin, -1.0});

  // Only the objective value is consumed here; skip the canonical tie-break
  // (the all-zero binary objective makes the equal-objective plateau huge).
  ilp::IlpOptions bound_opt = opt.ilp;
  bound_opt.canonical_ties = false;
  const ilp::IlpResult r = ilp::solve_ilp(m, bound_opt);
  if (!r.has_solution) return 0;
  // G_min exactly, in integers, from the selection the solve found: the
  // floating objective can sit just below the integer optimum, and
  // truncating it would derive a gain one too low. G_min's own bound caps
  // it as in the model.
  return std::min(static_cast<std::int64_t>(ub),
                  worst_scope_gains(chosen_imps(r, db_.imps().size()), db_, entry_cdfg_,
                                    tree_)[0]);
}

}  // namespace partita::select
