#include "oracle/differential.hpp"

#include <cmath>
#include <string>

#include "ilp/simplex.hpp"
#include "select/flow.hpp"

namespace partita::oracle {

namespace {

constexpr double kAreaTol = 1e-6;

isel::EnumerateOptions enumerate_options(const DiffOptions& opt) {
  isel::EnumerateOptions eo;
  eo.problem2 = opt.problem2;
  return eo;
}

select::SelectOptions select_options(const DiffOptions& opt) {
  select::SelectOptions so;
  so.problem2 = opt.problem2;
  return so;
}

std::int64_t derive_rg(const select::Flow& flow, const select::SelectOptions& so,
                       std::int64_t pinned) {
  if (pinned > 0) return pinned;
  const std::int64_t gmax = flow.max_feasible_gain(so);
  return static_cast<std::int64_t>(static_cast<double>(gmax) * kRgFraction);
}

DiffResult run_differential(const workloads::Workload& wl, std::int64_t pinned_rg,
                            const DiffOptions& opt) {
  DiffResult r;
  const select::Flow flow(wl.module, wl.library, enumerate_options(opt));
  const select::SelectOptions so = select_options(opt);
  r.required_gain = derive_rg(flow, so, pinned_rg);

  const select::Selection sel = flow.select(r.required_gain, so);
  r.ilp_feasible = sel.feasible;
  r.ilp_area = sel.total_area();
  r.rung = select::to_string(sel.rung);

  OracleOptions oo;
  oo.problem2 = opt.problem2;
  const OracleResult oracle =
      exhaustive_select(flow.imp_database(), flow.library(), flow.entry_cdfg(),
                        flow.paths(), r.required_gain, oo);
  if (!oracle.exhausted) {
    r.skipped = true;
    r.detail = "oracle enumeration guard struck after " +
               std::to_string(oracle.visited) + " nodes";
    return r;
  }
  r.oracle_feasible = oracle.feasible;
  r.oracle_area = oracle.total_area;

  if (oracle.feasible != sel.feasible) {
    r.detail = std::string("feasibility mismatch: oracle=") +
               (oracle.feasible ? "feasible" : "infeasible") + " ilp=" +
               (sel.feasible ? "feasible" : "infeasible") + " rung=" + r.rung;
    return r;
  }
  if (!sel.feasible) {
    r.ok = true;  // both proved infeasible
    return r;
  }
  if (sel.rung != select::DegradationRung::kOptimal) {
    r.detail = "selector answered on degraded rung '" + r.rung +
               "' for an enumerable instance";
    return r;
  }
  const std::string audit =
      check_selection(flow.imp_database(), flow.entry_cdfg(), flow.paths(),
                      r.required_gain, sel.chosen, oo);
  if (!audit.empty()) {
    r.detail = "ILP selection failed the oracle audit: " + audit;
    return r;
  }
  if (std::fabs(r.ilp_area - r.oracle_area) > kAreaTol) {
    r.detail = "area mismatch: oracle=" + std::to_string(r.oracle_area) +
               " ilp=" + std::to_string(r.ilp_area) +
               " rg=" + std::to_string(r.required_gain);
    return r;
  }
  r.ok = true;
  return r;
}

}  // namespace

DiffResult differential_check(const workloads::Workload& wl, const DiffOptions& opt) {
  return run_differential(wl, 0, opt);
}

DiffResult differential_check_spec(const workloads::InstanceSpec& spec,
                                   const DiffOptions& opt) {
  if (!workloads::spec_valid(spec)) {
    DiffResult r;
    r.detail = "invalid instance spec";
    return r;
  }
  const workloads::Workload wl = workloads::spec_workload(spec);
  return run_differential(wl, spec.required_gain, opt);
}

SandwichResult sandwich_check(const workloads::Workload& wl, const DiffOptions& opt) {
  SandwichResult r;
  const select::Flow flow(wl.module, wl.library, enumerate_options(opt));
  const select::SelectOptions so = select_options(opt);
  r.required_gain = derive_rg(flow, so, 0);

  const select::Selection sel = flow.select(r.required_gain, so);
  r.feasible = sel.feasible;
  r.ilp_area = sel.total_area();

  const select::Selection greedy = flow.greedy(r.required_gain);
  r.greedy_feasible = greedy.feasible;
  r.greedy_area = greedy.total_area();

  if (!sel.feasible) {
    // Integer infeasibility cannot coexist with a feasible greedy point.
    if (greedy.feasible) {
      r.detail = "ILP reports infeasible but greedy found a feasible point (area " +
                 std::to_string(r.greedy_area) + ")";
      return r;
    }
    r.ok = true;
    return r;
  }

  OracleOptions oo;
  oo.problem2 = opt.problem2;
  const std::string audit =
      check_selection(flow.imp_database(), flow.entry_cdfg(), flow.paths(),
                      r.required_gain, sel.chosen, oo);
  if (!audit.empty()) {
    r.detail = "ILP selection failed the oracle audit: " + audit;
    return r;
  }

  const ilp::Model model = flow.selector().build_model(
      std::vector<std::int64_t>(flow.paths().size(), r.required_gain), so);
  const ilp::LpResult lp = ilp::solve_lp(model);
  if (lp.status == ilp::LpStatus::kOptimal) {
    r.lp_bound = lp.objective;
    if (r.lp_bound > r.ilp_area + kAreaTol) {
      r.detail = "LP lower bound " + std::to_string(r.lp_bound) +
                 " exceeds ILP area " + std::to_string(r.ilp_area);
      return r;
    }
  }
  if (greedy.feasible && r.ilp_area > r.greedy_area + kAreaTol) {
    r.detail = "ILP area " + std::to_string(r.ilp_area) +
               " exceeds greedy upper bound " + std::to_string(r.greedy_area);
    return r;
  }
  r.ok = true;
  return r;
}

}  // namespace partita::oracle
