// Baseline selectors.
//
// greedy_select: marginal gain-per-area heuristic. Repeatedly picks the IMP
// with the best (gain contributed to still-unsatisfied paths) / (marginal
// area: interface + IP if not yet instantiated) ratio until every enumerated
// path meets its requirement or no IMP helps; the answer is feasible only if
// the worst of all paths meets it. Respects Eq. 1 and the SC-PC conflicts,
// but has no optimality guarantee -- the ablation benches quantify the area
// it wastes versus the ILP.
//
// prior_art_select: models the pre-paper state of the art ([8]-style
// accelerator selection): interfaces are not co-optimized (everything goes
// through the cheapest software interface) and parallel execution is not
// exploited. Realized by filtering the IMP database to type-0, no-PC IMPs and
// running the exact ILP on the rest, so the comparison isolates exactly the
// paper's two contributions.
#pragma once

#include "select/selection.hpp"
#include "select/selector.hpp"

namespace partita::select {

Selection greedy_select(const isel::ImpDatabase& db, const iplib::IpLibrary& lib,
                        const cdfg::Cdfg& entry_cdfg,
                        const std::vector<cdfg::ExecPath>& paths,
                        std::int64_t required_gain);

/// IMP filter used by prior_art_select; exposed for tests.
bool prior_art_allows(const isel::Imp& imp);

Selection prior_art_select(const isel::ImpDatabase& db, const iplib::IpLibrary& lib,
                           const cdfg::Cdfg& entry_cdfg,
                           const std::vector<cdfg::ExecPath>& paths,
                           std::int64_t required_gain, const SelectOptions& opt = {});

}  // namespace partita::select
