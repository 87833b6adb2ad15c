// Baseline selectors.
//
// greedy_select: marginal gain-per-area heuristic on the conditional tree.
// Each step folds the chosen IMPs' gains per scope (worst_scope_gains) and
// stops once the worst path meets the requirement. Otherwise it picks the IMP
// with the best useful gain / marginal area (interface + IP if not yet
// instantiated) ratio. An IMP in scope s helps only while the worst path
// through s misses the requirement; its useful gain is its contribution,
// capped at that path's deficit, times the number of paths through s that
// cross no scope already met on all its paths. A step where no IMP helps is a
// dead end and answers infeasible. Respects Eq. 1 and the SC-PC conflicts,
// but has no optimality guarantee -- the ablation benches quantify the area
// it wastes versus the ILP.
//
// prior_art_allows: models the pre-paper state of the art ([8]-style
// accelerator selection): interfaces are not co-optimized (everything goes
// through the cheapest software interface) and parallel execution is not
// exploited. Flow::prior_art runs the exact ILP on the IMPs this filter keeps
// (type-0, no PC), so the comparison isolates exactly the paper's two
// contributions.
#pragma once

#include "select/selection.hpp"

namespace partita::select {

/// `tree` is entry_cdfg's conditional tree.
Selection greedy_select(const isel::ImpDatabase& db, const iplib::IpLibrary& lib,
                        const cdfg::Cdfg& entry_cdfg, const cdfg::CondTree& tree,
                        std::int64_t required_gain);

/// IMP filter of the prior-art baseline.
bool prior_art_allows(const isel::Imp& imp);

}  // namespace partita::select
