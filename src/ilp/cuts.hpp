// Root cutting planes for the 0/1 selection ILPs.
//
// Two families, both derived from row structure the selection formulation
// actually produces (and valid for any model with the same shape):
//
//   * clique cuts  sum_{Q} x <= 1  from greedy extensions of the presolve
//     clique table over the pairwise conflict graph (Eq. 1 / SC-PC rows give
//     the seed cliques; an extension merges overlapping at-most-ones). The
//     extensions do not depend on x, so lift_cliques computes them once;
//     separation only tests their activity;
//   * lifted (extended) cover cuts  sum_{C u E} x <= |C| - 1  from all-binary
//     knapsack <= rows (the power-budget row), with C a minimal cover and
//     E the columns at least as heavy as every cover member.
//
// The disaggregated implication cuts  x_j <= z  of the Eq. 3 fixed-charge
// rows are deliberately not separated: they are valid and tighten the root
// bound, but one row per (IMP, IP) pair makes every node LP dearer by more
// than the nodes it saves on the selection models (docs/ilp_solver.md).
//
// Every cut is valid for the *original* integer feasible set -- no
// integer-feasible point is ever cut off (the cut-validity property test
// enumerates feasible points against every separated cut). Separation only
// returns cuts violated by the supplied fractional point, which also makes
// repeated root rounds self-deduplicating: a cut already in the LP cannot be
// violated by that LP's optimum again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ilp/model.hpp"

namespace partita::ilp {

/// Minimum violation (activity minus rhs at the fractional point) for a
/// cut to be worth adding.
inline constexpr double kCutViolationTol = 1e-6;
/// Hard cap per separation round, strongest-family-first.
inline constexpr std::size_t kMaxCutsPerRound = 64;

/// One separated inequality, ready for Model::add_row.
struct Cut {
  std::string name;
  std::vector<Term> terms;
  RowSense sense = RowSense::kLessEqual;
  double rhs = 0.0;
};

/// A clique table entry grown greedily over the pairwise conflict graph
/// (u conflicts w iff some clique contains both). Pairwise conflicts make
/// "at most one" valid for every integer point: two members at 1 would
/// violate the at-most-one row that holds their pair.
struct LiftedClique {
  std::uint32_t source = 0;       // clique table index; names the cut
  std::vector<VarIndex> members;  // ascending, a strict superset of the source
};

/// Lifts every clique of the presolve table that the conflict graph can
/// extend, in table order, dropping extensions equal to an earlier one.
/// Independent of any fractional point and of the row set, so a solve (or a
/// batch sharing one clique table) lifts once and separates every root
/// round against the same list.
std::vector<LiftedClique> lift_cliques(const std::vector<std::vector<VarIndex>>& cliques,
                                       std::size_t var_count);

/// Separates cuts violated by the fractional point `x` (sized var_count()).
/// `lifted` is lift_cliques() of the presolve clique table. Deterministic:
/// identical inputs produce an identical cut list.
std::vector<Cut> separate_cuts(const Model& model, const std::vector<LiftedClique>& lifted,
                               const std::vector<double>& x);

}  // namespace partita::ilp
