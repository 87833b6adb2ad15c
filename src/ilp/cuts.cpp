#include "ilp/cuts.hpp"

#include <algorithm>
#include <cstdint>
#include <set>

namespace partita::ilp {

namespace {

constexpr double kEps = 1e-9;

bool is_binary(const Model& model, VarIndex v) {
  return model.var(v).kind == VarKind::kBinary;
}

/// Clique cuts: emits each lifted clique (see lift_cliques) that the
/// fractional point packs more than 1 into.
void separate_cliques(const std::vector<LiftedClique>& lifted,
                      const std::vector<double>& x, std::vector<Cut>& out) {
  for (const LiftedClique& lc : lifted) {
    if (out.size() >= kMaxCutsPerRound) return;
    double activity = 0.0;
    for (VarIndex v : lc.members) activity += x[v];
    if (activity <= 1.0 + kCutViolationTol) continue;
    Cut cut;
    cut.name = "cut_clique" + std::to_string(lc.source);
    cut.terms.reserve(lc.members.size());
    for (VarIndex v : lc.members) cut.terms.push_back({v, 1.0});
    cut.sense = RowSense::kLessEqual;
    cut.rhs = 1.0;
    out.push_back(std::move(cut));
  }
}

/// Extended cover cuts from all-binary knapsack <= rows: C is a greedy
/// minimal cover (sum_C a_j > rhs, every proper subset fits), which makes
/// sum_C x <= |C| - 1 valid; extending by E = {j : a_j >= max_C a_i} keeps
/// validity (any |C| columns of C u E already overflow the knapsack).
void separate_covers(const Model& model, const std::vector<double>& x,
                     std::vector<Cut>& out) {
  const std::size_t m = model.row_count();
  for (std::size_t r = 0; r < m; ++r) {
    if (out.size() >= kMaxCutsPerRound) return;
    const Row& row = model.row(static_cast<RowIndex>(r));
    if (row.sense != RowSense::kLessEqual) continue;
    if (row.rhs <= kEps || row.terms.size() < 2) continue;
    bool shape_ok = true;
    double total = 0.0;
    for (const Term& t : row.terms) {
      if (!is_binary(model, t.var) || t.coeff <= kEps) {
        shape_ok = false;
        break;
      }
      total += t.coeff;
    }
    if (!shape_ok || total <= row.rhs + kEps) continue;  // never binding

    // Greedy cover: most fractional-weight-per-area first ((1-x)/a
    // ascending), ties to the lower variable index.
    std::vector<const Term*> order;
    order.reserve(row.terms.size());
    for (const Term& t : row.terms) order.push_back(&t);
    std::stable_sort(order.begin(), order.end(), [&](const Term* a, const Term* b) {
      const double ka = (1.0 - x[a->var]) / a->coeff;
      const double kb = (1.0 - x[b->var]) / b->coeff;
      return ka != kb ? ka < kb : a->var < b->var;
    });
    std::vector<const Term*> cover;
    double weight = 0.0;
    for (const Term* t : order) {
      cover.push_back(t);
      weight += t->coeff;
      if (weight > row.rhs + kEps) break;
    }
    if (weight <= row.rhs + kEps) continue;  // all items together fit: no cover
    // Minimalize: drop members whose removal still overflows (heaviest-first
    // keeps the strongest small cover).
    std::stable_sort(cover.begin(), cover.end(), [](const Term* a, const Term* b) {
      return a->coeff != b->coeff ? a->coeff > b->coeff : a->var < b->var;
    });
    for (std::size_t i = 0; i < cover.size();) {
      if (weight - cover[i]->coeff > row.rhs + kEps) {
        weight -= cover[i]->coeff;
        cover.erase(cover.begin() + i);
      } else {
        ++i;
      }
    }
    if (cover.size() < 2) continue;
    double max_cover_coeff = 0.0;
    for (const Term* t : cover) max_cover_coeff = std::max(max_cover_coeff, t->coeff);
    // Extension: columns at least as heavy as every cover member.
    std::vector<VarIndex> lhs;
    for (const Term* t : cover) lhs.push_back(t->var);
    for (const Term& t : row.terms) {
      if (t.coeff >= max_cover_coeff - kEps &&
          std::find(lhs.begin(), lhs.end(), t.var) == lhs.end()) {
        lhs.push_back(t.var);
      }
    }
    const double rhs = static_cast<double>(cover.size()) - 1.0;
    double activity = 0.0;
    for (VarIndex v : lhs) activity += x[v];
    if (activity <= rhs + kCutViolationTol) continue;
    std::sort(lhs.begin(), lhs.end());
    Cut cut;
    cut.name = "cut_cover_r" + std::to_string(r);
    cut.terms.reserve(lhs.size());
    for (VarIndex v : lhs) cut.terms.push_back({v, 1.0});
    cut.sense = RowSense::kLessEqual;
    cut.rhs = rhs;
    out.push_back(std::move(cut));
  }
}

}  // namespace

std::vector<LiftedClique> lift_cliques(
    const std::vector<std::vector<VarIndex>>& cliques, std::size_t var_count) {
  std::vector<LiftedClique> lifted;
  if (cliques.empty()) return lifted;
  std::vector<std::vector<std::uint32_t>> var_cliques(var_count);
  for (std::uint32_t c = 0; c < cliques.size(); ++c) {
    for (VarIndex v : cliques[c]) var_cliques[v].push_back(c);
  }
  auto conflict = [&](VarIndex u, VarIndex w) {
    const auto& cu = var_cliques[u];
    const auto& cw = var_cliques[w];
    // Clique id lists are ascending by construction; merge-scan them.
    std::size_t a = 0, b = 0;
    while (a < cu.size() && b < cw.size()) {
      if (cu[a] == cw[b]) return true;
      cu[a] < cw[b] ? ++a : ++b;
    }
    return false;
  };

  std::set<std::vector<VarIndex>> seen;
  for (std::uint32_t c = 0; c < cliques.size(); ++c) {
    std::vector<VarIndex> members = cliques[c];
    // Deterministic greedy extension: lowest conflicting variable first.
    for (VarIndex w = 0; w < var_count; ++w) {
      if (var_cliques[w].empty()) continue;
      if (std::find(members.begin(), members.end(), w) != members.end()) continue;
      bool all = true;
      for (VarIndex u : members) {
        if (!conflict(u, w)) {
          all = false;
          break;
        }
      }
      if (all) members.push_back(w);
    }
    if (members.size() <= cliques[c].size()) continue;  // no lift: row dominates
    std::sort(members.begin(), members.end());
    // Equal extensions have equal activity at every point, so only the
    // lowest source can ever be emitted.
    if (!seen.insert(members).second) continue;
    lifted.push_back({c, std::move(members)});
  }
  return lifted;
}

// Strongest family first (cliques, then covers), so the per-round cap
// drops the weaker cuts.
std::vector<Cut> separate_cuts(const Model& model, const std::vector<LiftedClique>& lifted,
                               const std::vector<double>& x) {
  std::vector<Cut> out;
  separate_cliques(lifted, x, out);
  separate_covers(model, x, out);
  if (out.size() > kMaxCutsPerRound) out.resize(kMaxCutsPerRound);
  return out;
}

}  // namespace partita::ilp
