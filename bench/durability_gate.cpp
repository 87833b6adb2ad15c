#include "durability_gate.hpp"

#include <algorithm>

namespace partita::bench {

double percentile_ms(std::vector<double> v, std::size_t pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, v.size() * pct / 100)];
}

DurabilityGate durability_gate(const std::vector<double>& plain_ms,
                               const std::vector<double>& journaled_ms) {
  DurabilityGate g;
  g.plain_p50_ms = percentile_ms(plain_ms, 50);
  g.journaled_p50_ms = percentile_ms(journaled_ms, 50);
  const std::size_t rounds = std::min(plain_ms.size(), journaled_ms.size());
  std::vector<double> diffs(rounds);
  for (std::size_t i = 0; i < rounds; ++i) diffs[i] = journaled_ms[i] - plain_ms[i];
  g.paired_diff_p50_ms = percentile_ms(std::move(diffs), 50);
  // <10% regression, with a 2 ms absolute epsilon so scheduler jitter on
  // near-identical magnitudes cannot flake the gate.
  g.bound_ms = 0.10 * g.plain_p50_ms + 2.0;
  g.p50_failed = g.journaled_p50_ms > g.plain_p50_ms + g.bound_ms;
  g.paired_failed = g.paired_diff_p50_ms > g.bound_ms;
  return g;
}

}  // namespace partita::bench
