// Regression gate for the write-ahead journal's latency overhead.
//
// bench_all's durability section times closed-loop submit->complete round
// trips against a journaled service and a journal-less control, one request
// per leg per round (order flipping each round). Single requests on a shared
// machine jitter by tens of percent, so a tail percentile over a few dozen
// samples is decided by whichever leg met the one slow request. The gate
// therefore compares paired rounds: the median of per-round
// (journaled - plain) differences, which no single slow request can move
// far, next to the leg medians themselves.
#pragma once

#include <cstddef>
#include <vector>

namespace partita::bench {

/// The `pct`-th percentile of `v` (nearest rank, upper median for pct 50).
double percentile_ms(std::vector<double> v, std::size_t pct);

struct DurabilityGate {
  double plain_p50_ms = 0.0;
  double journaled_p50_ms = 0.0;
  double paired_diff_p50_ms = 0.0;  // median of per-round journaled - plain
  double bound_ms = 0.0;            // allowed overhead: 0.10 x plain p50 + 2 ms
  bool p50_failed = false;          // journaled p50 > plain p50 + bound
  bool paired_failed = false;       // paired median difference > bound
  bool failed() const { return p50_failed || paired_failed; }
};

/// Decides the gate from per-round latencies: plain_ms[i] and journaled_ms[i]
/// were measured in the same round. Both vectors must have the same size.
DurabilityGate durability_gate(const std::vector<double>& plain_ms,
                               const std::vector<double>& journaled_ms);

}  // namespace partita::bench
