// The traced run: replays ops one at a time and splits each into layers.
//
// Every request of an op is answered three ways, each checked against the
// frozen expectation:
//   * `service.local`: submit -> wait on an in-process SolveService;
//   * `net.wire`: the same request over the socket to a second, identically
//     configured service (both see the same request history, so with the
//     cache on they produce the same hit/neighbor/miss outcome);
//   * `replay`: the layers' public functions called directly, in the order
//     the service calls them -- net::resolve_workload, the Flow stages
//     (profile, CDFG + paths, s-calls + IMP database), Selector::build_model,
//     the cache key (fingerprint_model + answer_map_digest),
//     max_feasible_gain, ilp::solve_ilp, and the Selector call itself, whose
//     time minus build and solve is the decode.
// Spans around those calls give the per-layer self-times.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lists.hpp"
#include "loop.hpp"
#include "spans.hpp"

namespace perfbench {

/// Per-layer totals over the replayed ops (divide by `ops` for per-op means).
struct LayerTotals {
  int ops = 0;
  int failed = 0;
  std::string first_error;
  std::map<std::string, double> self_ms;  // per span name
  double decode_ms = 0.0;
  double wire_ms = 0.0;    // socket latency
  double service_overhead_ms = 0.0;
  double net_overhead_ms = 0.0;
  double attributed_ms = 0.0;  // layer spans + codec, for unattributed
  double wire_bytes = 0.0;
  double paths = 0.0, imps = 0.0;
  double models = 0.0, rows = 0.0, cols = 0.0;  // over every build_model call
  long long nodes = 0, lp_iterations = 0, root_lp_iterations = 0, waves = 0;
  long long warm_starts = 0, cold_starts = 0, cuts_separated = 0, cuts_applied = 0;
  double hit_ms = 0.0;  // in-process latency of cache hits
  int hits = 0;
  int spans = 0;
};

/// Replays `stream` (one session's ops) through `local` and `wire`.
LayerTotals replay_traced(const FrozenList& list, const std::vector<SessionOp>& stream,
                          partita::service::SolveService& local, Stack& wire, SpanLog& log);

/// Cost of recording one span (open + close), measured, in milliseconds.
double span_cost_ms();

}  // namespace perfbench
