// Execution-path enumeration.
//
// The per-path performance constraints of the ILP formulation (Eq. 2) need
// the set of execution paths P_k through a function: every resolution of the
// two-armed conditionals yields one path. Loop bodies belong to every path
// (their nodes carry a loop_frequency multiplier); conditionals *inside*
// loops are resolved once per path, which approximates the dominant-iteration
// behaviour the paper's profile-driven flow relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "cdfg/cdfg.hpp"

namespace partita::cdfg {

/// One execution path.
struct ExecPath {
  /// Atomic nodes on the path, in program order.
  std::vector<NodeIndex> nodes;
  /// Profile probability of this path (product of arm probabilities).
  double probability = 1.0;

  bool contains(NodeIndex n) const;

  /// Total software cycles along the path, honouring loop frequencies.
  /// Call-node cycles must have been annotated (Cdfg::annotate_call_cycles).
  std::int64_t software_cycles(const Cdfg& g) const;
};

/// Hard cap on enumerated paths; enumeration stops adding forks beyond it
/// (the lowest-probability arms are the ones dropped by construction order).
inline constexpr std::size_t kMaxPaths = 4096;

/// Enumerates execution paths of the function underlying `g`.
/// Always returns at least one path (a straight-line function has exactly
/// one, possibly empty).
std::vector<ExecPath> enumerate_paths(const Cdfg& g);

}  // namespace partita::cdfg
