// Parallel-code extraction (Definitions 3-5).
//
// For an s-call occurrence SC_i, the parallel code PC_i is the longest code
// segment (in execution time) that can be rearranged to start right after the
// call and therefore run on the kernel while the IP executes the call's
// function. Per the paper:
//
//  * Definition 3: a node with no transitive dependence either way w.r.t. the
//    s-call is an "independent code" (IC_i);
//  * Definition 4: an ICS_i is a set of IC_i's in the same execution branch
//    that can be listed in a sequence;
//  * Definition 5: PC_i is the largest ICS_i that can be arranged right after
//    the s-call; with several execution paths after the call, the PC of each
//    path is computed and the shortest one is used, guaranteeing the minimum
//    gain on every path.
//
// Our construction of one path's PC: walk the nodes after the call in
// program order; a node joins the segment when (a) it is independent of the
// call, (b) it shares the call's loop context (so one execution of the node
// overlaps one execution of the IP), and (c) every transitive predecessor of
// the node that lies between the call and the node has itself joined --
// otherwise the node cannot be moved next to the call without violating a
// dependence. Rule (c) is exactly "can be listed in a sequence" made
// operational.
//
// The minimum over paths needs no path list: one depth-first walk decides a
// conditional's arm when it first reaches one of its nodes (then-arm first,
// so paths come in enumerate_paths order) and backtracks, scanning a prefix
// shared by many paths once. Cycles are non-negative, so a branch whose
// running PC reaches the best so far is pruned; ties keep the first minimum.
// The walk gives up after kPcVisitBudget node visits.
//
// Problem 1 forbids other s-calls inside a PC; Problem 2 allows the software
// implementation of another s-call to join, recording which call sites were
// consumed so the selector can enforce SC-PC conflicts.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cdfg/cdfg.hpp"

namespace partita::cdfg {

/// Extraction policy.
struct PcOptions {
  /// Problem 2: allow other s-calls' software bodies inside the PC.
  bool allow_scall_software = false;
  /// Which call sites are s-calls. Calls that are NOT s-calls are ordinary
  /// software and may always join a PC. Null means "every call is an
  /// s-call" (conservative).
  std::function<bool(ir::CallSiteId)> is_scall;
  /// Cap on how many s-call software bodies the PC may absorb. The IMP
  /// enumerator emits one variant per prefix (consuming k = 1..n s-calls),
  /// letting the ILP trade overlap against freeing the consumed s-calls for
  /// their own IPs.
  std::size_t max_consumed = static_cast<std::size_t>(-1);
};

/// Node visits after which parallel_code gives up on one query: ~4.7x the
/// most one query took on random workloads (26-48 call sites, seeds 1-40)
/// with up to 18 conditionals.
inline constexpr std::uint64_t kPcVisitBudget = std::uint64_t{1} << 20;

/// A parallel-code segment: the PC of one s-call on its worst path.
struct ParallelCode {
  /// Nodes forming the segment, in program order.
  std::vector<NodeIndex> nodes;
  /// Total per-execution software cycles of the segment (the paper's T_C).
  std::int64_t cycles = 0;
  /// Call sites whose *software* implementation is part of this PC
  /// (non-empty only under PcOptions::allow_scall_software).
  std::vector<ir::CallSiteId> consumed_scalls;
};

/// Definition 5's PC of `call_node`: that of the first path through the call,
/// in enumerate_paths order and over every path, with the fewest PC cycles.
/// std::nullopt when the walk overran kPcVisitBudget.
std::optional<ParallelCode> parallel_code(const Cdfg& g, NodeIndex call_node,
                                          const PcOptions& opt = {});

}  // namespace partita::cdfg
