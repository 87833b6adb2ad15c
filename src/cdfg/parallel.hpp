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
// The minimum over paths needs no path list. One walk decides a
// conditional's arm at its first node, takes the then-arm and the else-arm
// in turn and keeps the else-arm only when its PC is strictly shorter: the
// first minimum in enumerate_paths order. The PC from such a branch point v
// on depends only on v, the s-call bodies it may still absorb, the arms of
// the conditionals open at v (an outer and a nested one can branch at the
// same node) and which later candidates (independent of the call, in its
// loop context) have a skipped transitive predecessor, and is memoized on
// exactly that. k conditionals that each hold an excluded node read after
// them all still give 2^(k-1) states, so past kPcMemoStates entries the walk
// stops branching: an undecided conditional takes both arms at once, their
// nodes skipped. What joins then lies on every path through those arms, with
// its predecessors there joined: a parallel code of each, maybe not the
// shortest.
//
// Problem 1 forbids other s-calls inside a PC; Problem 2 allows the software
// implementation of another s-call to join, recording which call sites were
// consumed so the selector can enforce SC-PC conflicts.
#pragma once

#include <cstdint>
#include <functional>
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

/// Memo entries after which parallel_code stops branching: ~11x the most one
/// query stored on random workloads of up to 128 call sites.
inline constexpr std::size_t kPcMemoStates = std::size_t{1} << 12;

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
ParallelCode parallel_code(const Cdfg& g, NodeIndex call_node, const PcOptions& opt = {});

}  // namespace partita::cdfg
