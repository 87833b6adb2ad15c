// Checkpoint/resume of an in-flight branch & bound search.
//
// A SearchCheckpoint captures everything the solver needs to continue a
// search instead of restarting it cold: the open-node frontier (each node as
// its bound-fix delta against the presolved root, plus its parent's optimal
// basis for the warm start), the incumbent, and the pseudo-cost tables. The
// solver offers one cooperatively at wave boundaries -- the same points
// where budgets and cancellation are checked -- via
// IlpOptions::checkpoint_sink, and consumes one via IlpOptions::resume.
//
// Answer identity. Resuming changes *how* the search reaches the optimum
// (wave composition, plunge order), never *what* it reports: with canonical
// tie-breaking a COMPLETED search always returns the lexicographically
// smallest optimal vector, which is invariant to search order. The frontier
// is exhaustive (open heap + the parked plunge node), every stored bound
// is a valid subtree bound, and the incumbent is re-audited against the
// model on import, so no optimal solution is lost across the
// checkpoint/resume edge. checkpoint_resume_test proves bit-identity
// differentially.
//
// Wire format: one CRC frame (support/io) holding a partita-checkpoint-v1
// JSON document. The model fingerprint and options digest ride inside;
// resume_compatible() refuses a checkpoint taken for a different model or
// under different answer-affecting options.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ilp/fingerprint.hpp"

namespace partita::ilp {

/// One frontier node: the subtree it roots, as a delta against the presolved
/// root bounds.
struct CheckpointNode {
  /// Internal-sense (minimization) bound inherited from the parent LP.
  double bound = 0.0;
  bool has_parent_obj = false;
  double parent_obj = 0.0;
  /// Branching decision that created this node (pseudo-cost bookkeeping).
  std::uint32_t branch_var = 0;
  double branch_frac = 0.0;
  bool branch_up = false;
  /// Variables fixed on the root-to-node path: (column, value) pairs.
  std::vector<std::pair<std::uint32_t, double>> fixes;
  /// Parent's optimal basis statuses (search-model shape); empty = cold LP.
  std::vector<std::uint8_t> basis;
};

struct SearchCheckpoint {
  /// fingerprint_model of the original model the search was solving.
  Fingerprint model_fp;
  /// digest_options of the answer-affecting solver options.
  std::uint64_t options_digest = 0;
  /// Progress at capture time (observability only).
  int waves = 0;
  int nodes = 0;
  bool has_incumbent = false;
  std::vector<double> incumbent;
  /// Pseudo-cost tables per branch direction (search-order heuristics).
  std::vector<double> pc_sum[2];
  std::vector<int> pc_cnt[2];
  /// Open nodes: best-bound heap entries plus the parked plunge node.
  std::vector<CheckpointNode> frontier;
};

/// True when `cp` may seed a solve of a model with fingerprint `fp` under
/// options digesting to `digest`.
bool resume_compatible(const SearchCheckpoint& cp, const Fingerprint& fp,
                       std::uint64_t digest);

/// partita-checkpoint-v1 JSON document (no CRC frame).
std::string encode_checkpoint(const SearchCheckpoint& cp);

/// Parses an encode_checkpoint document. Total: malformed input yields false
/// plus a one-line reason, never a crash.
bool decode_checkpoint(const std::string& text, SearchCheckpoint* out,
                       std::string* error);

/// Atomically replaces `path` with the CRC-framed checkpoint (tmp + fsync +
/// rename), so a crash mid-write leaves the previous checkpoint intact.
bool write_checkpoint_file(const std::string& path, const SearchCheckpoint& cp);

/// Loads a write_checkpoint_file file; a missing, torn or corrupt file
/// yields false plus a reason.
bool load_checkpoint_file(const std::string& path, SearchCheckpoint* out,
                          std::string* error);

}  // namespace partita::ilp
