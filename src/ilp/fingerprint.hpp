// Canonical instance fingerprinting: the solution cache keys an answer by
// the model and the options it was solved under, and serves it only on a
// match.
//
// fingerprint_model() hashes a Model's *mathematical content* into a 128-bit
// digest with two deliberate symmetry properties:
//
//   * Row-permutation and term-order INVARIANT: rows are hashed individually
//     (terms folded commutatively within a row, then sense + rhs mixed in)
//     and combined with a commutative reduction, so two models that list the
//     same constraints in a different order -- or the same row with its
//     terms shuffled -- fingerprint identically. Row and variable *names*
//     are excluded: they carry arbitrary enumeration indices.
//
//   * Column-order SENSITIVE: variables are folded in column order. This is
//     not an accident. The solver's canonical tie-breaking reports the
//     lexicographically smallest optimal vector, which is a function of the
//     variable order -- permuting columns can legitimately change which
//     optimal selection is "the" answer, so a cached answer is never served
//     across a column permutation.
//
// digest_options() folds every answer-affecting IlpOptions field into a
// 64-bit digest so a cache key changes whenever the solver contract does.
// The resource budget's runtime plumbing (cancel token, clock) is excluded:
// tokens/clocks are per-request wiring, not semantics. Budget *limits* are
// included -- a tighter budget can truncate to a different rung.
#pragma once

#include <cstdint>
#include <string>

#include "ilp/branch_bound.hpp"
#include "ilp/model.hpp"

namespace partita::ilp {

/// 128-bit model digest; value-comparable and hex-printable for logs, cache
/// keys and bench records.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Fingerprint& o) const { return hi == o.hi && lo == o.lo; }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
  bool operator<(const Fingerprint& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// 32 lowercase hex chars, hi then lo.
  std::string hex() const;
};

/// 64-bit finalizer (splitmix64); exposed so callers can extend a key with
/// their own fields (tenant ids, selection flags) using the same mixer.
std::uint64_t fp_mix(std::uint64_t x);

/// Hashes a double by its bit pattern, normalizing -0.0 to 0.0 so
/// numerically equal models fingerprint equally.
std::uint64_t fp_double(double v);

/// Canonical structure fingerprint of the model (see file comment for the
/// invariance contract). Everything mathematical is covered: sense, variable
/// kinds/bounds/objectives in column order, and the full row set including
/// each row's sense and right-hand side.
Fingerprint fingerprint_model(const Model& m);

/// Digest of the answer-affecting solver options (see file comment for what
/// is deliberately excluded).
std::uint64_t digest_options(const IlpOptions& opt);

}  // namespace partita::ilp
