// Bounded, read-through cache of completed Selections plus the
// solver artifacts needed to warm-start *near* misses.
//
// Key. An exact key is (tenant, envelope digest, options digest, literal
// requested gain). The envelope digest (envelope_digest below) covers the
// printed application module and IP library, the exact bits of the doubles
// that text rounds, and the select options the model depends on; the
// options digest (ilp::digest_options) covers the answer-affecting solver
// knobs. Two requests share an entry iff a cold solve of both is guaranteed
// to produce the same answer:
//   * same tenant (namespacing: tenants never see each other's answers),
//   * same application and library, so the same model under the same
//     column order (the canonical optimum depends on variable order -- see
//     ilp/fingerprint.hpp) and the same column -> (s-call, IP, interface)
//     decode map,
//   * same answer-affecting solver options,
//   * same literal gain request. A derived gain (-1) is itself a pure
//     function of (envelope, options), so "-1" is a consistent literal.
// The key is formed from the request alone, so a hit builds no Flow.
//
// Neighbor seeding. Entries with equal (tenant, envelope, options) but
// different gains form a GROUP. nearest() returns a copy of the closest
// group member's solver artifacts (clique table, root basis, pseudo-cost
// tables, incumbent -- an ilp::BatchContext with carry_search_state set) by
// distance between resolved gains; the caller seeds its solve with them.
//
// Consistency contract. The cache itself only ever stores what the caller
// inserts; the SolveService only inserts completed (proven-optimal or
// proven-infeasible), non-cancelled selections, and seeds through
// select::Selector::select_seeded, which falls back to a cold solve
// whenever a seeded search truncates. Under that discipline every
// answer served from or through this cache is bit-identical to a cold
// solve -- enforced end-to-end by `partita_fuzz --mode cache` and the
// cache soak storm.
//
// Eviction: one LRU under one lock, bounded by both entry count and an
// approximate byte budget. invalidate_all() bumps a generation; stale
// entries are dropped lazily at lookup (counted `stale`) rather than
// eagerly swept.
//
// Counter invariants (asserted by cache_test): hits + misses == lookups
// (a stale drop counts as a miss AND a stale), neighbor_hits <= misses,
// evictions and insertions are monotone.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "ilp/branch_bound.hpp"
#include "ilp/fingerprint.hpp"
#include "select/selection.hpp"
#include "select/selector.hpp"

namespace partita::service {

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Misses that found a same-group neighbor to seed from.
  std::uint64_t neighbor_hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Entries dropped at lookup because invalidate_all() outdated them.
  std::uint64_t stale = 0;
  std::uint64_t invalidations = 0;
  // Gauges.
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
};

/// Artifacts returned by nearest() for seeding a near-miss solve.
struct CacheSeed {
  bool valid = false;
  /// Copy of the neighbor's solver artifacts; carry_search_state is set so
  /// a solve through Selector::select_seeded imports them.
  ilp::BatchContext artifacts;
  /// |request's resolved gain - neighbor's resolved gain|.
  std::int64_t distance = 0;
};

/// The cache key's envelope: ir::print_module and iplib::save_library text,
/// the exact bits of every double that text rounds (if probabilities, IP
/// area and power), problem2 and max_power. Everything the model and its
/// decode map depend on is either printed losslessly or digested, so equal
/// envelopes build equal models with equal decode maps. The ilp options are
/// not covered: the key's options_digest separates them. imp_filter is not
/// covered either: filtered requests bypass the cache.
ilp::Fingerprint envelope_digest(const ir::Module& module,
                                 const iplib::IpLibrary& library,
                                 const select::SelectOptions& opt);

class SolutionCache {
 public:
  struct Config {
    /// Max entries (0 behaves as 1).
    std::size_t capacity = 256;
    /// Approximate byte budget; 0 disables the byte bound.
    std::size_t max_bytes = std::size_t{64} << 20;
  };

  struct Key {
    std::string tenant;
    ilp::Fingerprint envelope;
    std::uint64_t options_digest = 0;
    /// Literal requested gain (the request's own number; -1 = derived).
    std::int64_t gain = 0;

    /// Group identity: everything but the gain.
    std::string group() const;
    /// Full exact-key identity.
    std::string str() const;
  };

  explicit SolutionCache(Config cfg);

  /// Exact read-through probe. A hit refreshes LRU recency.
  std::optional<select::Selection> lookup(const Key& key);

  /// Nearest same-group neighbor by resolved-gain distance (the most
  /// recently used on a tie); call after a miss. Does not touch LRU recency
  /// (a seed read is not an answer serve).
  CacheSeed nearest(const Key& key, std::int64_t resolved_gain);

  /// Inserts (or refreshes) a completed selection. `artifacts` are the
  /// solver's exported BatchContext; `resolved_gain` is the gain actually
  /// solved (== key.gain unless the request asked for a derived gain).
  void insert(const Key& key, const select::Selection& sel,
              ilp::BatchContext artifacts, std::int64_t resolved_gain);

  /// Outdates every current entry (lazily dropped as `stale` at lookup).
  /// The service calls this when solver defaults change underneath it.
  void invalidate_all();

  /// Serializes every current-generation entry to a
  /// partita-cache-snapshot-v3 JSON document ("" when there is nothing
  /// to save). Solver artifacts (BatchContext) are deliberately NOT
  /// persisted -- they only accelerate, never decide, so dropping them
  /// keeps snapshots small and trivially answer-safe; reloaded entries
  /// serve exact hits and re-earn their seeding artifacts on first re-use.
  /// Entries outdated by invalidate_all() are filtered at export, so stale
  /// answers never survive a restart.
  std::string export_snapshot() const;

  /// Re-populates the cache from an export_snapshot document. Imported
  /// entries join the current generation and the normal LRU/byte bounds
  /// (eviction applies immediately). Returns entries imported; 0 on a
  /// malformed document. Malformed individual entries are skipped.
  std::size_t import_snapshot(const std::string& data);

  CacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::string group;
    std::int64_t resolved_gain = 0;
    select::Selection selection;
    ilp::BatchContext artifacts;
    std::uint64_t generation = 0;
    std::size_t bytes = 0;
  };

  /// Puts `e` at the LRU front, replacing an entry with its key.
  void link_locked(Entry e);
  void unlink_locked(std::list<Entry>::iterator it);
  void evict_locked();
  static std::size_t entry_bytes(const Entry& e);

  Config cfg_;
  mutable std::mutex mu_;  // guards every field below
  std::list<Entry> lru_;   // front = most recently used
  std::map<std::string, std::list<Entry>::iterator> index_;
  CacheStats stats_;
  std::size_t bytes_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace partita::service
