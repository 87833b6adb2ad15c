// Bounded, read-through cache of completed Selections plus the
// solver artifacts needed to warm-start *near* misses.
//
// Key structure. An exact key is (tenant, structure fingerprint, options
// digest, literal requested gains). The structure fingerprint is
// ilp::fingerprint_model over the TOKEN-GAIN model (every gain row built
// with RHS 1), so it captures the full constraint system of the instance
// while factoring the requested gains out, mixed with the selector's
// answer-map digest (the column -> (s-call, IP, interface) decode map --
// two specs can build bit-identical models yet index the same physical IPs
// differently, and a served Selection names library slots); the gains ride
// in the key literally. Two requests share an entry iff a cold solve of
// both is guaranteed to produce the same answer:
//   * same tenant (namespacing: tenants never see each other's answers),
//   * same model structure under the same column order (the canonical
//     optimum depends on variable order -- see ilp/fingerprint.hpp) and
//     the same decode map (select::Selector::answer_map_digest),
//   * same answer-affecting solver options,
//   * same literal gain request. A derived gain (-1) is itself a pure
//     function of (structure, options), so "-1" is a consistent literal.
//
// Neighbor seeding. Entries with equal (tenant, structure, options) but
// different gains form a GROUP. nearest() returns a copy
// of the closest group member's solver artifacts (clique table, root basis,
// pseudo-cost tables, incumbent -- an ilp::BatchContext with
// carry_search_state set) by L1 distance over resolved gains; the caller
// seeds its solve with them. Groups also memoize the derived required gain
// (max_feasible_gain/2), saving near-misses a whole auxiliary ILP solve.
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
// Two-level key. Computing the structure fingerprint needs a built Flow and
// a token-gain model. The envelope memo in front of it maps an envelope
// digest (envelope_digest: the printed module and library, the exact bits
// of their doubles, and the select options the structure depends on) to
// the structure fingerprint a full key
// computation produced, so an exact repeat reaches lookup() without
// rebuilding anything. The memo is written only after a full key
// computation and read only to form the lookup key.
//
// Eviction: one LRU under one lock, bounded by both entry count and an
// approximate byte budget. invalidate_all() bumps a generation; stale
// entries are dropped lazily at lookup (counted `stale`) rather than
// eagerly swept. Both memos stay bounded by the capacity: a group's
// derived-gain memo goes with the group's last entry, and the envelope memo
// is its own LRU of at most that many digests. invalidate_all() clears
// both.
//
// Counter invariants (asserted by cache_test): hits + misses == lookups
// (a stale drop counts as a miss AND a stale), neighbor_hits <= misses,
// memo_hits <= hits, evictions and insertions are monotone.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

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
  /// Derived-gain memo hits (a near-miss skipped its max_feasible_gain solve).
  std::uint64_t gain_memo_hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Entries dropped at lookup because invalidate_all() outdated them.
  std::uint64_t stale = 0;
  std::uint64_t invalidations = 0;
  /// Hits whose key came from the envelope memo (no Flow was built).
  std::uint64_t memo_hits = 0;
  // Gauges.
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t memo_entries = 0;       // envelope memo size
  std::uint64_t gain_memo_entries = 0;  // derived-gain memo size
};

/// Artifacts returned by nearest() for seeding a near-miss solve.
struct CacheSeed {
  bool valid = false;
  /// Copy of the neighbor's solver artifacts; carry_search_state is set so
  /// a solve through Selector::select_seeded imports them.
  ilp::BatchContext artifacts;
  /// L1 distance between the request's and the neighbor's resolved gains.
  std::int64_t distance = 0;
};

/// The structure part of a cache key: ilp::fingerprint_model over the
/// token-gain model, mixed with the selector's answer-map digest.
ilp::Fingerprint structure_fingerprint(const select::Selector& selector,
                                       const select::SelectOptions& opt);

/// The envelope memo's key: ir::print_module and iplib::save_library text,
/// the exact bits of every double that text rounds (if probabilities, IP
/// area and power), problem2 and max_power. Everything
/// structure_fingerprint depends on is either printed losslessly or
/// digested, so equal envelopes have equal structure fingerprints. The ilp
/// options are not covered: structure_fingerprint reads none of them, and
/// the key's options_digest separates them. imp_filter is not covered
/// either: filtered requests bypass the cache.
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
    ilp::Fingerprint structure;
    std::uint64_t options_digest = 0;
    /// Literal requested gains (the request's own numbers; -1 = derived).
    std::vector<std::int64_t> gains;

    /// Group identity: everything but the gains.
    std::string group() const;
    /// Full exact-key identity.
    std::string str() const;
  };

  explicit SolutionCache(Config cfg);

  /// Exact read-through probe. A hit refreshes LRU recency; `via_memo`
  /// marks a key formed from the envelope memo (counted as `memo_hits`).
  std::optional<select::Selection> lookup(const Key& key, bool via_memo = false);

  /// Envelope memo probe: the structure fingerprint stored for `envelope`.
  std::optional<ilp::Fingerprint> memo_structure(const ilp::Fingerprint& envelope);

  /// Records the structure fingerprint a full key computation produced for
  /// `envelope`.
  void remember_structure(const ilp::Fingerprint& envelope,
                          const ilp::Fingerprint& structure);

  /// Nearest same-group neighbor by resolved-gain L1 distance; call after a
  /// miss. Does not touch LRU recency (a seed read is not an answer serve).
  CacheSeed nearest(const Key& key, const std::vector<std::int64_t>& resolved_gains);

  /// Group-level derived-gain memo (max_feasible_gain/2 for this structure
  /// + options); set by any insert that resolved a derived gain.
  std::optional<std::int64_t> derived_gain(const Key& key);

  /// Inserts (or refreshes) a completed selection. `artifacts` are the
  /// solver's exported BatchContext; `resolved_gains` are the actual gain
  /// values solved (== key.gains unless the request asked for a derived
  /// gain); `derived` records the scalar memo when the gain was derived.
  void insert(const Key& key, const select::Selection& sel,
              ilp::BatchContext artifacts,
              const std::vector<std::int64_t>& resolved_gains,
              std::optional<std::int64_t> derived = std::nullopt);

  /// Outdates every current entry (lazily dropped as `stale` at lookup) and
  /// clears both memos. The service calls this when solver defaults change
  /// underneath it.
  void invalidate_all();

  /// Serializes every current-generation entry plus the derived-gain memos
  /// (never the envelope memo) to a partita-cache-snapshot-v2 JSON
  /// document ("" when there is nothing
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
    std::vector<std::int64_t> resolved_gains;
    select::Selection selection;
    ilp::BatchContext artifacts;
    std::uint64_t generation = 0;
    std::size_t bytes = 0;
  };

  /// Per-group bookkeeping: live entries and the derived-gain memo. A group
  /// is dropped with its last entry, so memos never outlive their entries.
  struct Group {
    std::size_t entries = 0;
    std::optional<std::int64_t> derived_gain;
  };

  /// Envelope memo: LRU of envelope digest -> structure fingerprint.
  using MemoList = std::list<std::pair<ilp::Fingerprint, ilp::Fingerprint>>;

  /// Puts `e` at the LRU front, replacing an entry with its key.
  void link_locked(Entry e);
  /// Drops one entry, and its group when it was the group's last entry.
  void unlink_locked(std::list<Entry>::iterator it);
  void evict_locked();
  static std::size_t entry_bytes(const Entry& e);

  Config cfg_;
  mutable std::mutex mu_;  // guards every field below
  std::list<Entry> lru_;   // front = most recently used
  std::map<std::string, std::list<Entry>::iterator> index_;
  std::map<std::string, Group> groups_;
  MemoList memo_;  // front = most recently used
  std::map<ilp::Fingerprint, MemoList::iterator> memo_index_;
  CacheStats stats_;
  std::size_t bytes_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace partita::service
