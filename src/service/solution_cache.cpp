#include "service/solution_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>

#include "iplib/loader.hpp"
#include "ir/printer.hpp"
#include "support/json.hpp"

namespace partita::service {

namespace {

namespace json = partita::support::json;

/// v2: derived gains are exact integers (v1 memos and derived-gain entries
/// came from a truncated floating objective, sometimes one too low), so a
/// v1 document imports nothing.
constexpr const char* kSnapshotFormat = "partita-cache-snapshot-v2";

/// Serializes the answer-defining Selection fields (exactly the set
/// solution_signature covers, plus the honesty labels). Solver
/// observability counters are not persisted: a reloaded hit reports fresh
/// (zero) search counters, like any served cache hit conceptually should.
void selection_json(std::ostringstream& os, const select::Selection& sel) {
  os << "{\"feasible\": " << (sel.feasible ? "true" : "false") << ", \"chosen\": [";
  for (std::size_t i = 0; i < sel.chosen.size(); ++i) {
    os << (i ? ", " : "") << sel.chosen[i];
  }
  os << "], \"ips\": [";
  for (std::size_t i = 0; i < sel.ips_used.size(); ++i) {
    os << (i ? ", " : "") << sel.ips_used[i].value;
  }
  os << "], \"ip_area\": " << json::fmt_double(sel.ip_area)
     << ", \"interface_area\": " << json::fmt_double(sel.interface_area)
     << ", \"ip_power\": " << json::fmt_double(sel.ip_power)
     << ", \"interface_power\": " << json::fmt_double(sel.interface_power)
     << ", \"s_instructions\": " << sel.s_instructions
     << ", \"selected_scalls\": " << sel.selected_scalls
     << ", \"min_path_gain\": " << sel.min_path_gain
     << ", \"truncated\": " << (sel.truncated ? "true" : "false")
     << ", \"greedy_fallback\": " << (sel.greedy_fallback ? "true" : "false")
     << ", \"optimality_gap\": " << json::fmt_double(sel.optimality_gap)
     << ", \"rung\": " << static_cast<int>(sel.rung)
     << ", \"detail\": " << json::quote(sel.degradation_detail) << "}";
}

bool selection_from_json(const json::Object& o, select::Selection* out) {
  select::Selection sel;
  sel.feasible = json::bool_or(o, "feasible", false);
  const json::Array* chosen = json::array_or_null(o, "chosen");
  const json::Array* ips = json::array_or_null(o, "ips");
  if (!chosen || !ips) return false;
  for (const json::Value& v : *chosen) {
    if (!v.is_number()) return false;
    sel.chosen.push_back(static_cast<isel::ImpIndex>(v.number()));
  }
  for (const json::Value& v : *ips) {
    if (!v.is_number()) return false;
    sel.ips_used.push_back(iplib::IpId{static_cast<std::uint32_t>(v.number())});
  }
  sel.ip_area = json::num_or(o, "ip_area", 0.0);
  sel.interface_area = json::num_or(o, "interface_area", 0.0);
  sel.ip_power = json::num_or(o, "ip_power", 0.0);
  sel.interface_power = json::num_or(o, "interface_power", 0.0);
  sel.s_instructions = static_cast<int>(json::int_or(o, "s_instructions", 0));
  sel.selected_scalls = static_cast<int>(json::int_or(o, "selected_scalls", 0));
  sel.min_path_gain = json::int_or(o, "min_path_gain", 0);
  sel.truncated = json::bool_or(o, "truncated", false);
  sel.greedy_fallback = json::bool_or(o, "greedy_fallback", false);
  sel.optimality_gap = json::num_or(o, "optimality_gap", 0.0);
  const std::int64_t rung = json::int_or(o, "rung", -1);
  if (rung < 0 || rung > static_cast<std::int64_t>(select::DegradationRung::kInfeasible)) {
    return false;
  }
  sel.rung = static_cast<select::DegradationRung>(rung);
  sel.degradation_detail = json::string_or(o, "detail", "");
  *out = std::move(sel);
  return true;
}

std::int64_t l1_distance(const std::vector<std::int64_t>& a,
                         const std::vector<std::int64_t>& b) {
  if (a.size() != b.size()) return std::numeric_limits<std::int64_t>::max();
  std::int64_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int64_t step = a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    if (d > std::numeric_limits<std::int64_t>::max() - step) {
      return std::numeric_limits<std::int64_t>::max();
    }
    d += step;
  }
  return d;
}

/// Folds one word into both lanes of a running digest. The lanes see the
/// word with different mixing, so a collision needs both to collide.
void fold_word(ilp::Fingerprint& d, std::uint64_t w) {
  d.lo = ilp::fp_mix(d.lo ^ w);
  d.hi = ilp::fp_mix(d.hi + ((w << 32) | (w >> 32)));
}

/// Folds text eight bytes at a time, length first (so a zero-padded tail
/// word cannot alias a longer text).
void fold_text(ilp::Fingerprint& d, std::string_view text) {
  fold_word(d, text.size());
  for (std::size_t i = 0; i < text.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, text.data() + i, std::min<std::size_t>(8, text.size() - i));
    fold_word(d, w);
  }
}

}  // namespace

ilp::Fingerprint structure_fingerprint(const select::Selector& selector,
                                       const select::SelectOptions& opt) {
  // Every select-level flag that shapes the constraint system (problem2,
  // max_power) lands in the token-gain model's row set, so only the ilp
  // options need a separate digest (the key's options_digest).
  ilp::Fingerprint fp = ilp::fingerprint_model(selector.build_model(
      std::vector<std::int64_t>(selector.path_count(), 1), opt));
  // The model digest alone is not enough: a cached Selection also reports
  // the column -> (s-call, IP, interface) decode map, which can differ
  // between specs whose models are bit-identical (duplicate-parameter IPs
  // swapped by a column permutation). Mix it in so such instances miss.
  fp.lo = ilp::fp_mix(fp.lo ^ selector.answer_map_digest());
  return fp;
}

ilp::Fingerprint envelope_digest(const ir::Module& module,
                                 const iplib::IpLibrary& library,
                                 const select::SelectOptions& opt) {
  ilp::Fingerprint d{0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL};
  fold_text(d, ir::print_module(module));
  fold_text(d, iplib::save_library(library));
  // The text prints doubles to six significant digits, but the model uses
  // them at full precision: fold their exact bits as well.
  module.for_each_function([&](const ir::Function& fn) {
    fn.for_each_stmt([&](ir::StmtId, const ir::Stmt& s) {
      if (s.kind == ir::StmtKind::kIf) fold_word(d, ilp::fp_double(s.taken_prob));
    });
  });
  for (const iplib::IpDescriptor& ip : library.all()) {
    fold_word(d, ilp::fp_double(ip.area));
    fold_word(d, ilp::fp_double(ip.power));
  }
  fold_word(d, opt.problem2 ? 1 : 0);
  fold_word(d, opt.max_power.has_value() ? ilp::fp_double(*opt.max_power) : 0);
  fold_word(d, opt.max_power.has_value() ? 1 : 0);
  return d;
}

std::string SolutionCache::Key::group() const {
  std::string s = tenant;
  s += '|';
  s += structure.hex();
  s += '|';
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(options_digest));
  s += buf;
  return s;
}

std::string SolutionCache::Key::str() const {
  std::string s = group();
  s += '|';
  for (std::size_t i = 0; i < gains.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(gains[i]);
  }
  return s;
}

SolutionCache::SolutionCache(Config cfg) : cfg_(cfg) {
  const int n = std::max(1, cfg_.shards);
  cfg_.shards = n;
  if (cfg_.capacity == 0) cfg_.capacity = 1;
  per_shard_capacity_ =
      std::max<std::size_t>(1, (cfg_.capacity + n - 1) / static_cast<std::size_t>(n));
  per_shard_bytes_ =
      cfg_.max_bytes == 0 ? 0 : std::max<std::size_t>(1, cfg_.max_bytes / n);
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

SolutionCache::Shard& SolutionCache::shard_for(const Key& key) {
  // Shard by GROUP, not full key: all gains-variants of one structure land
  // in one shard so the neighbor scan stays shard-local.
  return shard_for_group(key.group());
}

SolutionCache::Shard& SolutionCache::shard_for_group(const std::string& g) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : g) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return *shards_[h % shards_.size()];
}

SolutionCache::Shard& SolutionCache::shard_for_envelope(const ilp::Fingerprint& envelope) {
  return *shards_[envelope.lo % shards_.size()];
}

std::size_t SolutionCache::entry_bytes(const Entry& e) {
  std::size_t b = sizeof(Entry) + e.key.size() + e.group.size();
  b += e.resolved_gains.size() * sizeof(std::int64_t);
  b += e.selection.chosen.size() * sizeof(isel::ImpIndex);
  b += e.selection.ips_used.size() * sizeof(iplib::IpId);
  b += e.selection.degradation_detail.size();
  const ilp::BatchContext& a = e.artifacts;
  b += a.root_basis.status.size();
  b += a.incumbent.size() * sizeof(double);
  for (int d = 0; d < 2; ++d) {
    b += a.pc_sum[d].size() * sizeof(double);
    b += a.pc_cnt[d].size() * sizeof(int);
  }
  for (const auto& c : a.cliques) b += c.size() * sizeof(ilp::VarIndex);
  for (const auto& vc : a.var_cliques) b += vc.size() * sizeof(std::uint32_t);
  for (const auto& lc : a.lifted_cliques) b += lc.members.size() * sizeof(ilp::VarIndex);
  return b;
}

std::optional<select::Selection> SolutionCache::lookup(const Key& key, bool via_memo) {
  Shard& s = shard_for(key);
  const std::string k = key.str();
  const std::uint64_t gen = generation_.load();
  std::lock_guard<std::mutex> g(s.mu);
  ++s.stats.lookups;
  const auto it = s.index.find(k);
  if (it == s.index.end()) {
    ++s.stats.misses;
    return std::nullopt;
  }
  if (it->second->generation != gen) {
    // Outdated by invalidate_all(): drop lazily, count both stale and miss
    // so hits + misses == lookups stays an invariant.
    unlink_locked(s, it->second);
    ++s.stats.stale;
    ++s.stats.misses;
    return std::nullopt;
  }
  ++s.stats.hits;
  if (via_memo) ++s.stats.memo_hits;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  return it->second->selection;
}

CacheSeed SolutionCache::nearest(const Key& key,
                                 const std::vector<std::int64_t>& resolved_gains) {
  Shard& s = shard_for(key);
  const std::string group = key.group();
  const std::uint64_t gen = generation_.load();
  CacheSeed seed;
  std::lock_guard<std::mutex> g(s.mu);
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  const Entry* best_entry = nullptr;
  for (const Entry& e : s.lru) {
    if (e.generation != gen || e.group != group) continue;
    const std::int64_t d = l1_distance(resolved_gains, e.resolved_gains);
    if (d < best) {
      best = d;
      best_entry = &e;
    }
  }
  if (best_entry == nullptr) return seed;
  seed.valid = true;
  seed.artifacts = best_entry->artifacts;
  seed.artifacts.carry_search_state = true;
  seed.distance = best;
  ++s.stats.neighbor_hits;
  return seed;
}

std::optional<ilp::Fingerprint> SolutionCache::memo_structure(
    const ilp::Fingerprint& envelope) {
  Shard& s = shard_for_envelope(envelope);
  std::lock_guard<std::mutex> g(s.mu);
  const auto it = s.memo_index.find(envelope);
  if (it == s.memo_index.end()) return std::nullopt;
  s.memo.splice(s.memo.begin(), s.memo, it->second);  // refresh recency
  return it->second->second;
}

void SolutionCache::remember_structure(const ilp::Fingerprint& envelope,
                                       const ilp::Fingerprint& structure) {
  Shard& s = shard_for_envelope(envelope);
  std::lock_guard<std::mutex> g(s.mu);
  // A racing request with the same envelope may have stored it already;
  // the structure is a function of the envelope, so that entry stands.
  if (s.memo_index.count(envelope) != 0) return;
  s.memo.emplace_front(envelope, structure);
  s.memo_index[envelope] = s.memo.begin();
  while (s.memo.size() > per_shard_capacity_) {
    s.memo_index.erase(s.memo.back().first);
    s.memo.pop_back();
  }
}

std::optional<std::int64_t> SolutionCache::derived_gain(const Key& key) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> g(s.mu);
  const auto it = s.groups.find(key.group());
  if (it == s.groups.end() || !it->second.derived_gain.has_value()) {
    return std::nullopt;
  }
  ++s.stats.gain_memo_hits;
  return it->second.derived_gain;
}

void SolutionCache::insert(const Key& key, const select::Selection& sel,
                           ilp::BatchContext artifacts,
                           const std::vector<std::int64_t>& resolved_gains,
                           std::optional<std::int64_t> derived) {
  Shard& s = shard_for(key);
  Entry e;
  e.key = key.str();
  e.group = key.group();
  e.resolved_gains = resolved_gains;
  e.selection = sel;
  e.artifacts = std::move(artifacts);
  e.artifacts.carry_search_state = true;
  e.generation = generation_.load();
  e.bytes = entry_bytes(e);

  std::lock_guard<std::mutex> g(s.mu);
  if (derived.has_value()) s.groups[e.group].derived_gain = *derived;
  link_locked(s, std::move(e));
  ++s.stats.insertions;
  evict_locked(s);
}

void SolutionCache::link_locked(Shard& s, Entry e) {
  // Count the newcomer first, so refreshing a group's only entry (same key
  // re-inserted after a stale drop or a racing double-miss) keeps its group.
  ++s.groups[e.group].entries;
  const auto it = s.index.find(e.key);
  if (it != s.index.end()) unlink_locked(s, it->second);
  s.bytes += e.bytes;
  s.lru.push_front(std::move(e));
  s.index[s.lru.front().key] = s.lru.begin();
}

void SolutionCache::unlink_locked(Shard& s, std::list<Entry>::iterator it) {
  s.bytes -= it->bytes;
  const auto g = s.groups.find(it->group);
  if (g != s.groups.end() && --g->second.entries == 0) s.groups.erase(g);
  s.index.erase(it->key);
  s.lru.erase(it);
}

void SolutionCache::evict_locked(Shard& s) {
  while (s.lru.size() > per_shard_capacity_ ||
         (per_shard_bytes_ != 0 && s.bytes > per_shard_bytes_ && s.lru.size() > 1)) {
    unlink_locked(s, std::prev(s.lru.end()));
    ++s.stats.evictions;
  }
}

void SolutionCache::invalidate_all() {
  generation_.fetch_add(1);
  for (auto& sp : shards_) {
    std::lock_guard<std::mutex> g(sp->mu);
    ++sp->stats.invalidations;
    for (auto& [name, group] : sp->groups) group.derived_gain.reset();
    sp->memo.clear();
    sp->memo_index.clear();
  }
}

std::string SolutionCache::export_snapshot() const {
  const std::uint64_t gen = generation_.load();
  std::ostringstream entries;
  std::ostringstream memos;
  std::size_t count = 0;
  bool first_memo = true;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> g(sp->mu);
    for (const Entry& e : sp->lru) {
      if (e.generation != gen) continue;  // invalidated: never resurfaces
      entries << (count ? ", " : "") << "{\"key\": " << json::quote(e.key)
              << ", \"group\": " << json::quote(e.group) << ", \"gains\": [";
      for (std::size_t i = 0; i < e.resolved_gains.size(); ++i) {
        entries << (i ? ", " : "") << e.resolved_gains[i];
      }
      entries << "], \"sel\": ";
      selection_json(entries, e.selection);
      entries << "}";
      ++count;
    }
    for (const auto& [name, group] : sp->groups) {
      if (!group.derived_gain.has_value()) continue;
      memos << (first_memo ? "" : ", ") << "[" << json::quote(name) << ", "
            << *group.derived_gain << "]";
      first_memo = false;
    }
  }
  if (count == 0 && first_memo) return "";
  std::ostringstream os;
  os << "{\"v\": " << json::quote(kSnapshotFormat) << ", \"entries\": ["
     << entries.str() << "], \"gain_memo\": [" << memos.str() << "]}";
  return os.str();
}

std::size_t SolutionCache::import_snapshot(const std::string& data) {
  const auto doc = json::parse(data);
  if (!doc || !doc->is_object()) return 0;
  const json::Object& o = doc->object();
  if (json::string_or(o, "v", "") != kSnapshotFormat) return 0;
  const std::uint64_t gen = generation_.load();
  std::size_t imported = 0;
  if (const json::Array* entries = json::array_or_null(o, "entries")) {
    for (const json::Value& v : *entries) {
      if (!v.is_object()) continue;
      const json::Object& eo = v.object();
      Entry e;
      e.key = json::string_or(eo, "key", "");
      e.group = json::string_or(eo, "group", "");
      if (e.key.empty() || e.group.empty()) continue;
      const json::Array* gains = json::array_or_null(eo, "gains");
      if (!gains) continue;
      bool ok = true;
      for (const json::Value& gv : *gains) {
        if (!gv.is_number()) {
          ok = false;
          break;
        }
        e.resolved_gains.push_back(static_cast<std::int64_t>(gv.number()));
      }
      const json::Object* sel = json::object_or_null(eo, "sel");
      if (!ok || !sel || !selection_from_json(*sel, &e.selection)) continue;
      e.artifacts.carry_search_state = true;
      e.generation = gen;
      e.bytes = entry_bytes(e);
      Shard& s = shard_for_group(e.group);
      std::lock_guard<std::mutex> g(s.mu);
      link_locked(s, std::move(e));
      ++s.stats.insertions;
      evict_locked(s);
      ++imported;
    }
  }
  if (const json::Array* memo = json::array_or_null(o, "gain_memo")) {
    for (const json::Value& v : *memo) {
      if (!v.is_array() || v.array().size() != 2 || !v.array()[0].is_string() ||
          !v.array()[1].is_number()) {
        continue;
      }
      // A memo joins only a group that has entries: it goes with them.
      const std::string& name = v.array()[0].string();
      Shard& s = shard_for_group(name);
      std::lock_guard<std::mutex> g(s.mu);
      const auto it = s.groups.find(name);
      if (it != s.groups.end()) {
        it->second.derived_gain = static_cast<std::int64_t>(v.array()[1].number());
      }
    }
  }
  return imported;
}

CacheStats SolutionCache::stats() const {
  CacheStats total;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> g(sp->mu);
    const CacheStats& cs = sp->stats;
    total.lookups += cs.lookups;
    total.hits += cs.hits;
    total.misses += cs.misses;
    total.neighbor_hits += cs.neighbor_hits;
    total.gain_memo_hits += cs.gain_memo_hits;
    total.insertions += cs.insertions;
    total.evictions += cs.evictions;
    total.stale += cs.stale;
    total.invalidations += cs.invalidations;
    total.memo_hits += cs.memo_hits;
    total.entries += sp->lru.size();
    total.bytes += sp->bytes;
    total.memo_entries += sp->memo.size();
    for (const auto& [name, group] : sp->groups) {
      if (group.derived_gain.has_value()) ++total.gain_memo_entries;
    }
  }
  return total;
}

}  // namespace partita::service
