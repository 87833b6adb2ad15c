#include "service/solution_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

/// v3: keys name envelope digests and entries carry one scalar gain. A v2
/// document's keys name structure fingerprints no request forms any more,
/// and a v1 document's derived gains came from a truncated floating
/// objective, so neither imports anything. The key does not see the code
/// that builds and solves the model: bump the version with any change that
/// can move an answer or a derived gain for an unchanged envelope.
constexpr const char* kSnapshotFormat = "partita-cache-snapshot-v3";

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
  s += envelope.hex();
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
  s += std::to_string(gain);
  return s;
}

SolutionCache::SolutionCache(Config cfg) : cfg_(cfg) {
  if (cfg_.capacity == 0) cfg_.capacity = 1;
}

std::size_t SolutionCache::entry_bytes(const Entry& e) {
  std::size_t b = sizeof(Entry) + e.key.size() + e.group.size();
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

std::optional<select::Selection> SolutionCache::lookup(const Key& key) {
  const std::string k = key.str();
  std::lock_guard<std::mutex> g(mu_);
  ++stats_.lookups;
  const auto it = index_.find(k);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second->generation != generation_) {
    // Outdated by invalidate_all(): drop lazily, count both stale and miss
    // so hits + misses == lookups stays an invariant.
    unlink_locked(it->second);
    ++stats_.stale;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->selection;
}

CacheSeed SolutionCache::nearest(const Key& key, std::int64_t resolved_gain) {
  const std::string group = key.group();
  CacheSeed seed;
  std::lock_guard<std::mutex> g(mu_);
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  const Entry* best_entry = nullptr;
  for (const Entry& e : lru_) {
    if (e.generation != generation_ || e.group != group) continue;
    const std::int64_t d = std::abs(resolved_gain - e.resolved_gain);
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
  ++stats_.neighbor_hits;
  return seed;
}

void SolutionCache::insert(const Key& key, const select::Selection& sel,
                           ilp::BatchContext artifacts, std::int64_t resolved_gain) {
  Entry e;
  e.key = key.str();
  e.group = key.group();
  e.resolved_gain = resolved_gain;
  e.selection = sel;
  e.artifacts = std::move(artifacts);
  e.artifacts.carry_search_state = true;
  e.bytes = entry_bytes(e);

  std::lock_guard<std::mutex> g(mu_);
  e.generation = generation_;
  link_locked(std::move(e));
  ++stats_.insertions;
  evict_locked();
}

void SolutionCache::link_locked(Entry e) {
  const auto it = index_.find(e.key);
  if (it != index_.end()) unlink_locked(it->second);
  bytes_ += e.bytes;
  lru_.push_front(std::move(e));
  index_[lru_.front().key] = lru_.begin();
}

void SolutionCache::unlink_locked(std::list<Entry>::iterator it) {
  bytes_ -= it->bytes;
  index_.erase(it->key);
  lru_.erase(it);
}

void SolutionCache::evict_locked() {
  while (lru_.size() > cfg_.capacity ||
         (cfg_.max_bytes != 0 && bytes_ > cfg_.max_bytes && lru_.size() > 1)) {
    unlink_locked(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

void SolutionCache::invalidate_all() {
  std::lock_guard<std::mutex> g(mu_);
  ++generation_;
  ++stats_.invalidations;
}

std::string SolutionCache::export_snapshot() const {
  std::ostringstream entries;
  std::size_t count = 0;
  std::lock_guard<std::mutex> g(mu_);
  for (const Entry& e : lru_) {
    if (e.generation != generation_) continue;  // invalidated: never resurfaces
    entries << (count ? ", " : "") << "{\"key\": " << json::quote(e.key)
            << ", \"group\": " << json::quote(e.group) << ", \"gain\": " << e.resolved_gain
            << ", \"sel\": ";
    selection_json(entries, e.selection);
    entries << "}";
    ++count;
  }
  if (count == 0) return "";
  std::ostringstream os;
  os << "{\"v\": " << json::quote(kSnapshotFormat) << ", \"entries\": [" << entries.str()
     << "]}";
  return os.str();
}

std::size_t SolutionCache::import_snapshot(const std::string& data) {
  const auto doc = json::parse(data);
  if (!doc || !doc->is_object()) return 0;
  const json::Object& o = doc->object();
  if (json::string_or(o, "v", "") != kSnapshotFormat) return 0;
  const json::Array* entries = json::array_or_null(o, "entries");
  if (!entries) return 0;
  std::size_t imported = 0;
  for (const json::Value& v : *entries) {
    if (!v.is_object()) continue;
    const json::Object& eo = v.object();
    Entry e;
    e.key = json::string_or(eo, "key", "");
    e.group = json::string_or(eo, "group", "");
    if (e.key.empty() || e.group.empty()) continue;
    // Resolved gains are never negative, so a negative one is malformed
    // (and a difference of two gains cannot overflow in nearest()).
    e.resolved_gain = json::int_or(eo, "gain", -1);
    if (e.resolved_gain < 0) continue;
    const json::Object* sel = json::object_or_null(eo, "sel");
    if (!sel || !selection_from_json(*sel, &e.selection)) continue;
    e.artifacts.carry_search_state = true;
    e.bytes = entry_bytes(e);
    std::lock_guard<std::mutex> g(mu_);
    e.generation = generation_;
    link_locked(std::move(e));
    ++stats_.insertions;
    evict_locked();
    ++imported;
  }
  return imported;
}

CacheStats SolutionCache::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  CacheStats st = stats_;
  st.entries = lru_.size();
  st.bytes = bytes_;
  return st;
}

}  // namespace partita::service
