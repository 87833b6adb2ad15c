// Cross-request solution cache, tier 1: fingerprint invariances (row
// permutation, term order) and sensitivities (values, flags, column order),
// LRU + byte eviction order, counter consistency (hits + misses == lookups,
// monotone evictions), per-tenant namespacing, invalidation (generation
// bump and option change), the snapshot format, the soundness of the
// envelope key's printed text, and the service-level read-through contract:
// hit/neighbor/miss answers bit-identical to cold solves. The heavier
// randomized stream proof lives in `partita_fuzz --mode cache` (tier 2 + CI).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "ilp/fingerprint.hpp"
#include "iplib/loader.hpp"
#include "ir/printer.hpp"
#include "select/flow.hpp"
#include "service/solution_cache.hpp"
#include "service/solve_service.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita {
namespace {

// --- fingerprint ----------------------------------------------------------

/// Small reference model: 3 binaries, two rows.
ilp::Model base_model() {
  ilp::Model m;
  m.set_sense(ilp::Sense::kMinimize);
  const ilp::VarIndex a = m.add_binary("a", 2.0);
  const ilp::VarIndex b = m.add_binary("b", 3.0);
  const ilp::VarIndex c = m.add_binary("c", 5.0);
  m.add_row("r0", {{a, 1.0}, {b, 1.0}}, ilp::RowSense::kLessEqual, 1.0);
  m.add_row("r1", {{b, 4.0}, {c, 7.0}}, ilp::RowSense::kGreaterEqual, 6.0);
  return m;
}

TEST(Fingerprint, DeterministicAcrossRebuilds) {
  EXPECT_EQ(ilp::fingerprint_model(base_model()), ilp::fingerprint_model(base_model()));
  EXPECT_EQ(ilp::fingerprint_model(base_model()).hex().size(), 32u);
}

TEST(Fingerprint, RowPermutationAndTermOrderInvariant) {
  ilp::Model m = base_model();

  // Same constraints: rows swapped, terms within each row reversed, names
  // completely different (names must not matter).
  ilp::Model p;
  p.set_sense(ilp::Sense::kMinimize);
  const ilp::VarIndex a = p.add_binary("x", 2.0);
  const ilp::VarIndex b = p.add_binary("y", 3.0);
  const ilp::VarIndex c = p.add_binary("z", 5.0);
  p.add_row("other1", {{c, 7.0}, {b, 4.0}}, ilp::RowSense::kGreaterEqual, 6.0);
  p.add_row("other0", {{b, 1.0}, {a, 1.0}}, ilp::RowSense::kLessEqual, 1.0);

  EXPECT_EQ(ilp::fingerprint_model(m), ilp::fingerprint_model(p));
}

TEST(Fingerprint, SensitiveToEverythingMathematical) {
  const ilp::Fingerprint ref = ilp::fingerprint_model(base_model());

  {  // rhs change
    ilp::Model m = base_model();
    m.set_rhs(1, 7.0);
    EXPECT_NE(ilp::fingerprint_model(m), ref);
  }
  {  // objective change
    ilp::Model m = base_model();
    m.var(0).objective = 2.5;
    EXPECT_NE(ilp::fingerprint_model(m), ref);
  }
  {  // bound change (e.g. an imp_filter forcing a variable to 0)
    ilp::Model m = base_model();
    m.var(2).upper = 0.0;
    EXPECT_NE(ilp::fingerprint_model(m), ref);
  }
  {  // sense change
    ilp::Model m = base_model();
    m.set_sense(ilp::Sense::kMaximize);
    EXPECT_NE(ilp::fingerprint_model(m), ref);
  }
  {  // extra row
    ilp::Model m = base_model();
    m.add_row("r2", {{0, 1.0}}, ilp::RowSense::kLessEqual, 1.0);
    EXPECT_NE(ilp::fingerprint_model(m), ref);
  }
}

TEST(Fingerprint, ColumnOrderSensitiveByDesign) {
  // Same mathematical content, columns a/b swapped: the canonical
  // (lex-smallest) optimum depends on column order, so the fingerprint MUST
  // differ -- a permuted-equivalent instance may not share a cache entry.
  ilp::Model m = base_model();

  ilp::Model p;
  p.set_sense(ilp::Sense::kMinimize);
  const ilp::VarIndex b = p.add_binary("b", 3.0);
  const ilp::VarIndex a = p.add_binary("a", 2.0);
  const ilp::VarIndex c = p.add_binary("c", 5.0);
  p.add_row("r0", {{a, 1.0}, {b, 1.0}}, ilp::RowSense::kLessEqual, 1.0);
  p.add_row("r1", {{b, 4.0}, {c, 7.0}}, ilp::RowSense::kGreaterEqual, 6.0);

  EXPECT_NE(ilp::fingerprint_model(m), ilp::fingerprint_model(p));
}

TEST(Fingerprint, OptionsDigestCoversAnswerAffectingKnobsOnly) {
  ilp::IlpOptions opt;
  const std::uint64_t ref = ilp::digest_options(opt);

  ilp::IlpOptions o1 = opt;
  o1.max_nodes /= 2;
  EXPECT_NE(ilp::digest_options(o1), ref);

  ilp::IlpOptions o2 = opt;
  o2.canonical_ties = false;
  EXPECT_NE(ilp::digest_options(o2), ref);

  ilp::IlpOptions o3 = opt;
  o3.budget.time_limit_seconds = 1.0;
  EXPECT_NE(ilp::digest_options(o3), ref);
}

// The default-options digest keys persisted cache snapshots, so its value is pinned: dropping a fixed constant from the digest or
// reordering the mix changes it.
TEST(Fingerprint, DefaultOptionsDigestIsPinned) {
  EXPECT_EQ(ilp::digest_options(ilp::IlpOptions{}), 0x991ec8b570e5005eULL);
}

// --- SolutionCache mechanics ---------------------------------------------

service::SolutionCache::Key key_for(const std::string& tenant, std::uint64_t salt,
                                    std::int64_t gain) {
  service::SolutionCache::Key k;
  k.tenant = tenant;
  k.envelope.hi = ilp::fp_mix(salt);
  k.envelope.lo = ilp::fp_mix(salt + 1);
  k.options_digest = 42;
  k.gain = gain;
  return k;
}

select::Selection dummy_selection(int tag) {
  select::Selection s;
  s.feasible = true;
  s.chosen = {static_cast<isel::ImpIndex>(tag)};
  s.rung = select::DegradationRung::kOptimal;
  return s;
}

TEST(SolutionCache, LruEvictionOrderAndRecencyRefresh) {
  service::SolutionCache::Config cc;
  cc.capacity = 3;
  cc.max_bytes = 0;
  service::SolutionCache cache(cc);

  for (int i = 0; i < 3; ++i) {
    cache.insert(key_for("t", 7, i), dummy_selection(i), {}, i);
  }
  // Touch key 0 so key 1 becomes the LRU victim.
  ASSERT_TRUE(cache.lookup(key_for("t", 7, 0)).has_value());
  cache.insert(key_for("t", 7, 3), dummy_selection(3), {}, 3);

  EXPECT_TRUE(cache.lookup(key_for("t", 7, 0)).has_value());
  EXPECT_FALSE(cache.lookup(key_for("t", 7, 1)).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(key_for("t", 7, 2)).has_value());
  EXPECT_TRUE(cache.lookup(key_for("t", 7, 3)).has_value());

  const service::CacheStats st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 3u);
  EXPECT_EQ(st.hits + st.misses, st.lookups);
}

TEST(SolutionCache, ByteBudgetBoundsResidency) {
  service::SolutionCache::Config cc;
  cc.capacity = 1000;
  cc.max_bytes = 4096;  // far below 100 entries' footprint
  service::SolutionCache cache(cc);

  select::Selection fat = dummy_selection(0);
  fat.degradation_detail.assign(512, 'x');
  for (int i = 0; i < 100; ++i) cache.insert(key_for("t", 9, i), fat, {}, i);

  const service::CacheStats st = cache.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.bytes, 4096u + 2048u);  // one oversize entry of slack
  EXPECT_GE(st.entries, 1u);           // never evicts below one entry
}

TEST(SolutionCache, CounterConsistencyUnderMixedTraffic) {
  service::SolutionCache::Config cc;
  cc.capacity = 8;
  service::SolutionCache cache(cc);

  std::uint64_t prev_evictions = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 16; ++i) {
      const auto k = key_for("t", 11, i);
      if (!cache.lookup(k).has_value()) {
        cache.insert(k, dummy_selection(i), {}, i);
      }
    }
    const service::CacheStats st = cache.stats();
    EXPECT_EQ(st.hits + st.misses, st.lookups);
    EXPECT_GE(st.evictions, prev_evictions);  // monotone
    prev_evictions = st.evictions;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(SolutionCache, TenantNamespacingIsolatesEntries) {
  service::SolutionCache cache({});
  cache.insert(key_for("alice", 13, 5), dummy_selection(1), {}, 5);

  EXPECT_TRUE(cache.lookup(key_for("alice", 13, 5)).has_value());
  EXPECT_FALSE(cache.lookup(key_for("bob", 13, 5)).has_value());
  EXPECT_FALSE(cache.lookup(key_for("", 13, 5)).has_value());
}

TEST(SolutionCache, OptionChangeMissesAndInvalidationDropsStale) {
  service::SolutionCache cache({});
  const auto k = key_for("t", 17, 3);
  cache.insert(k, dummy_selection(1), {}, 3);

  // Different options digest: clean miss, entry untouched.
  auto k2 = k;
  k2.options_digest = 43;
  EXPECT_FALSE(cache.lookup(k2).has_value());
  EXPECT_TRUE(cache.lookup(k).has_value());

  // Generation invalidation: the same key now drops as stale.
  cache.invalidate_all();
  EXPECT_FALSE(cache.lookup(k).has_value());
  const service::CacheStats st = cache.stats();
  EXPECT_EQ(st.stale, 1u);
  EXPECT_GE(st.invalidations, 1u);
  EXPECT_EQ(st.hits + st.misses, st.lookups);

  // Re-insert after invalidation: serves again.
  cache.insert(k, dummy_selection(2), {}, 3);
  EXPECT_TRUE(cache.lookup(k).has_value());
}

TEST(SolutionCache, NearestPrefersClosestGainAndStaysInGroup) {
  service::SolutionCache cache({});
  ilp::BatchContext near_ctx;
  near_ctx.items = 7;  // marker to recognize the returned copy
  cache.insert(key_for("t", 19, 100), dummy_selection(1), {}, 100);
  cache.insert(key_for("t", 19, 140), dummy_selection(2), near_ctx, 140);
  cache.insert(key_for("t", 23, 130), dummy_selection(3), {}, 130);  // other group

  const service::CacheSeed seed = cache.nearest(key_for("t", 19, -1), 132);
  ASSERT_TRUE(seed.valid);
  EXPECT_EQ(seed.distance, 8);            // picked gain 140, not 100 or the
  EXPECT_EQ(seed.artifacts.items, 7);     // other-group 130
  EXPECT_TRUE(seed.artifacts.carry_search_state);

  EXPECT_FALSE(cache.nearest(key_for("t", 29, -1), 132).valid);  // empty group
}

TEST(SolutionCache, MemosStayBoundedByCapacity) {
  service::SolutionCache::Config cc;
  cc.capacity = 8;
  service::SolutionCache cache(cc);

  // 4x capacity distinct derived-gain groups.
  for (int i = 0; i < 32; ++i) {
    const auto k = key_for("t", 100 + static_cast<std::uint64_t>(i), -1);
    cache.insert(k, dummy_selection(i), {}, i);
    EXPECT_LE(cache.stats().entries, cc.capacity);
  }
  EXPECT_GT(cache.stats().evictions, 0u);

  // The newest group kept its entry; invalidation outdates it.
  const auto newest = key_for("t", 131, -1);
  EXPECT_TRUE(cache.lookup(newest).has_value());
  cache.invalidate_all();
  EXPECT_FALSE(cache.lookup(newest).has_value());
  EXPECT_FALSE(cache.nearest(newest, 31).valid);
  EXPECT_EQ(cache.stats().stale, 1u);
}

// Only the current format imports. A v2 document keyed entries on model
// structure fingerprints, which no request forms any more; a v1 document's
// derived gains came from the truncated floating objective (sometimes one
// below the exact integer G_min).
TEST(SolutionCache, SnapshotImportsOnlyItsOwnFormat) {
  service::SolutionCache::Config cc;
  service::SolutionCache cache(cc);
  const auto k = key_for("t", 9, -1);
  cache.insert(k, dummy_selection(4), {}, 17);
  const std::string doc = cache.export_snapshot();
  const std::string v3 = "partita-cache-snapshot-v3";
  const std::size_t at = doc.find(v3);
  ASSERT_NE(at, std::string::npos) << doc;

  service::SolutionCache round_trip(cc);
  EXPECT_EQ(round_trip.import_snapshot(doc), 1u);
  const auto hit = round_trip.lookup(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->chosen, dummy_selection(4).chosen);
  // The resolved gain survives the round trip: it ranks neighbours.
  const service::CacheSeed seed = round_trip.nearest(key_for("t", 9, 20), 20);
  ASSERT_TRUE(seed.valid);
  EXPECT_EQ(seed.distance, 3);

  for (const char* old : {"partita-cache-snapshot-v2", "partita-cache-snapshot-v1"}) {
    std::string old_doc = doc;
    old_doc.replace(at, v3.size(), old);
    service::SolutionCache from_old(cc);
    EXPECT_EQ(from_old.import_snapshot(old_doc), 0u) << old;
    EXPECT_FALSE(from_old.lookup(k).has_value()) << old;
    EXPECT_EQ(from_old.stats().entries, 0u) << old;
  }
}

// --- envelope key soundness -----------------------------------------------

/// Parses the printed module and saved library back into a workload.
workloads::Workload reprinted(const workloads::Workload& w) {
  support::DiagnosticEngine diags;
  std::optional<ir::Module> module =
      frontend::parse_module(ir::print_module(w.module), diags);
  std::optional<iplib::IpLibrary> library =
      iplib::load_library(iplib::save_library(w.library), diags);
  EXPECT_TRUE(module.has_value() && library.has_value()) << w.name;
  workloads::Workload out;
  out.name = w.name;
  if (module) out.module = std::move(*module);
  if (library) out.library = std::move(*library);
  return out;
}

/// ilp::fingerprint_model over `selector`'s token-gain model (every gain row
/// built with RHS 1): the constraint system with the gains factored out.
ilp::Fingerprint token_model(const select::Selector& selector,
                             const select::SelectOptions& opt) {
  return ilp::fingerprint_model(
      selector.build_model(std::vector<std::int64_t>(selector.path_count(), 1), opt));
}

// The cache keys on the printed envelope (plus the exact bits of the
// doubles it rounds, see SeventhDigitDoublesMissTheMemo). It is sound iff
// printing loses nothing else the model, its decode map or the answer
// depends on: if print(m) parses to a workload with m's model, decode map
// and answer, any two workloads printing alike share all three. Checked on
// every built-in app and 50 generated instances.
TEST(CacheMemo, PrintedWorkloadKeepsKeyAndAnswer) {
  std::vector<workloads::Workload> cases;
  for (const char* name : {"gsm_encoder", "gsm_decoder", "jpeg_encoder", "fig9",
                           "fig10", "adpcm_codec"}) {
    cases.push_back(*workloads::builtin(name));
  }
  workloads::InstanceGenParams params;
  params.branch_groups = 2;
  params.max_hierarchy_depth = 2;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    cases.push_back(workloads::spec_workload(workloads::random_instance_spec(params, seed)));
  }

  select::SelectOptions problem1;
  problem1.problem2 = false;
  for (const workloads::Workload& w : cases) {
    const workloads::Workload r = reprinted(w);
    const auto fw = select::Flow::create(w.module, w.library);
    const auto fr = select::Flow::create(r.module, r.library);
    ASSERT_TRUE(fw.ok()) << w.name;
    ASSERT_TRUE(fr.ok()) << w.name;
    const select::Selector& sw = fw.value()->selector();
    const select::Selector& sr = fr.value()->selector();
    EXPECT_EQ(token_model(sw, {}), token_model(sr, {})) << w.name;
    EXPECT_EQ(token_model(sw, problem1), token_model(sr, problem1)) << w.name;
    EXPECT_EQ(sw.answer_map_digest(), sr.answer_map_digest()) << w.name;
    const std::int64_t rg = fw.value()->max_feasible_gain() / 2;
    EXPECT_EQ(select::solution_signature(fw.value()->select(rg)),
              select::solution_signature(fr.value()->select(rg)))
        << w.name;
  }
}

// --- service read-through: answers bit-identical to cold solves ----------

TEST(SolveServiceCache, RepeatHitsServeBitIdenticalAnswers) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  service::SolveService svc(cfg);

  const workloads::Workload w = workloads::fig9_case();
  const auto flow = select::Flow::create(w.module, w.library);
  ASSERT_TRUE(flow.ok());
  const std::int64_t rg = flow.value()->max_feasible_gain() / 2;
  const select::Selection cold = flow.value()->select(rg);

  std::string expected_marker = "miss";
  for (int i = 0; i < 3; ++i) {
    service::SolveRequest req;
    req.workload = workloads::fig9_case();
    req.required_gains = {rg};
    const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
    ASSERT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
    EXPECT_EQ(r.cache, expected_marker) << "iteration " << i;
    EXPECT_EQ(select::solution_signature(r.selection),
              select::solution_signature(cold))
        << "iteration " << i;
    expected_marker = "hit";
  }

  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_lookups, 3u);
  EXPECT_EQ(st.cache_hits, 2u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_insertions, 1u);
}

TEST(SolveServiceCache, DerivedGainRequestsShareOneEntry) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  service::SolveService svc(cfg);

  for (int i = 0; i < 2; ++i) {
    service::SolveRequest req;
    req.workload = workloads::fig10_case();
    req.required_gains = {-1};  // derived: max_feasible_gain/2
    const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
    ASSERT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
    EXPECT_EQ(r.cache, i == 0 ? "miss" : "hit");
  }
  EXPECT_EQ(svc.stats().cache_hits, 1u);
}

TEST(SolveServiceCache, NeighborSeedingAnswersMatchColdSolves) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  service::SolveService svc(cfg);

  const workloads::Workload w = workloads::gsm_encoder();
  const auto flow = select::Flow::create(w.module, w.library);
  ASSERT_TRUE(flow.ok());
  const std::int64_t rg = flow.value()->max_feasible_gain() / 2;

  // Warm the group, then near-repeat at perturbed gains: every answer must
  // match its own cold solve exactly, seeded or not.
  for (const std::int64_t g : {rg, rg - 1, rg + 3, rg / 2}) {
    service::SolveRequest req;
    req.workload = workloads::gsm_encoder();
    req.required_gains = {g};
    const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
    ASSERT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
    const select::Selection cold = flow.value()->select(g);
    EXPECT_EQ(select::solution_signature(r.selection),
              select::solution_signature(cold))
        << "gain " << g << " (cache=" << r.cache << ")";
    if (g != rg) {
      EXPECT_EQ(r.cache, "neighbor");
    }
  }
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_neighbor_seeds, 3u);
  EXPECT_EQ(st.cache_insertions, 4u);
}

TEST(SolveServiceCache, DifferentTenantsAndOptionsNeverShareAnswers) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  service::SolveService svc(cfg);

  const auto run = [&](const std::string& tenant, int max_nodes) {
    service::SolveRequest req;
    req.workload = workloads::fig9_case();
    req.required_gains = {50};
    req.tenant = tenant;
    req.options.ilp.max_nodes = max_nodes;
    const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
    EXPECT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
    return r.cache;
  };

  EXPECT_EQ(run("alice", 200000), "miss");
  EXPECT_EQ(run("alice", 200000), "hit");
  EXPECT_EQ(run("bob", 200000), "miss");      // tenant namespacing
  EXPECT_EQ(run("alice", 100000), "miss");    // option change invalidates
  EXPECT_EQ(run("alice", 100000), "hit");

  svc.invalidate_cache();
  EXPECT_EQ(run("alice", 200000), "miss");    // stale after invalidation
  EXPECT_GE(svc.stats().cache_stale, 1u);
}

// Regression (found by `partita_fuzz --mode cache`): two specs can build
// bit-identical ILP models while their libraries index the physical IPs
// differently -- here an IP that implements only a never-called kernel sits
// on either side of the used one. Serving the first spec's cached Selection
// for the second would report the wrong library slot in ips_used, so the
// cache key must cover the column -> (s-call, IP, interface) decode map and
// force a miss.
TEST(SolveServiceCache, ModelIdenticalSpecsWithDifferentIpIndicesMiss) {
  workloads::InstanceSpec base;
  base.name = "decode_map_a";
  base.kernel_cycles = {4000, 9000};
  workloads::SpecCallSite site;
  site.kernel = 0;
  base.sites = {site};

  workloads::SpecIp used;  // implements the called kernel
  used.area = 5.0;
  used.functions = {{/*kernel=*/0, /*cycles=*/400, /*n_in=*/8, /*n_out=*/8}};
  workloads::SpecIp decoy;  // implements only the never-called kernel
  decoy.area = 5.0;
  decoy.functions = {{/*kernel=*/1, /*cycles=*/900, /*n_in=*/8, /*n_out=*/8}};

  workloads::InstanceSpec swapped = base;
  swapped.name = "decode_map_b";
  base.ips = {used, decoy};
  swapped.ips = {decoy, used};

  const workloads::Workload wa = workloads::spec_workload(base);
  const workloads::Workload wb = workloads::spec_workload(swapped);
  const auto fa = select::Flow::create(wa.module, wa.library);
  const auto fb = select::Flow::create(wb.module, wb.library);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());

  // The premise of the regression: the models collide, the decode maps do
  // not. If either assert fails the test no longer covers the collision.
  const select::SelectOptions opt;
  ASSERT_EQ(ilp::fingerprint_model(fa.value()->selector().build_model({1}, opt)),
            ilp::fingerprint_model(fb.value()->selector().build_model({1}, opt)));
  ASSERT_NE(fa.value()->selector().answer_map_digest(),
            fb.value()->selector().answer_map_digest());

  const select::Selection cold_a = fa.value()->select(1);
  const select::Selection cold_b = fb.value()->select(1);
  ASSERT_TRUE(cold_a.feasible);
  ASSERT_TRUE(cold_b.feasible);
  // Same physical answer, different library indices -- the signatures differ.
  ASSERT_NE(select::solution_signature(cold_a), select::solution_signature(cold_b));

  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  service::SolveService svc(cfg);

  const auto ask = [&](const workloads::Workload& w) {
    service::SolveRequest req;
    req.workload = w;
    req.required_gains = {1};
    const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
    EXPECT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
    return r;
  };

  const service::SolveResponse ra = ask(wa);
  EXPECT_EQ(ra.cache, "miss");
  EXPECT_EQ(select::solution_signature(ra.selection),
            select::solution_signature(cold_a));

  const service::SolveResponse rb = ask(wb);
  EXPECT_EQ(rb.cache, "miss");  // a hit here would serve the wrong decode map
  EXPECT_EQ(select::solution_signature(rb.selection),
            select::solution_signature(cold_b));
  svc.shutdown();
}

/// `w` reprinted with one more function that nothing calls and no IP
/// implements: the printed module differs, the model and decode map do not.
workloads::Workload with_idle_function(const workloads::Workload& w) {
  std::string kl = ir::print_module(w.module);
  const std::size_t entry = kl.find("\nentry ");
  EXPECT_NE(entry, std::string::npos) << kl;
  kl.insert(entry + 1, "func idle_helper {\n  seg idle 10;\n}\n\n");
  support::DiagnosticEngine diags;
  std::optional<ir::Module> module = frontend::parse_module(kl, diags);
  EXPECT_TRUE(module.has_value()) << diags.render_all();
  workloads::Workload out = reprinted(w);
  out.name = w.name + "+idle";
  if (module) out.module = std::move(*module);
  return out;
}

// The key is the printed envelope, not the model: two workloads that build
// the same model with the same decode map but print differently share no
// entry, so the second request is a miss answered by its own solve.
TEST(SolveServiceCache, ModelIdenticalEnvelopesMiss) {
  const workloads::Workload wa = reprinted(workloads::fig9_case());
  const workloads::Workload wb = with_idle_function(workloads::fig9_case());
  const auto fa = select::Flow::create(wa.module, wa.library);
  const auto fb = select::Flow::create(wb.module, wb.library);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());

  // The premise: the models and decode maps collide, the envelopes do not.
  const select::SelectOptions opt;
  ASSERT_EQ(token_model(fa.value()->selector(), opt),
            token_model(fb.value()->selector(), opt));
  ASSERT_EQ(fa.value()->selector().answer_map_digest(),
            fb.value()->selector().answer_map_digest());
  ASSERT_NE(service::envelope_digest(wa.module, wa.library, opt),
            service::envelope_digest(wb.module, wb.library, opt));

  const std::int64_t rg = fa.value()->max_feasible_gain() / 2;
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  service::SolveService svc(cfg);
  const auto ask = [&](const workloads::Workload& w) {
    service::SolveRequest req;
    req.workload = w;
    req.required_gains = {rg};
    const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
    EXPECT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
    return r;
  };

  const service::SolveResponse ra = ask(wa);
  EXPECT_EQ(ra.cache, "miss");
  EXPECT_EQ(select::solution_signature(ra.selection),
            select::solution_signature(fa.value()->select(rg)));
  const service::SolveResponse rb = ask(wb);
  EXPECT_EQ(rb.cache, "miss");
  EXPECT_EQ(select::solution_signature(rb.selection),
            select::solution_signature(fb.value()->select(rg)));
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_lookups, 2u);
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_insertions, 2u);
  svc.shutdown();
}

TEST(SolveServiceCache, ExactRepeatIsAMemoHitUntilInvalidated) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  service::SolveService svc(cfg);

  const auto ask = [&] {
    service::SolveRequest req;
    req.workload = workloads::gsm_decoder();
    req.required_gains = {-1};
    const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
    EXPECT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
    return r;
  };

  const service::SolveResponse first = ask();
  EXPECT_EQ(first.cache, "miss");

  // The repeat's key comes from the request alone: a hit without a Flow.
  const service::SolveResponse repeat = ask();
  EXPECT_EQ(repeat.cache, "hit");
  EXPECT_EQ(select::solution_signature(repeat.selection),
            select::solution_signature(first.selection));

  // After invalidation the repeat re-solves in full.
  svc.invalidate_cache();
  const service::SolveResponse after = ask();
  EXPECT_EQ(after.cache, "miss");
  EXPECT_EQ(select::solution_signature(after.selection),
            select::solution_signature(first.selection));

  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_lookups, 3u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_insertions, 2u);
}

TEST(SolveServiceCache, GainPerturbedRepeatCountsOneLookup) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  service::SolveService svc(cfg);

  const workloads::Workload w = workloads::fig9_case();
  const auto flow = select::Flow::create(w.module, w.library);
  ASSERT_TRUE(flow.ok());
  const std::int64_t rg = flow.value()->max_feasible_gain() / 2;

  for (const std::int64_t g : {rg, rg - 1}) {
    const std::uint64_t lookups_before = svc.stats().cache_lookups;
    service::SolveRequest req;
    req.workload = workloads::fig9_case();
    req.required_gains = {g};
    const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
    ASSERT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
    EXPECT_EQ(r.cache, g == rg ? "miss" : "neighbor");
    EXPECT_EQ(select::solution_signature(r.selection),
              select::solution_signature(flow.value()->select(g)));
    // One lookup per request: a miss is not probed a second time.
    EXPECT_EQ(svc.stats().cache_lookups, lookups_before + 1) << "gain " << g;
  }
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_hits + st.cache_misses, st.cache_lookups);
}

/// `w` with IP `ip`'s area replaced.
workloads::Workload with_area(const workloads::Workload& w, std::size_t ip, double area) {
  workloads::Workload out{w.name, w.module, {}};
  for (iplib::IpDescriptor d : w.library.all()) {
    if (d.id.value == ip) d.area = area;
    out.library.add(std::move(d));
  }
  return out;
}

/// One s-call whose software time comes from a body with a lopsided branch,
/// so its if probability moves the gains in the seventh digit.
workloads::Workload branchy(const char* prob) {
  const std::string kl = std::string(R"(
module branchy;

func stage scall {
  if prob )") + prob + R"( {
    seg hot 100000000;
  } else {
    seg cool 1;
  }
}

func main {
  call stage reads(a) writes(b);
  seg post 200 reads(b);
}

entry main;
)";
  const std::string lib = R"(
ip IP_STAGE {
  area 10
  ports in 2 out 2
  rate in 4 out 4
  latency 16
  pipelined
  protocol sync
  fn stage cycles 6000 in 64 out 64
}
)";
  support::DiagnosticEngine diags;
  std::optional<ir::Module> module = frontend::parse_module(kl, diags);
  std::optional<iplib::IpLibrary> library = iplib::load_library(lib, diags);
  EXPECT_TRUE(module.has_value() && library.has_value()) << diags.render_all();
  workloads::Workload w;
  w.name = "branchy";
  if (module) w.module = std::move(*module);
  if (library) w.library = std::move(*library);
  return w;
}

// The printed text rounds doubles to six significant digits. Two workloads
// that print alike but differ in the seventh digit of one IP area, or of
// one if probability, must not share an envelope: each misses and gets its
// own cold answer.
TEST(SolveServiceCache, SeventhDigitDoublesMissTheMemo) {
  const workloads::Workload decoder = workloads::gsm_decoder();
  const auto decoder_flow = select::Flow::create(decoder.module, decoder.library);
  ASSERT_TRUE(decoder_flow.ok());
  const select::Selection decoder_answer =
      decoder_flow.value()->select(decoder_flow.value()->max_feasible_gain() / 2);
  ASSERT_FALSE(decoder_answer.ips_used.empty());
  const std::size_t ip = decoder_answer.ips_used.front().value;
  const double area = decoder.library.all()[ip].area;

  const std::vector<std::pair<workloads::Workload, workloads::Workload>> pairs = {
      {with_area(decoder, ip, area + 1.23e-7 * area), with_area(decoder, ip, area + 4.56e-7 * area)},
      {branchy("0.2500001"), branchy("0.2500004")},
  };
  for (const auto& [a, b] : pairs) {
    ASSERT_EQ(ir::print_module(a.module), ir::print_module(b.module)) << a.name;
    ASSERT_EQ(iplib::save_library(a.library), iplib::save_library(b.library)) << a.name;

    service::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cache_enabled = true;
    service::SolveService svc(cfg);
    std::vector<std::string> cold;
    for (const workloads::Workload* w : {&a, &b}) {
      const auto flow = select::Flow::create(w->module, w->library);
      ASSERT_TRUE(flow.ok()) << w->name;
      cold.push_back(select::solution_signature(
          flow.value()->select(flow.value()->max_feasible_gain() / 2)));

      service::SolveRequest req;
      req.workload = *w;
      const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
      ASSERT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
      EXPECT_EQ(r.cache, "miss") << w->name;
      EXPECT_EQ(select::solution_signature(r.selection), cold.back()) << w->name;
    }
    // The two answers really differ, so sharing an entry would have shown.
    EXPECT_NE(cold[0], cold[1]) << a.name;
    svc.shutdown();
  }
}

TEST(SolveServiceCache, DisabledCacheLeavesBehaviorAndCountersUntouched) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  service::SolveService svc(cfg);

  service::SolveRequest req;
  req.workload = workloads::fig9_case();
  req.required_gains = {50};
  const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
  ASSERT_EQ(r.state, service::RequestState::kCompleted);
  EXPECT_EQ(r.cache, "");
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_lookups, 0u);
  EXPECT_EQ(st.cache_hits + st.cache_misses, 0u);
}

}  // namespace
}  // namespace partita
