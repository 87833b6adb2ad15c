// Batch-vs-serial differential tests: Selector::select_batch (and the
// service's job path on top of it, where every submit is a gain ladder)
// amortizes the model build, the presolve clique table, chained root bases
// and carried search state -- and must stay bit-identical to the equivalent
// serial solves while doing so. Feasible items are also audited against the
// independent exhaustive oracle. The service section also covers what
// ladders share with single requests: retries, quarantine and queued
// cancellation.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "oracle/exhaustive.hpp"
#include "oracle/fixture.hpp"
#include "select/flow.hpp"
#include "service/journal.hpp"
#include "service/solve_service.hpp"
#include "support/clock.hpp"
#include "support/fault_injection.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita {
namespace {

void expect_same_selection(const select::Selection& a, const select::Selection& b,
                           const std::string& what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.chosen, b.chosen) << what;
  EXPECT_EQ(a.ips_used, b.ips_used) << what;
  EXPECT_EQ(a.min_path_gain, b.min_path_gain) << what;
  EXPECT_DOUBLE_EQ(a.ip_area, b.ip_area) << what;
  EXPECT_DOUBLE_EQ(a.interface_area, b.interface_area) << what;
  EXPECT_EQ(a.rung, b.rung) << what;
  EXPECT_EQ(a.solver.termination, b.solver.termination) << what;
}

/// Gain ladder covering easy, hard and infeasible items.
std::vector<std::int64_t> ladder(std::int64_t gmax) {
  return {gmax / 4, gmax / 2, (3 * gmax) / 4, gmax, 2 * gmax + 1};
}

TEST(BatchSolve, BitIdenticalToSerialOnSeedApps) {
  struct Case {
    std::string name;
    workloads::Workload w;
  };
  workloads::RandomWorkloadParams p;
  p.call_sites = 24;
  p.leaf_functions = 8;
  p.ips = 12;
  const Case cases[] = {
      {"gsm_encoder", workloads::gsm_encoder()},
      {"gsm_decoder", workloads::gsm_decoder()},
      {"jpeg_encoder", workloads::jpeg_encoder()},
      {"random_24site", workloads::random_workload(p, 4242)},
      // 13 conditionals: past the 12 that the enumerated path list covers.
      {"random_30site", workloads::random_workload({.call_sites = 30}, 9)},
  };
  for (const Case& c : cases) {
    select::Flow flow(c.w.module, c.w.library);
    if (c.name == "random_30site") {
      ASSERT_GT(cdfg::conditional_tree(flow.entry_cdfg()).conds.size(), 12u);
    }
    const std::int64_t gmax = flow.max_feasible_gain();
    const std::vector<std::int64_t> rgs = ladder(gmax);
    std::vector<select::Selection> serial;
    for (const std::int64_t rg : rgs) serial.push_back(flow.select(rg, {}));
    const std::vector<select::Selection> batched = flow.select_batch(rgs, {});
    ASSERT_EQ(batched.size(), rgs.size()) << c.name;
    for (std::size_t i = 0; i < rgs.size(); ++i) {
      expect_same_selection(serial[i], batched[i],
                            c.name + " item " + std::to_string(i));
    }

    // The same ladder as seeded solves through one context, hardest first,
    // then one more gain from the context it leaves: every solve under one
    // SelectOptions builds one model layout, so the carried state applies.
    ilp::BatchContext ctx;
    ctx.carry_search_state = true;
    for (std::size_t i = rgs.size(); i-- > 0;) {
      const select::Selection seeded = flow.selector().select_seeded(
          std::vector<std::int64_t>(flow.paths().size(), rgs[i]), {}, &ctx);
      expect_same_selection(serial[i], seeded, c.name + " seeded item " + std::to_string(i));
    }
    const std::int64_t extra = gmax / 3;
    const select::Selection seeded = flow.selector().select_seeded(
        std::vector<std::int64_t>(flow.paths().size(), extra), {}, &ctx);
    const select::Selection cold = flow.select(extra, {});
    EXPECT_GT(seeded.solver.batch_hits, 0) << c.name;
    expect_same_selection(cold, seeded, c.name + " seeded after the ladder");
    EXPECT_EQ(select::solution_signature(seeded), select::solution_signature(cold)) << c.name;
  }
}

TEST(BatchSolve, ReusesAmortizedArtifacts) {
  workloads::RandomWorkloadParams p;
  p.call_sites = 24;
  p.leaf_functions = 8;
  p.ips = 12;
  const workloads::Workload w = workloads::random_workload(p, 4242);
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = {gmax / 4, gmax / 2, (3 * gmax) / 4};
  const std::vector<select::Selection> batched = flow.select_batch(rgs, {});
  ASSERT_EQ(batched.size(), rgs.size());
  // Items after the first must have hit the shared clique table / root basis
  // at least once -- otherwise the batch path silently degraded to serial.
  long long hits = 0;
  for (std::size_t i = 1; i < batched.size(); ++i) hits += batched[i].solver.batch_hits;
  EXPECT_GT(hits, 0);
}

TEST(BatchSolve, PerItemHookRunsInOrder) {
  const workloads::Workload w = workloads::gsm_decoder();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = {gmax / 2, gmax};
  std::vector<std::size_t> seen;
  const std::vector<select::Selection> batched = flow.selector().select_batch(
      rgs, {}, [&](std::size_t item, ilp::IlpOptions& opt) {
        seen.push_back(item);
        opt.budget.time_limit_seconds = 60.0;  // per-item budget install works
      });
  ASSERT_EQ(batched.size(), rgs.size());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1}));
  for (const select::Selection& sel : batched) EXPECT_TRUE(sel.feasible);
}

TEST(BatchSolve, TruncatedSeededItemAnswersAsAStandaloneSolve) {
  // Items are solved hardest-first with carried search state, so item 0
  // (the lower gain) starts from item 1's optimum. A node limit from the
  // hook truncates it; carried state is not answer-neutral for a truncated
  // search, so the batch must re-solve the item without it. Here the seed
  // would hand the truncated item a gap-bounded incumbent that a
  // standalone two-node search never finds.
  const workloads::Workload w = workloads::jpeg_encoder();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = {gmax / 2, gmax};
  constexpr int kMaxNodes = 2;
  const std::vector<select::Selection> batched = flow.selector().select_batch(
      rgs, {}, [&](std::size_t item, ilp::IlpOptions& opt) {
        if (item == 0) opt.max_nodes = kMaxNodes;
      });
  ASSERT_EQ(batched.size(), rgs.size());
  ASSERT_TRUE(batched[0].truncated);
  EXPECT_EQ(batched[0].solver.seeded_artifacts, 0);
  select::SelectOptions capped;
  capped.ilp.max_nodes = kMaxNodes;
  expect_same_selection(flow.select(rgs[0], capped), batched[0], "truncated item");
  EXPECT_DOUBLE_EQ(batched[0].optimality_gap, flow.select(rgs[0], capped).optimality_gap);
  expect_same_selection(flow.select(rgs[1], {}), batched[1], "untruncated item");
}

TEST(BatchSolve, TruncatedSeededSolveIsRedoneColdAndReported) {
  // select_seeded shares the ladder core's fallback rule: a search that
  // started from a cache seed and truncates is redone from a fresh context,
  // and the caller is told (the service counts it as a seed fallback).
  const workloads::Workload w = workloads::jpeg_encoder();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> hard(flow.paths().size(), gmax);
  const std::vector<std::int64_t> easy(flow.paths().size(), gmax / 2);

  ilp::BatchContext seed;
  seed.carry_search_state = true;
  bool redone = true;
  const select::Selection first = flow.selector().select_seeded(hard, {}, &seed, &redone);
  ASSERT_FALSE(first.truncated);
  EXPECT_FALSE(redone);  // a fresh context carries nothing to fall back from

  select::SelectOptions capped;
  capped.ilp.max_nodes = 2;
  const select::Selection sel = flow.selector().select_seeded(easy, capped, &seed, &redone);
  ASSERT_TRUE(sel.truncated);
  EXPECT_TRUE(redone);
  EXPECT_EQ(sel.solver.seeded_artifacts, 0);
  expect_same_selection(flow.select(gmax / 2, capped), sel, "redone seeded solve");
}

TEST(BatchSolve, FeasibleItemsPassOracleAudit) {
  workloads::RandomWorkloadParams p;
  p.call_sites = 10;
  p.leaf_functions = 4;
  p.ips = 6;
  const workloads::Workload w = workloads::random_workload(p, 58);
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = ladder(gmax);
  const std::vector<select::Selection> batched = flow.select_batch(rgs, {});
  for (std::size_t i = 0; i < rgs.size(); ++i) {
    const oracle::OracleResult ref = oracle::exhaustive_select(
        flow.imp_database(), flow.library(), flow.entry_cdfg(), flow.paths(), rgs[i]);
    ASSERT_TRUE(ref.exhausted) << "item " << i;
    EXPECT_EQ(batched[i].feasible, ref.feasible) << "item " << i;
    if (!ref.feasible) continue;
    EXPECT_NEAR(batched[i].total_area(), ref.total_area, 1e-6) << "item " << i;
    EXPECT_EQ(oracle::check_selection(flow.imp_database(), flow.entry_cdfg(),
                                      flow.paths(), rgs[i], batched[i].chosen),
              "")
        << "item " << i;
  }
}

// --- service job path: a request is a gain ladder --------------------------

TEST(BatchSolve, ServiceBatchMatchesSerialSubmits) {
  const workloads::Workload w = workloads::gsm_decoder();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = {gmax / 4, gmax / 2, gmax};

  service::ServiceConfig cfg;
  cfg.workers = 2;
  service::SolveService svc(cfg);

  service::SolveRequest batch;
  batch.label = "batch";
  batch.workload = workloads::gsm_decoder();
  batch.required_gains = rgs;
  const std::vector<std::uint64_t> tickets = svc.submit(std::move(batch)).tickets;
  ASSERT_EQ(tickets.size(), rgs.size());

  for (std::size_t i = 0; i < rgs.size(); ++i) {
    const service::SolveResponse r = svc.wait(tickets[i]);
    ASSERT_EQ(r.state, service::RequestState::kCompleted) << "item " << i;
    expect_same_selection(flow.select(rgs[i], {}), r.selection,
                          "service item " + std::to_string(i));
  }
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batch_items, rgs.size());
  EXPECT_GT(st.batch_amortized_hits, 0u);
  svc.shutdown();
}

TEST(BatchSolve, ServiceLadderRetriesATransientFault) {
  const workloads::Workload w = workloads::gsm_decoder();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = {gmax / 4, gmax / 2, gmax};

  support::FakeClock clock;
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.retry.max_attempts = 3;
  cfg.retry.jitter = 0.0;
  service::SolveService svc(cfg);

  // Non-sticky: the ladder's first attempt trips, the second runs clean.
  support::ScopedFault fault("service.transient", /*trip_at=*/1, /*sticky=*/false);
  service::SolveRequest req;
  req.workload = workloads::gsm_decoder();
  req.required_gains = rgs;
  const std::vector<std::uint64_t> tickets = svc.submit(std::move(req)).tickets;
  ASSERT_EQ(tickets.size(), rgs.size());
  for (std::size_t i = 0; i < rgs.size(); ++i) {
    const service::SolveResponse r = svc.wait(tickets[i]);
    ASSERT_EQ(r.state, service::RequestState::kCompleted)
        << "item " << i << ": " << r.error.render();
    EXPECT_EQ(r.attempts, 2) << "item " << i;
    // The retry rung shrinks only the node budget; these ladders complete
    // well inside it, so every answer is the cold serial one.
    EXPECT_EQ(select::solution_signature(r.selection),
              select::solution_signature(flow.select(rgs[i], {})))
        << "item " << i;
  }
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, rgs.size());
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.retries, rgs.size());
}

TEST(BatchSolve, ServiceLadderExhaustingRetriesLeavesOneQuarantineFixture) {
  const std::filesystem::path qdir =
      std::filesystem::path(::testing::TempDir()) / "partita_ladder_quarantine";
  std::filesystem::remove_all(qdir);
  std::filesystem::create_directories(qdir);

  support::FakeClock clock;
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.retry.max_attempts = 2;
  cfg.quarantine_dir = qdir.string();
  service::SolveService svc(cfg);

  support::ScopedFault fault("service.transient", /*trip_at=*/1, /*sticky=*/true);
  const workloads::InstanceSpec spec =
      workloads::random_instance_spec(workloads::InstanceGenParams{}, /*seed=*/11);
  service::SolveRequest req;
  req.workload = workloads::spec_workload(spec);
  req.spec = spec;
  req.required_gains = {-1, 1, 2};
  const std::vector<std::uint64_t> tickets = svc.submit(std::move(req)).tickets;
  ASSERT_EQ(tickets.size(), 3u);

  std::string fixture;
  for (const std::uint64_t t : tickets) {
    const service::SolveResponse r = svc.wait(t);
    EXPECT_EQ(r.state, service::RequestState::kFailed);
    EXPECT_EQ(r.error.kind, support::ErrorKind::kTransient);
    EXPECT_EQ(r.attempts, 2);
    ASSERT_FALSE(r.quarantine_fixture.empty());
    if (fixture.empty()) fixture = r.quarantine_fixture;
    EXPECT_EQ(r.quarantine_fixture, fixture);  // one fixture per job
  }
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(qdir)) {
    ++files;
  }
  EXPECT_EQ(files, 1u);

  std::string doc;
  std::string err;
  ASSERT_TRUE(service::Journal::read_quarantine_file(fixture, &doc, &err)) << err;
  const auto reloaded = oracle::parse_fixture(doc, &err);
  ASSERT_TRUE(reloaded.has_value()) << err;
  EXPECT_EQ(oracle::fixture_json(*reloaded), oracle::fixture_json(spec));
}

TEST(BatchSolve, ServiceCancelsQueuedLadderItemAndSingleRequest) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;  // both jobs stay queued until resume()
  service::SolveService svc(cfg);

  service::SolveRequest ladder;
  ladder.workload = workloads::fig9_case();
  ladder.required_gains = {-1, 1, 2};
  const std::vector<std::uint64_t> items = svc.submit(std::move(ladder)).tickets;
  ASSERT_EQ(items.size(), 3u);
  service::SolveRequest single;
  single.workload = workloads::fig9_case();
  const std::uint64_t lone = svc.submit(std::move(single)).ticket();
  EXPECT_EQ(svc.scheduler_stats().queued, 2u);

  EXPECT_TRUE(svc.cancel(items[1]));
  EXPECT_TRUE(svc.cancel(lone));
  EXPECT_FALSE(svc.cancel(items[1]));  // already terminal
  EXPECT_FALSE(svc.cancel(lone));
  // The single job left the queue; the ladder stays for its live items.
  EXPECT_EQ(svc.scheduler_stats().queued, 1u);

  svc.resume();
  EXPECT_EQ(svc.wait(items[0]).state, service::RequestState::kCompleted);
  EXPECT_EQ(svc.wait(items[1]).state, service::RequestState::kCancelled);
  EXPECT_EQ(svc.wait(items[2]).state, service::RequestState::kCompleted);
  EXPECT_EQ(svc.wait(lone).state, service::RequestState::kCancelled);
  svc.drain();
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.cancelled, 2u);
  EXPECT_EQ(st.completed + st.cancelled + st.rejected + st.failed, st.submitted);
  EXPECT_EQ(svc.scheduler_stats().queued, 0u);
}

}  // namespace
}  // namespace partita
