// Unit tests for the pluggable scheduling policies (service/scheduler.hpp).
//
// Every policy decision runs on caller-supplied timestamps, so these tests
// drive synthetic SchedEntry streams with simulated micros and assert the
// ordering/starvation invariants directly -- no service, no threads, no real
// clock. The service-integration side (quotas, retry-after on a live
// service) uses a start_paused SolveService to fill the queue race-free.
#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/solve_service.hpp"
#include "support/clock.hpp"
#include "workloads/workloads.hpp"

namespace partita::service {
namespace {

constexpr std::int64_t kSecond = 1'000'000;

/// Builds one synthetic entry. seq mirrors ticket: the service hands both
/// out monotonically.
SchedEntry entry(std::uint64_t ticket, int priority, std::int64_t submit_micros,
                 double declared = 0.0, std::int64_t deadline_micros = -1) {
  SchedEntry e;
  e.ticket = ticket;
  e.seq = ticket;
  e.priority = priority;
  e.submit_micros = submit_micros;
  e.declared_time_seconds = declared;
  e.deadline_micros = deadline_micros;
  return e;
}

/// Admits, asserting the policy accepted.
void must_admit(SchedulerPolicy& p, const SchedEntry& e,
                const SchedulerLoad& load = {}) {
  const AdmitDecision d = p.admit(e, load);
  ASSERT_TRUE(d.admitted) << "ticket " << e.ticket << ": " << d.reject_reason;
  ASSERT_TRUE(d.evicted.empty());
}

/// Drains the pending set in pick order at a fixed `now`.
std::vector<std::uint64_t> drain_order(SchedulerPolicy& p, std::int64_t now) {
  std::vector<std::uint64_t> order;
  while (auto t = p.pick_next(now)) {
    order.push_back(*t);
    p.on_complete(*t, RequestState::kCompleted, now);
  }
  return order;
}

// --- catalog ----------------------------------------------------------------

TEST(SchedulerCatalog, KnownPoliciesConstruct) {
  const auto names = SchedulerPolicy::known_policies();
  ASSERT_EQ(names.size(), 4u);
  for (const std::string& n : names) {
    auto p = SchedulerPolicy::create(n, {});
    ASSERT_NE(p, nullptr) << n;
    EXPECT_EQ(p->name(), n);
    EXPECT_EQ(p->queued(), 0u);
  }
}

TEST(SchedulerCatalog, UnknownPolicyIsNull) {
  EXPECT_EQ(SchedulerPolicy::create("round_robin", {}), nullptr);
  EXPECT_EQ(SchedulerPolicy::create("FIFO", {}), nullptr);
}

TEST(SchedulerCatalog, EmptyNameIsFifoDefault) {
  auto p = SchedulerPolicy::create("", {});
  ASSERT_NE(p, nullptr);
  EXPECT_STREQ(p->name(), "fifo");
}

TEST(SchedulerCatalog, AliasesResolve) {
  EXPECT_STREQ(SchedulerPolicy::create("priority_backfill", {})->name(), "priority");
  EXPECT_STREQ(SchedulerPolicy::create("deadline", {})->name(), "edf");
}

TEST(PriorityNames, ParseClampAndName) {
  EXPECT_EQ(parse_priority("interactive"), kPriorityInteractive);
  EXPECT_EQ(parse_priority("standard"), kPriorityStandard);
  EXPECT_EQ(parse_priority("batch"), kPriorityBatch);
  EXPECT_EQ(parse_priority("2"), kPriorityBatch);
  EXPECT_EQ(parse_priority("urgent"), -1);
  EXPECT_EQ(clamp_priority(-5), kPriorityInteractive);
  EXPECT_EQ(clamp_priority(99), kPriorityBatch);
  EXPECT_STREQ(priority_name(kPriorityInteractive), "interactive");
  EXPECT_STREQ(priority_name(99), "batch");
}

// --- fifo -------------------------------------------------------------------

TEST(FifoPolicy, PicksInArrivalOrderRegardlessOfClass) {
  auto p = SchedulerPolicy::create("fifo", {});
  must_admit(*p, entry(1, kPriorityBatch, 0));
  must_admit(*p, entry(2, kPriorityInteractive, 10));
  must_admit(*p, entry(3, kPriorityStandard, 20));
  EXPECT_EQ(drain_order(*p, 100), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(p->stats().backfills, 0u);
}

TEST(FifoPolicy, ShedsAtQueueDepth) {
  SchedulerLimits lim;
  lim.max_queue_depth = 2;
  auto p = SchedulerPolicy::create("fifo", lim);
  must_admit(*p, entry(1, kPriorityStandard, 0));
  must_admit(*p, entry(2, kPriorityStandard, 0));
  const AdmitDecision d = p->admit(entry(3, kPriorityInteractive, 0), {});
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reject_reason.find("queue full"), std::string::npos);
  EXPECT_EQ(p->stats().rejected, 1u);
  EXPECT_EQ(p->queued(), 2u);
}

TEST(FifoPolicy, ShedsOverAggregateMemoryBudget) {
  SchedulerLimits lim;
  lim.max_admitted_memory_bytes = 100;
  auto p = SchedulerPolicy::create("fifo", lim);
  SchedEntry small = entry(1, kPriorityStandard, 0);
  small.memory_charge = 60;
  must_admit(*p, small, {});
  SchedEntry big = entry(2, kPriorityStandard, 0);
  big.memory_charge = 60;
  SchedulerLoad load;
  load.admitted_memory_bytes = 60;  // the service's aggregate, charge excluded
  const AdmitDecision d = p->admit(big, load);
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reject_reason.find("memory"), std::string::npos);
}

TEST(FifoPolicy, QueuedCancelLeavesPendingSet) {
  auto p = SchedulerPolicy::create("fifo", {});
  must_admit(*p, entry(1, kPriorityStandard, 0));
  must_admit(*p, entry(2, kPriorityStandard, 0));
  p->on_complete(1, RequestState::kCancelled, 5);
  EXPECT_EQ(p->queued(), 1u);
  EXPECT_EQ(drain_order(*p, 10), (std::vector<std::uint64_t>{2}));
}

// --- priority + backfill ----------------------------------------------------

TEST(PriorityPolicy, StrictClassOrderThenFifoWithinClass) {
  auto p = SchedulerPolicy::create("priority", {});
  must_admit(*p, entry(1, kPriorityBatch, 0));
  must_admit(*p, entry(2, kPriorityStandard, 0));
  must_admit(*p, entry(3, kPriorityInteractive, 0));
  must_admit(*p, entry(4, kPriorityInteractive, 0));
  // Drain at t=0: no aging in play, pure class order.
  EXPECT_EQ(drain_order(*p, 0), (std::vector<std::uint64_t>{3, 4, 2, 1}));
}

TEST(PriorityPolicy, BackfillsSmallDeclaredBudgetWithinClass) {
  auto p = SchedulerPolicy::create("priority", {});
  must_admit(*p, entry(1, kPriorityStandard, 0, /*declared=*/5.0));
  must_admit(*p, entry(2, kPriorityStandard, 0, /*declared=*/0.1));
  must_admit(*p, entry(3, kPriorityStandard, 0, /*declared=*/0.0));  // undeclared: last
  EXPECT_EQ(drain_order(*p, 0), (std::vector<std::uint64_t>{2, 1, 3}));
  // Ticket 2 jumped ticket 1 => one backfill recorded.
  EXPECT_GE(p->stats().backfills, 1u);
}

TEST(PriorityPolicy, BackfillNeverCrossesAClassBoundary) {
  auto p = SchedulerPolicy::create("priority", {});
  must_admit(*p, entry(1, kPriorityInteractive, 0, /*declared=*/60.0));
  must_admit(*p, entry(2, kPriorityStandard, 0, /*declared=*/0.01));
  // The tiny standard job still waits for the big interactive one.
  EXPECT_EQ(drain_order(*p, 0), (std::vector<std::uint64_t>{1, 2}));
}

TEST(PriorityPolicy, AgingPromotesOneClassPerInterval) {
  SchedulerLimits lim;
  lim.age_promote_seconds = 5.0;
  lim.max_wait_seconds = 1000.0;  // starvation valve out of the way
  auto p = SchedulerPolicy::create("priority", lim);
  must_admit(*p, entry(1, kPriorityBatch, 0));
  // 6 s later a standard request arrives; the batch one has aged batch ->
  // standard and holds the earlier seq, so it wins FIFO within the class.
  must_admit(*p, entry(2, kPriorityStandard, 6 * kSecond));
  EXPECT_EQ(p->pick_next(6 * kSecond), std::uint64_t{1});
  EXPECT_GE(p->stats().aged_promotions, 1u);
  p->on_complete(1, RequestState::kCompleted, 6 * kSecond);
  EXPECT_EQ(drain_order(*p, 6 * kSecond), (std::vector<std::uint64_t>{2}));
}

TEST(PriorityPolicy, MaxWaitOutranksEveryClass) {
  SchedulerLimits lim;
  lim.age_promote_seconds = 0.0;  // aging off: only the absolute valve
  lim.max_wait_seconds = 30.0;
  auto p = SchedulerPolicy::create("priority", lim);
  must_admit(*p, entry(1, kPriorityBatch, 0));
  must_admit(*p, entry(2, kPriorityInteractive, 31 * kSecond));
  // At t=31s the batch request has starved past the cap and beats the fresh
  // interactive arrival.
  EXPECT_EQ(drain_order(*p, 31 * kSecond), (std::vector<std::uint64_t>{1, 2}));
}

// No-starvation property: under a continuous stream of fresh interactive
// arrivals, a single batch request is still picked within a bounded number
// of picks once aging has promoted it to the top class (seq then breaks the
// tie in its favor).
TEST(PriorityPolicy, BatchRequestIsNotStarvedByInteractiveStream) {
  SchedulerLimits lim;
  lim.age_promote_seconds = 2.0;
  lim.max_wait_seconds = 30.0;
  auto p = SchedulerPolicy::create("priority", lim);
  must_admit(*p, entry(1, kPriorityBatch, 0));

  std::uint64_t next_ticket = 2;
  std::int64_t now = 0;
  bool batch_picked = false;
  int picks = 0;
  // One interactive arrival and one pick per simulated second.
  for (int s = 1; s <= 40 && !batch_picked; ++s) {
    now = s * kSecond;
    must_admit(*p, entry(next_ticket++, kPriorityInteractive, now));
    const auto t = p->pick_next(now);
    ASSERT_TRUE(t.has_value());
    ++picks;
    p->on_complete(*t, RequestState::kCompleted, now);
    batch_picked = (*t == 1);
  }
  EXPECT_TRUE(batch_picked) << "batch request starved for " << picks << " picks";
  // Promotion covers two classes in ~4s; one extra pick for the tie round.
  EXPECT_LE(picks, 8) << "aging took effect too late";
}

// --- edf --------------------------------------------------------------------

TEST(EdfPolicy, EarliestDeadlineFirst) {
  auto p = SchedulerPolicy::create("edf", {});
  must_admit(*p, entry(1, kPriorityStandard, 0, 0.0, /*deadline=*/9 * kSecond));
  must_admit(*p, entry(2, kPriorityStandard, 0, 0.0, /*deadline=*/3 * kSecond));
  must_admit(*p, entry(3, kPriorityStandard, 0, 0.0, /*deadline=*/6 * kSecond));
  EXPECT_EQ(drain_order(*p, 0), (std::vector<std::uint64_t>{2, 3, 1}));
}

TEST(EdfPolicy, DeadlinelessRunsFifoBehindAllDeadlines) {
  auto p = SchedulerPolicy::create("edf", {});
  must_admit(*p, entry(1, kPriorityStandard, 0));  // no deadline, first in
  must_admit(*p, entry(2, kPriorityStandard, 0));  // no deadline
  must_admit(*p, entry(3, kPriorityStandard, 0, 0.0, /*deadline=*/60 * kSecond));
  // Even a far deadline beats every deadline-less request; those then run in
  // arrival order.
  EXPECT_EQ(drain_order(*p, 0), (std::vector<std::uint64_t>{3, 1, 2}));
}

TEST(EdfPolicy, DeadlineTieBreaksByArrival) {
  auto p = SchedulerPolicy::create("edf", {});
  must_admit(*p, entry(1, kPriorityStandard, 0, 0.0, /*deadline=*/5 * kSecond));
  must_admit(*p, entry(2, kPriorityStandard, 0, 0.0, /*deadline=*/5 * kSecond));
  EXPECT_EQ(drain_order(*p, 0), (std::vector<std::uint64_t>{1, 2}));
}

// --- rejecter ---------------------------------------------------------------

TEST(RejecterPolicy, EvictsYoungestLowestClassForHigherArrival) {
  SchedulerLimits lim;
  lim.max_queue_depth = 3;
  auto p = SchedulerPolicy::create("rejecter", lim);
  must_admit(*p, entry(1, kPriorityBatch, 0));
  must_admit(*p, entry(2, kPriorityStandard, 0));
  must_admit(*p, entry(3, kPriorityBatch, 0));  // youngest batch
  const AdmitDecision d = p->admit(entry(4, kPriorityInteractive, 0), {});
  ASSERT_TRUE(d.admitted);
  // Worst class present is batch; the *youngest* batch entry goes.
  EXPECT_EQ(d.evicted, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(p->queued(), 3u);
  EXPECT_EQ(p->stats().evicted, 1u);
  // Pick order stays FIFO over the survivors.
  EXPECT_EQ(drain_order(*p, 0), (std::vector<std::uint64_t>{1, 2, 4}));
}

TEST(RejecterPolicy, LowestClassArrivalIsTheOneRejected) {
  SchedulerLimits lim;
  lim.max_queue_depth = 2;
  auto p = SchedulerPolicy::create("rejecter", lim);
  must_admit(*p, entry(1, kPriorityStandard, 0));
  must_admit(*p, entry(2, kPriorityInteractive, 0));
  // A batch arrival is itself the worst class present: shed it, evict nobody.
  const AdmitDecision d = p->admit(entry(3, kPriorityBatch, 0), {});
  EXPECT_FALSE(d.admitted);
  EXPECT_TRUE(d.evicted.empty());
  EXPECT_NE(d.reject_reason.find("arrival is lowest class"), std::string::npos);
  EXPECT_EQ(p->queued(), 2u);
}

TEST(RejecterPolicy, EqualClassArrivalDoesNotEvictPeers) {
  SchedulerLimits lim;
  lim.max_queue_depth = 1;
  auto p = SchedulerPolicy::create("rejecter", lim);
  must_admit(*p, entry(1, kPriorityStandard, 0));
  // Same class: eviction only targets *strictly* lower classes.
  const AdmitDecision d = p->admit(entry(2, kPriorityStandard, 0), {});
  EXPECT_FALSE(d.admitted);
  EXPECT_TRUE(d.evicted.empty());
}

TEST(RejecterPolicy, EvictsRepeatedlyUnderMemoryPressure) {
  SchedulerLimits lim;
  lim.max_queue_depth = 16;
  lim.max_admitted_memory_bytes = 100;
  auto p = SchedulerPolicy::create("rejecter", lim);
  SchedEntry a = entry(1, kPriorityBatch, 0);
  a.memory_charge = 40;
  SchedEntry b = entry(2, kPriorityBatch, 0);
  b.memory_charge = 40;
  must_admit(*p, a, {});
  SchedulerLoad load;
  load.admitted_memory_bytes = 40;
  must_admit(*p, b, load);
  // An interactive arrival needing 90 bytes must displace both batch jobs.
  SchedEntry big = entry(3, kPriorityInteractive, 0);
  big.memory_charge = 90;
  load.admitted_memory_bytes = 80;
  const AdmitDecision d = p->admit(big, load);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.evicted.size(), 2u);
  EXPECT_EQ(p->queued(), 1u);
}

// --- drain-rate estimator ---------------------------------------------------

TEST(DrainRate, SeedIntervalBeforeAnyObservation) {
  DrainRateEstimator est(0.05);
  EXPECT_DOUBLE_EQ(est.interval_seconds(), 0.05);
  // Backlog of 4 across 2 workers: 1 + 4/2 = 3 drain rounds.
  EXPECT_DOUBLE_EQ(est.retry_after_seconds(4, 2), 0.05 * 3.0);
}

TEST(DrainRate, ConvergesTowardObservedGap) {
  DrainRateEstimator est(0.05);
  std::int64_t now = 0;
  est.record_terminal(now);
  for (int i = 0; i < 40; ++i) {
    now += 10'000;  // a terminal every 10 ms
    est.record_terminal(now);
  }
  EXPECT_NEAR(est.interval_seconds(), 0.010, 0.002);
}

TEST(DrainRate, WedgedServiceRaisesTheHint) {
  DrainRateEstimator est(0.05);
  est.record_terminal(0);
  est.record_terminal(10 * kSecond);  // one 10 s gap
  EXPECT_GT(est.interval_seconds(), 1.0);
  EXPECT_GT(est.retry_after_seconds(0, 2), 1.0);
}

TEST(DrainRate, HintIsClampedAt300Seconds) {
  DrainRateEstimator est(200.0);
  EXPECT_DOUBLE_EQ(est.retry_after_seconds(100, 1), 300.0);
}

TEST(DrainRate, NonPositiveSeedFallsBackToDefault) {
  DrainRateEstimator est(0.0);
  EXPECT_GT(est.interval_seconds(), 0.0);
}

// --- service integration: quotas + retry-after on a paused service ----------

service::SolveRequest tiny_request(const std::string& tenant, int priority) {
  service::SolveRequest req;
  req.label = "tiny";
  req.workload = workloads::fig9_case();
  req.required_gains = {1000};
  req.tenant = tenant;
  req.priority = priority;
  return req;
}

TEST(ServiceScheduling, PerTenantQuotaRejectsOnlyTheOverQuotaTenant) {
  support::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_live_per_tenant = 1;
  cfg.start_paused = true;
  cfg.clock = &clock;
  SolveService svc(cfg);

  const SubmitOutcome a1 = svc.submit(tiny_request("alice", kPriorityStandard));
  ASSERT_TRUE(a1.admitted());
  const SubmitOutcome a2 = svc.submit(tiny_request("alice", kPriorityStandard));
  EXPECT_FALSE(a2.admitted());
  EXPECT_GT(a2.retry_after_seconds, 0.0);
  EXPECT_NE(a2.reject_reason.find("tenant"), std::string::npos);
  // The quota is per tenant: bob is unaffected.
  const SubmitOutcome b1 = svc.submit(tiny_request("bob", kPriorityStandard));
  EXPECT_TRUE(b1.admitted());

  svc.resume();
  EXPECT_EQ(svc.wait(a1.ticket()).state, RequestState::kCompleted);
  EXPECT_EQ(svc.wait(a2.ticket()).state, RequestState::kRejected);
  EXPECT_EQ(svc.wait(b1.ticket()).state, RequestState::kCompleted);
  // alice's slot freed: she may submit again.
  const SubmitOutcome a3 = svc.submit(tiny_request("alice", kPriorityStandard));
  EXPECT_TRUE(a3.admitted());
  EXPECT_EQ(svc.wait(a3.ticket()).state, RequestState::kCompleted);
}

TEST(ServiceScheduling, RejecterServiceShedsQueuedBatchForInteractive) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.policy = "rejecter";
  cfg.max_queue_depth = 1;
  cfg.start_paused = true;
  SolveService svc(cfg);

  const SubmitOutcome batch = svc.submit(tiny_request("t", kPriorityBatch));
  ASSERT_TRUE(batch.admitted());
  const SubmitOutcome inter = svc.submit(tiny_request("t", kPriorityInteractive));
  ASSERT_TRUE(inter.admitted());
  // The queued batch request was evicted to terminal kRejected.
  const SolveResponse shed = svc.wait(batch.ticket());
  EXPECT_EQ(shed.state, RequestState::kRejected);
  EXPECT_GT(shed.retry_after_seconds, 0.0);
  EXPECT_EQ(svc.stats().evicted, 1u);

  svc.resume();
  EXPECT_EQ(svc.wait(inter.ticket()).state, RequestState::kCompleted);
  EXPECT_EQ(svc.scheduler_stats().evicted, 1u);
}

TEST(ServiceScheduling, PolicyNameAndStatsAreExposed) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.policy = "edf";
  SolveService svc(cfg);
  EXPECT_STREQ(svc.policy_name(), "edf");
  const SubmitOutcome t = svc.submit(tiny_request("", kPriorityStandard));
  ASSERT_TRUE(t.admitted());
  EXPECT_EQ(svc.wait(t.ticket()).state, RequestState::kCompleted);
  const PolicyStats ps = svc.scheduler_stats();
  EXPECT_EQ(ps.name, "edf");
  EXPECT_EQ(ps.admitted, 1u);
  EXPECT_EQ(ps.picked, 1u);
}

}  // namespace
}  // namespace partita::service
