// SolveService request lifecycle: differential equivalence against one-shot
// solves, admission control (queue depth + aggregate memory), queued and
// mid-solve cancellation, transient-fault retry on a FakeClock, permanent
// failure with a replayable quarantine fixture, graceful drain, and the
// on_terminal completion hook on every path to a terminal state. Every
// test is deterministic: queues fill while the pool is parked
// (start_paused), timing runs on fake clocks, and faults are injected.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

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

service::SolveRequest builtin_request(workloads::Workload w) {
  service::SolveRequest req;
  req.workload = std::move(w);
  return req;
}

// --- differential: a service solve is bit-identical to a one-shot solve ---------

TEST(SolveServiceDifferential, MatchesOneShotSelectionOnEveryBuiltin) {
  const std::vector<workloads::Workload> workloads = {
      workloads::gsm_encoder(), workloads::gsm_decoder(),
      workloads::jpeg_encoder(), workloads::fig9_case(),
      workloads::fig10_case(),  workloads::adpcm_codec()};

  service::ServiceConfig cfg;
  cfg.workers = 3;
  service::SolveService svc(cfg);

  std::vector<std::uint64_t> tickets;
  for (const workloads::Workload& w : workloads) {
    tickets.push_back(svc.submit(builtin_request(w)).ticket());
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const service::SolveResponse r = svc.wait(tickets[i]);
    ASSERT_EQ(r.state, service::RequestState::kCompleted)
        << workloads[i].name << ": " << r.error.render();
    EXPECT_EQ(r.attempts, 1);

    // One-shot reference under the same (default) options and the same
    // derived required gain.
    const auto flow =
        select::Flow::create(workloads[i].module, workloads[i].library);
    ASSERT_TRUE(flow.ok());
    const std::int64_t rg = flow.value()->max_feasible_gain() / 2;
    const select::Selection ref = flow.value()->select(rg);

    EXPECT_EQ(r.selection.feasible, ref.feasible) << workloads[i].name;
    EXPECT_EQ(r.selection.chosen, ref.chosen) << workloads[i].name;
    EXPECT_DOUBLE_EQ(r.selection.total_area(), ref.total_area())
        << workloads[i].name;
    EXPECT_EQ(r.selection.min_path_gain, ref.min_path_gain) << workloads[i].name;
    EXPECT_EQ(r.selection.rung, ref.rung) << workloads[i].name;
  }
}

TEST(SolveServiceDifferential, ConcurrentIdenticalRequestsAgreeExactly) {
  service::ServiceConfig cfg;
  cfg.workers = 4;
  service::SolveService svc(cfg);

  constexpr int kCopies = 8;
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < kCopies; ++i) {
    tickets.push_back(svc.submit(builtin_request(workloads::gsm_encoder())).ticket());
  }
  const service::SolveResponse first = svc.wait(tickets[0]);
  ASSERT_EQ(first.state, service::RequestState::kCompleted);
  for (int i = 1; i < kCopies; ++i) {
    const service::SolveResponse r = svc.wait(tickets[static_cast<std::size_t>(i)]);
    ASSERT_EQ(r.state, service::RequestState::kCompleted);
    EXPECT_EQ(r.selection.chosen, first.selection.chosen);
    EXPECT_DOUBLE_EQ(r.selection.total_area(), first.selection.total_area());
    EXPECT_EQ(r.selection.rung, first.selection.rung);
  }
}

// --- admission control -----------------------------------------------------------

TEST(SolveServiceAdmission, QueueDepthOverflowShedsWithRetryAfter) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 2;
  cfg.start_paused = true;  // queue fills race-free
  service::SolveService svc(cfg);

  const std::uint64_t t1 = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  const std::uint64_t t2 = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  const std::uint64_t t3 = svc.submit(builtin_request(workloads::fig9_case())).ticket();

  const auto rejected = svc.poll(t3);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->state, service::RequestState::kRejected);
  EXPECT_GT(rejected->retry_after_seconds, 0.0);
  EXPECT_EQ(rejected->error.kind, support::ErrorKind::kTransient);
  EXPECT_NE(rejected->error.message.find("queue full"), std::string::npos);

  svc.resume();
  EXPECT_EQ(svc.wait(t1).state, service::RequestState::kCompleted);
  EXPECT_EQ(svc.wait(t2).state, service::RequestState::kCompleted);

  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.peak_queue_depth, 2u);
}

TEST(SolveServiceAdmission, AggregateMemoryBudgetShedsDeclaredCharges) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 64;
  cfg.max_admitted_memory_bytes = std::size_t{100} << 20;
  static_assert(service::ServiceConfig::kDefaultMemoryCharge == std::size_t{64} << 20);
  cfg.start_paused = true;
  service::SolveService svc(cfg);

  // Undeclared charge: the 64 MiB default. 64 + 64 > 100 -> second is shed.
  const std::uint64_t t1 = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  const std::uint64_t t2 = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  const auto r2 = svc.poll(t2);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->state, service::RequestState::kRejected);
  EXPECT_NE(r2->error.message.find("memory"), std::string::npos);

  // A small *declared* cap still fits next to the 64 MiB default charge.
  service::SolveRequest small = builtin_request(workloads::fig10_case());
  small.options.ilp.budget.memory_limit_bytes = std::size_t{8} << 20;
  const std::uint64_t t3 = svc.submit(std::move(small)).ticket();
  {
    const auto r3 = svc.poll(t3);
    ASSERT_TRUE(r3.has_value());
    EXPECT_EQ(r3->state, service::RequestState::kQueued);
  }

  svc.resume();
  EXPECT_EQ(svc.wait(t1).state, service::RequestState::kCompleted);
  EXPECT_EQ(svc.wait(t3).state, service::RequestState::kCompleted);
  // Terminal requests release their charge: after the drain the full budget
  // is available again (peak recorded while both were admitted).
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.peak_admitted_memory_bytes, (std::size_t{64} << 20) + (std::size_t{8} << 20));
}

// --- cancellation ----------------------------------------------------------------

TEST(SolveServiceCancel, QueuedRequestCancelsImmediately) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  service::SolveService svc(cfg);

  const std::uint64_t t1 = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  const std::uint64_t t2 = svc.submit(builtin_request(workloads::fig9_case())).ticket();

  EXPECT_TRUE(svc.cancel(t2));
  const auto r2 = svc.poll(t2);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->state, service::RequestState::kCancelled);
  EXPECT_EQ(r2->error.kind, support::ErrorKind::kCancelled);

  EXPECT_FALSE(svc.cancel(t2));      // already terminal
  EXPECT_FALSE(svc.cancel(999999));  // unknown ticket

  svc.resume();
  EXPECT_EQ(svc.wait(t1).state, service::RequestState::kCompleted);
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 1u);
}

// A clock that cancels a ticket on its Nth observation, from inside the
// solver's own deadline checkpoint: the cancel lands mid-solve by
// construction, deterministically, with no real timing involved.
class TicketCancellingClock final : public support::Clock {
 public:
  std::int64_t now_micros() override {
    if (++calls_ == cancel_at_call_) svc_->cancel(ticket_);
    return calls_;
  }
  void sleep_micros(std::int64_t) override {}

  void arm(service::SolveService* svc, std::uint64_t ticket, int at_call) {
    svc_ = svc;
    ticket_ = ticket;
    cancel_at_call_ = at_call;
  }

 private:
  service::SolveService* svc_ = nullptr;
  std::uint64_t ticket_ = 0;
  int cancel_at_call_ = -1;
  int calls_ = 0;
};

TEST(SolveServiceCancel, MidSolveCancelReachesTerminalCancelled) {
  TicketCancellingClock clock;
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.start_paused = true;  // arm the clock before the worker starts
  service::SolveService svc(cfg);

  workloads::RandomWorkloadParams params;
  params.leaf_functions = 12;
  params.call_sites = 48;
  params.ips = 16;
  service::SolveRequest req =
      builtin_request(workloads::random_workload(params, /*seed=*/3));
  // An enormous (but enabled) deadline keeps the per-wave clock read live.
  req.options.ilp.budget.time_limit_seconds = 1e9;
  const std::uint64_t t = svc.submit(std::move(req)).ticket();
  clock.arm(&svc, t, /*at_call=*/4);
  svc.resume();

  const service::SolveResponse r = svc.wait(t);
  EXPECT_EQ(r.state, service::RequestState::kCancelled);
  EXPECT_EQ(r.error.kind, support::ErrorKind::kCancelled);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

// --- retry on transient faults ---------------------------------------------------

TEST(SolveServiceRetry, OneShotTransientFaultRetriesAndSucceeds) {
  support::FakeClock clock;
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.retry.max_attempts = 3;
  cfg.retry.base_backoff_micros = 5000;
  cfg.retry.jitter = 0.0;  // exact backoff assertion below
  service::SolveService svc(cfg);

  // Non-sticky: only the first checkpoint trips; the retry recovers.
  support::ScopedFault fault("service.transient", /*trip_at=*/1, /*sticky=*/false);
  const std::uint64_t t = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  const service::SolveResponse r = svc.wait(t);

  ASSERT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
  EXPECT_EQ(r.attempts, 2);
  EXPECT_TRUE(r.selection.feasible);
  // The backoff between the attempts ran on the fake clock: exactly one
  // first-retry interval, zero real sleeping.
  EXPECT_EQ(clock.slept_micros(), 5000);
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.retries, 1u);
}

TEST(SolveServiceRetry, StickyTransientFaultExhaustsAttemptsAndFails) {
  support::FakeClock clock;
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.retry.max_attempts = 3;
  cfg.retry.base_backoff_micros = 1000;
  cfg.retry.multiplier = 2.0;
  cfg.retry.max_backoff_micros = 1 << 20;
  cfg.retry.jitter = 0.0;
  service::SolveService svc(cfg);

  support::ScopedFault fault("service.transient", /*trip_at=*/1, /*sticky=*/true);
  const std::uint64_t t = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  const service::SolveResponse r = svc.wait(t);

  EXPECT_EQ(r.state, service::RequestState::kFailed);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(r.error.kind, support::ErrorKind::kTransient);
  // Backoffs after attempts 1 and 2: 1000 + 2000.
  EXPECT_EQ(clock.slept_micros(), 3000);
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.retries, 2u);
}

// --- permanent failure + quarantine ----------------------------------------------

TEST(SolveServiceQuarantine, PermanentFailureDumpsReplayableFixture) {
  const std::string qdir =
      (std::filesystem::path(::testing::TempDir()) / "partita_quarantine").string();
  std::filesystem::create_directories(qdir);

  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.quarantine_dir = qdir;
  service::SolveService svc(cfg);

  // A spec whose real rendering is valid -- but the request carries a broken
  // module (fails Flow verification => permanent error), exactly the
  // "solver rejected something the generator produced" shape quarantine is
  // for.
  const workloads::InstanceSpec spec =
      workloads::random_instance_spec(workloads::InstanceGenParams{}, /*seed=*/11);
  service::SolveRequest req;
  req.label = "broken";
  req.workload.name = "broken";
  req.workload.module = ir::Module("no_entry");  // no functions: unverifiable
  req.spec = spec;
  const std::uint64_t t = svc.submit(std::move(req)).ticket();
  const service::SolveResponse r = svc.wait(t);

  EXPECT_EQ(r.state, service::RequestState::kFailed);
  EXPECT_EQ(r.error.kind, support::ErrorKind::kPermanent);
  EXPECT_EQ(r.attempts, 1);  // permanent errors are never retried
  ASSERT_FALSE(r.quarantine_fixture.empty());

  // The file is one CRC-framed journal quarantine record embedding the PR-3
  // oracle document, and round-trips to the same spec -- so both
  // `partita_fuzz --replay <fixture>` and the journal tooling can re-run
  // the exact instance.
  std::string err;
  std::string doc;
  ASSERT_TRUE(
      service::Journal::read_quarantine_file(r.quarantine_fixture, &doc, &err))
      << err;
  const auto reloaded = oracle::parse_fixture(doc, &err);
  ASSERT_TRUE(reloaded.has_value()) << err;
  EXPECT_TRUE(workloads::spec_valid(*reloaded));
  EXPECT_EQ(oracle::fixture_json(*reloaded), oracle::fixture_json(spec));
}

// --- drain / shutdown ------------------------------------------------------------

TEST(SolveServiceDrain, FlushesEverythingThenRejectsLateSubmits) {
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.start_paused = true;
  service::SolveService svc(cfg);

  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(svc.submit(builtin_request(workloads::fig9_case())).ticket());
  }
  svc.drain();  // unparks, flushes, and only returns when all are terminal

  for (std::uint64_t t : tickets) {
    EXPECT_EQ(svc.wait(t).state, service::RequestState::kCompleted);
  }
  const std::uint64_t late = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  const auto r = svc.poll(late);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->state, service::RequestState::kRejected);
  EXPECT_NE(r->error.message.find("draining"), std::string::npos);

  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 6u);
  EXPECT_EQ(st.completed, 5u);
  EXPECT_EQ(st.rejected, 1u);
}

TEST(SolveServiceDrain, WaitOnUnknownTicketFailsStructurally) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  service::SolveService svc(cfg);
  EXPECT_FALSE(svc.poll(12345).has_value());
  const service::SolveResponse r = svc.wait(12345);
  EXPECT_EQ(r.state, service::RequestState::kFailed);
  EXPECT_NE(r.error.message.find("unknown ticket"), std::string::npos);
}

// --- on_terminal: one completion path ----------------------------------------
//
// Each hook is registered while its ticket is still pending (the pool is
// parked), so it fires from the finalizing path under test. drain() returns
// only after every fired hook returned, so counts read after it are final.

/// Counts the calls of its hook and keeps the state the last one saw.
struct HookProbe {
  std::atomic<int> calls{0};
  std::atomic<service::RequestState> state{service::RequestState::kQueued};

  service::SolveService::TerminalHook hook() {
    return [this](const service::SolveResponse& r) {
      state = r.state;
      ++calls;
    };
  }
};

TEST(SolveServiceOnTerminal, FiresOnceOnCompletionAndDrainWaitsForIt) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  service::SolveService svc(cfg);

  const std::uint64_t t = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  HookProbe first;
  std::atomic<bool> slow_done{false};
  svc.on_terminal(t, first.hook());
  svc.on_terminal(t, [&](const service::SolveResponse&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    slow_done = true;
  });
  EXPECT_EQ(first.calls, 0);

  svc.drain();  // unparks; returns after the worker ran both hooks
  EXPECT_TRUE(slow_done);
  EXPECT_EQ(first.calls, 1);
  EXPECT_EQ(first.state, service::RequestState::kCompleted);
}

TEST(SolveServiceOnTerminal, FiresOnceOnTheCancellingThreadForAQueuedTicket) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  service::SolveService svc(cfg);

  const std::uint64_t t = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  HookProbe probe;
  svc.on_terminal(t, probe.hook());
  ASSERT_TRUE(svc.cancel(t));
  EXPECT_EQ(probe.calls, 1);  // ran before cancel() returned
  EXPECT_EQ(probe.state, service::RequestState::kCancelled);
  svc.drain();
  EXPECT_EQ(probe.calls, 1);
}

TEST(SolveServiceOnTerminal, FiresOnceWhenCancelledMidSolve) {
  TicketCancellingClock clock;
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.start_paused = true;
  service::SolveService svc(cfg);

  workloads::RandomWorkloadParams params;
  params.leaf_functions = 12;
  params.call_sites = 48;
  params.ips = 16;
  service::SolveRequest req =
      builtin_request(workloads::random_workload(params, /*seed=*/3));
  req.options.ilp.budget.time_limit_seconds = 1e9;
  const std::uint64_t t = svc.submit(std::move(req)).ticket();
  HookProbe probe;
  svc.on_terminal(t, probe.hook());
  clock.arm(&svc, t, /*at_call=*/4);
  svc.drain();
  EXPECT_EQ(probe.calls, 1);
  EXPECT_EQ(probe.state, service::RequestState::kCancelled);
}

TEST(SolveServiceOnTerminal, FiresOnceOnTheSubmittingThreadWhenEvicted) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.policy = "rejecter";
  cfg.max_queue_depth = 1;
  cfg.start_paused = true;
  service::SolveService svc(cfg);

  service::SolveRequest batch = builtin_request(workloads::fig9_case());
  batch.priority = service::kPriorityBatch;
  const service::SubmitOutcome low = svc.submit(std::move(batch));
  ASSERT_TRUE(low.admitted());
  HookProbe probe;
  svc.on_terminal(low.ticket(), probe.hook());

  service::SolveRequest interactive = builtin_request(workloads::fig10_case());
  interactive.priority = service::kPriorityInteractive;
  ASSERT_TRUE(svc.submit(std::move(interactive)).admitted());
  EXPECT_EQ(probe.calls, 1);  // ran before the evicting submit() returned
  EXPECT_EQ(probe.state, service::RequestState::kRejected);
  svc.drain();
  EXPECT_EQ(probe.calls, 1);
  EXPECT_EQ(svc.stats().evicted, 1u);
}

TEST(SolveServiceOnTerminal, FiresOnceWhenRetriesAreExhausted) {
  support::FakeClock clock;
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.retry.max_attempts = 3;
  cfg.start_paused = true;
  service::SolveService svc(cfg);

  support::ScopedFault fault("service.transient", /*trip_at=*/1, /*sticky=*/true);
  const std::uint64_t t = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  HookProbe probe;
  svc.on_terminal(t, probe.hook());
  svc.drain();
  EXPECT_EQ(probe.calls, 1);
  EXPECT_EQ(probe.state, service::RequestState::kFailed);
  EXPECT_EQ(svc.stats().retries, 2u);
}

TEST(SolveServiceOnTerminal, FiresAtOnceForTerminalAndUnknownTickets) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  service::SolveService svc(cfg);

  const std::uint64_t t = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  ASSERT_EQ(svc.wait(t).state, service::RequestState::kCompleted);
  HookProbe done;
  svc.on_terminal(t, done.hook());
  EXPECT_EQ(done.calls, 1);
  EXPECT_EQ(done.state, service::RequestState::kCompleted);

  std::string message;
  int unknown_calls = 0;
  svc.on_terminal(98765, [&](const service::SolveResponse& r) {
    ++unknown_calls;
    EXPECT_EQ(r.ticket, 98765u);
    EXPECT_EQ(r.state, service::RequestState::kFailed);
    message = r.error.message;
  });
  EXPECT_EQ(unknown_calls, 1);
  EXPECT_NE(message.find("unknown ticket"), std::string::npos);
}

TEST(SolveServiceOnTerminal, HooksRunOutsideTheServiceLock) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  service::SolveService svc(cfg);

  // poll() and stats() take the service mutex: a hook run under it would
  // deadlock here, on the worker path and on the cancel path alike.
  const std::uint64_t solved = svc.submit(builtin_request(workloads::fig9_case())).ticket();
  const std::uint64_t cancelled =
      svc.submit(builtin_request(workloads::fig9_case())).ticket();
  std::atomic<int> reentered{0};
  const auto reenter = [&](const service::SolveResponse& r) {
    const auto seen = svc.poll(r.ticket);
    EXPECT_TRUE(seen.has_value());
    EXPECT_EQ(seen->state, r.state);
    EXPECT_GE(svc.stats().submitted, 2u);
    ++reentered;
  };
  svc.on_terminal(solved, reenter);
  svc.on_terminal(cancelled, reenter);
  ASSERT_TRUE(svc.cancel(cancelled));
  EXPECT_EQ(reentered, 1);
  svc.drain();
  EXPECT_EQ(reentered, 2);
}

}  // namespace
}  // namespace partita

