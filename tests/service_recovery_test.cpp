// Durable serving end to end, minus the actual SIGKILL (the CI recover job
// and the loadgen harness own real process death): a journaled SolveService
// writes an admit record before acknowledging and a terminal record per
// finished item; admits journaled-but-undecided (a simulated crash) replay
// through from_journal_payload into a fresh service and answer bit-identical
// to an uninterrupted control run; a failing journal append rejects the
// submit with a transient, unacknowledged error; and the solution-cache
// snapshot survives a drain/boot cycle.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "select/selection.hpp"
#include "service/journal.hpp"
#include "service/solve_service.hpp"
#include "support/fault_injection.hpp"
#include "scratch_dir.hpp"

namespace partita {
namespace {

using service::Journal;
using service::JournalRecovery;

/// Fresh per-test directory under the gtest temp root, removed with the test.
ScratchDir fresh_dir(const std::string& tag) { return {"partita_recovery", tag}; }

/// One wire-level submit, the unit both the journal and the replayer speak.
net::WireRequest wire_submit(const std::string& workload, const std::string& label,
                             int priority = service::kPriorityStandard) {
  net::WireRequest w;
  w.verb = "submit";
  w.workload = workload;
  w.label = label;
  w.tenant = "tenant-r";
  w.priority = priority;
  return w;
}

service::SolveRequest to_request(const net::WireRequest& w) {
  service::SolveRequest req;
  std::string error;
  EXPECT_TRUE(net::to_service_request(w, &req, &error)) << error;
  return req;
}

TEST(ServiceRecovery, JournaledLifecycleWritesAdmitThenTerminalThenCompacts) {
  const ScratchDir scratch = fresh_dir("lifecycle");
  const std::string& dir = scratch.path();
  Journal journal;
  Journal::Config jc;
  jc.dir = dir;
  ASSERT_TRUE(journal.open(jc));

  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.journal = &journal;
  service::SolveService svc(cfg);

  const std::uint64_t t1 = svc.submit(to_request(wire_submit("fig9", "r1"))).ticket();
  const std::uint64_t t2 = svc.submit(to_request(wire_submit("fig10", "r2"))).ticket();
  const service::SolveResponse r1 = svc.wait(t1);
  const service::SolveResponse r2 = svc.wait(t2);
  ASSERT_EQ(r1.state, service::RequestState::kCompleted) << r1.error.render();
  ASSERT_EQ(r2.state, service::RequestState::kCompleted) << r2.error.render();
  EXPECT_FALSE(r1.recovered);

  // Both admits are decided; their terminal records carry the signatures.
  std::map<std::string, std::string> sig;
  const JournalRecovery mid = Journal::recover(dir);
  EXPECT_EQ(mid.undecided.size(), 0u);
  ASSERT_EQ(mid.terminals.size(), 2u);
  for (const service::JournalTerminal& t : mid.terminals) {
    EXPECT_EQ(t.state, "completed");
    sig[t.label] = t.signature;
  }
  EXPECT_EQ(sig["r1"], select::solution_signature(r1.selection));
  EXPECT_EQ(sig["r2"], select::solution_signature(r2.selection));
  EXPECT_EQ(journal.stats().admits, 2u);
  EXPECT_EQ(journal.stats().terminals, 2u);

  // Graceful drain compacts the decided history away.
  svc.drain();
  const JournalRecovery after = Journal::recover(dir);
  EXPECT_EQ(after.undecided.size(), 0u);
  EXPECT_EQ(after.terminals.size(), 0u);
  // Seq continuity survives the compaction (no reuse after reboot).
  EXPECT_EQ(after.next_seq, mid.next_seq);
}

TEST(ServiceRecovery, UndecidedAdmitsReplayBitIdenticallyToControl) {
  // Control: an uninterrupted service answers these exact submits.
  const std::vector<net::WireRequest> wires = {
      wire_submit("fig9", "a"), wire_submit("gsm_decoder", "b"),
      wire_submit("jpeg_encoder", "c"),
      wire_submit("fig10", "d", service::kPriorityInteractive)};
  std::map<std::string, std::string> control;
  {
    service::ServiceConfig cfg;
    cfg.workers = 2;
    service::SolveService svc(cfg);
    std::vector<std::uint64_t> tickets;
    for (const net::WireRequest& w : wires) tickets.push_back(svc.submit(to_request(w)).ticket());
    for (std::size_t i = 0; i < wires.size(); ++i) {
      const service::SolveResponse r = svc.wait(tickets[i]);
      ASSERT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
      control[wires[i].label] = select::solution_signature(r.selection);
    }
  }

  // "Crash": the admits made it to the journal -- they were acknowledged --
  // but the process died before any terminal record.
  const ScratchDir scratch = fresh_dir("replay");
  const std::string& dir = scratch.path();
  {
    Journal journal;
    Journal::Config jc;
    jc.dir = dir;
    ASSERT_TRUE(journal.open(jc));
    for (const net::WireRequest& w : wires) {
      ASSERT_NE(journal.append_admit(net::encode_request(w)), 0u);
    }
    // No close-side compaction here: dropping the object mid-flight is the
    // closest in-process stand-in for SIGKILL.
  }

  // Boot: recover, re-open, replay through normal admission.
  JournalRecovery rec = Journal::recover(dir);
  ASSERT_EQ(rec.undecided.size(), wires.size());
  Journal journal;
  Journal::Config jc;
  jc.dir = dir;
  ASSERT_TRUE(journal.open(jc, rec));
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.journal = &journal;
  service::SolveService svc(cfg);

  std::vector<std::uint64_t> tickets;
  std::vector<std::string> labels;
  for (const service::JournalRecord& r : rec.undecided) {
    service::SolveRequest req;
    std::string error;
    ASSERT_TRUE(net::from_journal_payload(r.payload, r.seq, &req, &error)) << error;
    EXPECT_TRUE(req.recovered);
    EXPECT_EQ(req.journal_seq, r.seq);
    labels.push_back(req.label);
    const service::SubmitOutcome out = svc.submit(std::move(req));
    ASSERT_TRUE(out.admitted()) << out.reject_reason;
    tickets.push_back(out.ticket());
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const service::SolveResponse r = svc.wait(tickets[i]);
    ASSERT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
    EXPECT_TRUE(r.recovered) << labels[i];
    // The recovery guarantee: bit-identical to the uninterrupted answer.
    EXPECT_EQ(select::solution_signature(r.selection), control[labels[i]])
        << labels[i];
  }
  EXPECT_EQ(svc.stats().recovered_requests, wires.size());

  // Replays reuse their original seqs: no duplicate admits, and every item
  // is now decided exactly once.
  const JournalRecovery settled = Journal::recover(dir);
  EXPECT_EQ(settled.undecided.size(), 0u);
  EXPECT_EQ(journal.stats().admits, 0u);  // nothing re-journaled
  EXPECT_EQ(journal.stats().terminals, wires.size());
}

TEST(ServiceRecovery, BatchReplayKeepsPerItemSignatures) {
  net::WireRequest batch = wire_submit("gsm_encoder", "ladder");
  batch.gains = {-1, -1, -1};

  std::vector<std::string> control;
  {
    service::ServiceConfig cfg;
    cfg.workers = 2;
    service::SolveService svc(cfg);
    const service::SubmitOutcome out = svc.submit(to_request(batch));
    ASSERT_EQ(out.tickets.size(), 3u);
    for (const std::uint64_t t : out.tickets) {
      const service::SolveResponse r = svc.wait(t);
      ASSERT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
      control.push_back(select::solution_signature(r.selection));
    }
  }

  const ScratchDir scratch = fresh_dir("batch");
  const std::string& dir = scratch.path();
  {
    Journal journal;
    Journal::Config jc;
    jc.dir = dir;
    ASSERT_TRUE(journal.open(jc));
    ASSERT_NE(journal.append_admit(net::encode_request(batch), 3), 0u);
  }
  JournalRecovery rec = Journal::recover(dir);
  ASSERT_EQ(rec.undecided.size(), 1u);
  ASSERT_EQ(rec.undecided[0].items, 3u);

  Journal journal;
  Journal::Config jc;
  jc.dir = dir;
  ASSERT_TRUE(journal.open(jc, rec));
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.journal = &journal;
  service::SolveService svc(cfg);
  service::SolveRequest req;
  std::string error;
  ASSERT_TRUE(
      net::from_journal_payload(rec.undecided[0].payload, rec.undecided[0].seq,
                                &req, &error))
      << error;
  const service::SubmitOutcome out = svc.submit(std::move(req));
  ASSERT_EQ(out.tickets.size(), 3u);
  for (std::size_t i = 0; i < out.tickets.size(); ++i) {
    const service::SolveResponse r = svc.wait(out.tickets[i]);
    ASSERT_EQ(r.state, service::RequestState::kCompleted) << r.error.render();
    EXPECT_EQ(select::solution_signature(r.selection), control[i]) << "item " << i;
  }
  const JournalRecovery settled = Journal::recover(dir);
  EXPECT_EQ(settled.undecided.size(), 0u);
}

TEST(ServiceRecovery, JournalAppendFailureRejectsUnacknowledged) {
  const ScratchDir scratch = fresh_dir("reject");
  const std::string& dir = scratch.path();
  Journal journal;
  Journal::Config jc;
  jc.dir = dir;
  ASSERT_TRUE(journal.open(jc));
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.journal = &journal;
  service::SolveService svc(cfg);

  {
    support::ScopedFault fault("journal.append");
    const service::SubmitOutcome out = svc.submit(to_request(wire_submit("fig9", "doomed")));
    ASSERT_EQ(out.state, service::RequestState::kRejected);
    ASSERT_EQ(out.tickets.size(), 1u);
    const service::SolveResponse r = svc.wait(out.ticket());
    EXPECT_EQ(r.state, service::RequestState::kRejected);
    // The client was never acknowledged; the error says so and is
    // retryable.
    EXPECT_EQ(r.error.kind, support::ErrorKind::kTransient) << r.error.render();
  }
  EXPECT_EQ(svc.stats().journal_rejects, 1u);
  // Nothing hit the journal: a rejected submit must not replay after a
  // crash (the client never got an acknowledgment to rely on).
  EXPECT_EQ(Journal::recover(dir).undecided.size(), 0u);

  // With the fault gone the same request is admitted and journaled.
  const std::uint64_t t = svc.submit(to_request(wire_submit("fig9", "ok"))).ticket();
  EXPECT_EQ(svc.wait(t).state, service::RequestState::kCompleted);
  EXPECT_EQ(journal.stats().admits, 1u);
}

TEST(ServiceRecovery, CacheSnapshotSurvivesDrainBootCycle) {
  net::WireRequest probe = wire_submit("fig9", "warm");
  probe.required_gain = 10000;

  std::string snapshot;
  std::string warm_sig;
  {
    service::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cache_enabled = true;
    service::SolveService svc(cfg);
    const service::SolveResponse first = svc.wait(svc.submit(to_request(probe)).ticket());
    ASSERT_EQ(first.state, service::RequestState::kCompleted);
    EXPECT_EQ(first.cache, "miss");
    const service::SolveResponse second = svc.wait(svc.submit(to_request(probe)).ticket());
    ASSERT_EQ(second.state, service::RequestState::kCompleted);
    EXPECT_EQ(second.cache, "hit");
    warm_sig = select::solution_signature(second.selection);
    svc.drain();
    snapshot = svc.export_cache_snapshot();
    ASSERT_FALSE(snapshot.empty());
  }

  // "Reboot": a fresh service imports the snapshot and answers from cache,
  // bit-identically.
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  service::SolveService svc(cfg);
  EXPECT_GT(svc.import_cache_snapshot(snapshot), 0u);
  const service::SolveResponse r = svc.wait(svc.submit(to_request(probe)).ticket());
  ASSERT_EQ(r.state, service::RequestState::kCompleted);
  EXPECT_EQ(r.cache, "hit");
  EXPECT_EQ(select::solution_signature(r.selection), warm_sig);

  // A garbage snapshot is refused wholesale, never half-imported.
  service::SolveService svc2(cfg);
  EXPECT_EQ(svc2.import_cache_snapshot("not a snapshot"), 0u);
  EXPECT_EQ(svc2.import_cache_snapshot(""), 0u);
}

}  // namespace
}  // namespace partita
