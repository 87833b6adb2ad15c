// Long-running, in-process S-instruction selection service.
//
// Every entry point before this layer was one-shot: one workload in, one
// selection out, and any failure took the whole process down. SolveService
// turns the library into a request/response system: a fixed worker pool
// drains an admitted pending set of selection jobs -- one per submit, a
// gain ladder with one ticket per item (a single request is a one-item
// ladder) -- running each one on one worker path through the existing
// select::Flow / select::Selector pipeline (which is re-entrant; see
// selector.hpp). The robustness contract is the point:
//
//   * Exactly-one-terminal-state: every submitted request ends in exactly
//     one of completed / cancelled / rejected / failed, and wait(ticket)
//     always returns. Workers never die: exceptions, injected faults and
//     resource exhaustion are quarantined per-request.
//   * One completion path: on_terminal(ticket, hook) runs the hook exactly
//     once with the terminal response, on the thread that finalized the
//     ticket. wait() is built on it, and so is the wire `wait` verb, which
//     therefore holds no thread while its ticket is pending.
//   * Cooperative cancellation: a per-request support::CancelToken is
//     threaded into ilp::ResourceBudget and observed at branch & bound wave
//     boundaries, so cancel(ticket) terminates a running solve within one
//     wave (bounded latency), and dequeues a queued one immediately.
//   * Admission control with pluggable scheduling: which requests are shed
//     at submit and which pending request runs next are decided by a
//     service::SchedulerPolicy ("fifo" default, "priority", "edf",
//     "rejecter"; see scheduler.hpp) selected by name in ServiceConfig.
//     A rejection carries a retry-after hint derived from the *observed*
//     queue drain rate (DrainRateEstimator), so shed clients back off
//     proportionally to real load, not a constant.
//   * Multi-tenant quotas: requests declare a tenant id; an optional
//     per-tenant live-request cap rejects the over-quota tenant's request
//     at submit without disturbing anyone else's traffic.
//   * Retry on transient faults: attempts that fail with
//     ErrorKind::kTransient re-run a job's live items under
//     support::RetryPolicy (exponential backoff + deterministic seeded
//     jitter) on a progressively lower degradation rung (shrinking node
//     budget), so a persistent fault still converges to a terminal answer.
//   * Crash isolation + replayable quarantine: a job that exhausts its
//     retries records a structured support::Error on each live item, and --
//     when it carries an InstanceSpec -- one oracle fixture
//     (partita-oracle-fixture-v1) is written to the quarantine directory for
//     offline replay via `partita_fuzz --replay`.
//   * Graceful drain: drain() stops admission and blocks until everything
//     already admitted reached its natural terminal state (cancel tickets
//     first for a fast abort); shutdown() additionally joins the pool.
//   * Durability (optional; see service/journal.hpp and docs/durability.md):
//     with a Journal configured, every admitted request is appended to the
//     write-ahead journal BEFORE submit() returns its ticket, and every
//     terminal transition appends a matching terminal record. A process
//     killed mid-storm therefore loses no acknowledged request: boot-time
//     recovery replays the undecided admits through normal admission under
//     their original tenant/priority/deadline envelopes, and each replay
//     re-solves cold -- with answers bit-identical to an uninterrupted run,
//     since the canonical optimum does not depend on search order.
//
// All timing (deadlines via the per-request budget, retry backoff, the
// scheduler's aging/EDF decisions, the drain-rate estimator) goes through an
// injectable support::Clock, so the robustness tests run on a FakeClock with
// zero real sleeps.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "select/flow.hpp"
#include "service/scheduler.hpp"
#include "service/solution_cache.hpp"
#include "support/cancel.hpp"
#include "support/clock.hpp"
#include "support/result.hpp"
#include "support/retry.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita::service {

class Journal;  // service/journal.hpp

/// The one request envelope, shared by the in-process API and the wire
/// protocol (partita-wire-v1, also spoken by partita_serve's script mode):
/// a workload, scheduling metadata (tenant, priority class, optional
/// deadline) and the solve options (budget, problem variant). The
/// service installs its own cancel token and clock into options.ilp.budget;
/// everything else is honored verbatim, so a service solve is bit-identical
/// to a one-shot Flow::select with the same options.
///
/// One submit is one job: a gain ladder over this workload with one ticket
/// per `required_gains` item, one admission slot, solved on one worker
/// through Selector::select_batch (amortized model build / clique table /
/// chained root bases). Every job gets the retry ladder and quarantine; a
/// one-item job (the default) also goes through the solution cache.
struct SolveRequest {
  std::string label;
  workloads::Workload workload;
  /// When present, a failed job dumps this spec as a replayable oracle
  /// fixture into ServiceConfig::quarantine_dir.
  std::optional<workloads::InstanceSpec> spec;
  /// Uniform required gain per item; a negative gain derives
  /// max_feasible_gain / 2 (the CLI default) once for the whole job under
  /// the same options. Empty counts as the default {-1}.
  std::vector<std::int64_t> required_gains{-1};
  select::SelectOptions options;

  // --- scheduling metadata (consumed by the SchedulerPolicy) ---------------
  /// Tenant id for quota accounting; "" = anonymous (still quota'd as one
  /// tenant when a per-tenant cap is configured).
  std::string tenant;
  /// Priority class (0 interactive .. 2 batch; see scheduler.hpp), clamped
  /// at submit.
  int priority = kPriorityStandard;
  /// Soft completion deadline in seconds from submission; 0 = none. Used by
  /// the "edf" policy for ordering (an overdue request is not auto-killed;
  /// its own solver budget governs termination).
  double deadline_seconds = 0.0;

  // --- durability (consumed only when ServiceConfig::journal is set) -------
  /// Opaque wire encoding of this request, journaled verbatim at admission
  /// so recovery can reconstruct the exact envelope. The service never
  /// parses it. Empty = the request is not journaled (in-process callers
  /// that opt out).
  std::string journal_payload;
  /// 0: assign a fresh journal seq at admission. Non-zero: this request IS
  /// a replay of an already-journaled admit (boot recovery compacted its
  /// record already), so admission must not re-append it.
  std::uint64_t journal_seq = 0;
  /// True for requests re-admitted by boot recovery; echoed on the
  /// response (and the wire) so clients can tell a replayed answer.
  bool recovered = false;
};

/// The outcome of one submit: every issued ticket (one per gain item) plus
/// the immediate admission verdict. kQueued means admitted; kRejected
/// tickets are already terminal and carry the drain-rate-derived
/// retry-after hint.
struct SubmitOutcome {
  std::vector<std::uint64_t> tickets;
  RequestState state = RequestState::kQueued;
  double retry_after_seconds = 0.0;
  std::string reject_reason;

  bool admitted() const { return state == RequestState::kQueued; }
  std::uint64_t ticket() const { return tickets.empty() ? 0 : tickets.front(); }
};

/// The terminal record of one request. `selection` is meaningful only for
/// kCompleted; `error` for kFailed and kRejected; `retry_after_seconds` for
/// kRejected; `quarantine_fixture` for failed spec-carrying requests.
struct SolveResponse {
  std::uint64_t ticket = 0;
  std::string label;
  RequestState state = RequestState::kQueued;
  select::Selection selection;
  support::Error error;
  double retry_after_seconds = 0.0;
  /// Solve attempts actually started (1 for a clean run; retries add more).
  int attempts = 0;
  std::string quarantine_fixture;
  /// Solution-cache outcome for this request: "" (cache disabled or a
  /// ladder item), "bypass" (cache on but the request is uncacheable, e.g.
  /// imp_filter), "hit" (served verbatim from the cache), "neighbor" (cold
  /// answer, but a cached neighbor's artifacts seeded the solve), "miss"
  /// (cold solve).
  /// Every non-"hit" answer is a real solve; "hit" answers were inserted by
  /// a completed solve with an identical key, so all outcomes are
  /// bit-identical to a cold solve (see docs/caching.md).
  std::string cache;
  /// True when this request was replayed from the write-ahead journal after
  /// a crash (its original acknowledgment predates this process).
  bool recovered = false;
};

struct ServiceConfig {
  /// Fixed worker pool size (each worker runs one request at a time, and
  /// each solve runs on its worker's thread alone).
  int workers = 2;
  /// Scheduling policy name: "fifo" (default), "priority", "edf",
  /// "rejecter". Unknown names fall back to fifo.
  std::string policy = "fifo";
  /// Queued (not yet running) requests beyond this are shed (how is the
  /// policy's call: fifo/priority/edf reject the arrival, rejecter evicts
  /// the lowest class first).
  std::size_t max_queue_depth = 16;
  /// Aggregate solver-memory charge (sum over queued + running requests) the
  /// service admits; 0 disables. A request's charge is its
  /// options.ilp.budget.memory_limit_bytes, or kDefaultMemoryCharge when it
  /// set no cap -- so one huge declared instance is shed instead of starving
  /// everyone else.
  std::size_t max_admitted_memory_bytes = 0;
  static constexpr std::size_t kDefaultMemoryCharge = std::size_t{64} << 20;
  /// Per-tenant cap on live (queued + running) requests; 0 disables.
  std::size_t max_live_per_tenant = 0;
  support::RetryPolicy retry;
  /// Clock for deadlines, backoff and scheduling; null means Clock::system().
  support::Clock* clock = nullptr;
  /// Directory for quarantine fixtures of failed spec jobs; "" disables.
  std::string quarantine_dir;
  /// Start with the workers parked: requests queue up (and admission control
  /// applies) but nothing runs until resume(). Deterministic tests use this
  /// to fill the queue race-free.
  bool start_paused = false;

  // --- cross-request solution cache (see service/solution_cache.hpp) ------
  /// Enables the read-through cache of completed Selections. Off by default:
  /// pre-cache behavior (every request re-solves) is unchanged.
  bool cache_enabled = false;
  /// Entry / byte bounds, forwarded to SolutionCache (whose default shard
  /// count the service keeps).
  std::size_t cache_capacity = 256;
  std::size_t cache_max_bytes = std::size_t{64} << 20;
  /// Seed near-misses from the nearest cached neighbor's solver artifacts
  /// (bases, pseudo-costs, cliques, incumbents). Answer-safe: a seeded
  /// search that truncates is redone cold by the Selector before answering.
  bool cache_neighbor_seeding = true;

  // --- durability (see service/journal.hpp, docs/durability.md) ------------
  /// Write-ahead journal; null disables durability (pre-journal behavior is
  /// unchanged). Not owned. The service appends under its own mutex, so one
  /// journal serves one service.
  Journal* journal = nullptr;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  /// Subset of `rejected`: admitted-then-shed by the rejecter policy.
  std::uint64_t evicted = 0;
  std::uint64_t retries = 0;  // extra attempts beyond the first, all requests
  std::size_t peak_queue_depth = 0;
  std::size_t peak_admitted_memory_bytes = 0;
  // Multi-item jobs (gain ladders).
  std::uint64_t batches = 0;      // ladders admitted
  std::uint64_t batch_items = 0;  // items across all admitted ladders
  std::uint64_t batch_amortized_hits = 0;  // solver artifacts reused across
                                           // ladder items (sum of batch_hits)
  // Cross-request solution cache (all zero while cache_enabled is false).
  // Invariants: cache_hits + cache_misses == cache_lookups;
  // cache_neighbor_seeds <= cache_misses; evictions/stale are monotone.
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_neighbor_seeds = 0;  // misses seeded from a neighbor
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_stale = 0;           // entries dropped after invalidation
  std::uint64_t cache_seed_fallbacks = 0;  // seeded solves redone cold after
                                           // a truncation (answer-safety)
  // Durability (all zero without a configured journal).
  std::uint64_t recovered_requests = 0;  // admits replayed by boot recovery
  std::uint64_t journal_rejects = 0;     // submits refused because the WAL
                                         // append failed (never acknowledged)
};

class SolveService {
 public:
  explicit SolveService(ServiceConfig config);
  /// Drains (flushing whatever is still queued or running) and joins.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admits or rejects the job (one ticket per gain; see SolveRequest).
  /// Always issues tickets; a rejected outcome's tickets are already
  /// terminal (kRejected with a retry-after hint), so every submission
  /// reaches exactly one terminal state. Admission may evict already-queued
  /// lower-class requests under the rejecter policy; those tickets turn
  /// terminal kRejected as well.
  SubmitOutcome submit(SolveRequest request);

  /// Requests cancellation. A queued request becomes terminal immediately;
  /// a running one is signalled through its CancelToken and terminates
  /// within one wave boundary. Returns false when the ticket is unknown or
  /// already terminal.
  bool cancel(std::uint64_t ticket);

  /// Called once with a ticket's terminal response; see on_terminal().
  using TerminalHook = std::function<void(const SolveResponse&)>;

  /// Runs `hook` exactly once with the ticket's terminal response. For a
  /// terminal ticket, and for an unknown one (with wait()'s kFailed "unknown
  /// ticket" response), it runs at once on the caller's thread. Otherwise the
  /// thread that finalizes the ticket runs it after releasing the service
  /// lock: a worker, cancel(), or a submit() whose admission evicted it. A
  /// hook may call poll(), stats(), submit(), cancel() or on_terminal(); it
  /// must not throw, and must not block on the service (wait(), drain() and
  /// shutdown() all wait for running hooks or for workers that run them).
  void on_terminal(std::uint64_t ticket, TerminalHook hook);

  /// Blocks until the request is terminal and returns its response.
  /// Unknown tickets fail immediately with a kFailed response.
  SolveResponse wait(std::uint64_t ticket);

  /// Non-blocking snapshot; nullopt for unknown tickets.
  std::optional<SolveResponse> poll(std::uint64_t ticket) const;

  /// Unparks the workers of a start_paused service.
  void resume();

  /// Stops admission and blocks until every admitted request reached its
  /// natural terminal state (queued ones still run; cancel them first for a
  /// fast abort) and every on_terminal hook they fired has returned.
  /// Afterwards the pool rejects all further submits.
  void drain();

  /// drain() + worker join. Idempotent; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;
  /// The scheduler's own counters (picks, backfills, evictions, ...).
  PolicyStats scheduler_stats() const;
  /// Active policy name ("fifo", "priority", "edf", "rejecter").
  const char* policy_name() const;

  /// Outdates every cached selection (served lazily as `cache_stale`).
  /// Call when anything outside the per-request options that could affect
  /// answers changes underneath the service. No-op when the cache is off.
  void invalidate_cache();

  /// Serialized snapshot of the solution cache (partita-cache-snapshot-v3);
  /// "" when the cache is disabled or empty. The serve daemon persists this
  /// next to the journal on graceful drain.
  std::string export_cache_snapshot() const;
  /// Re-populates the cache from an export_cache_snapshot document.
  /// Generation-checked inside the cache: entries invalidated before the
  /// snapshot never resurface. Returns the number of entries imported
  /// (0 when the cache is off or the snapshot is malformed).
  std::size_t import_cache_snapshot(const std::string& data);

 private:
  struct Entry {
    SolveResponse response;
    support::CancelSource cancel;
    std::string tenant;  // quota bookkeeping
    std::size_t memory_charge = 0;
    bool live = false;  // admitted and not yet terminal
    /// Key of this ticket's job in jobs_ (its first ticket, which is also
    /// what the scheduler's pending set holds for the job).
    std::uint64_t job = 0;
    /// Journal admit record (0: not journaled); the item is the ticket's
    /// position in its job. finalize_locked appends the matching terminal
    /// record.
    std::uint64_t journal_seq = 0;
    /// on_terminal hooks still owed the terminal response.
    std::vector<TerminalHook> hooks;
  };

  /// Hooks of one ticket finalized under the current hold of mu_, with the
  /// response they are owed.
  struct FiredHooks {
    std::vector<TerminalHook> hooks;
    SolveResponse response;
  };

  /// submit() and cancel() under mu_; the callers run the fired hooks.
  SubmitOutcome submit_locked(SolveRequest request);
  bool cancel_locked(std::uint64_t ticket);
  void worker_main();
  /// Runs one dequeued job: marks its live items running, runs the
  /// attempt/retry loop over them outside the lock, then finalizes each.
  /// `lk` is held on entry and on return. Never throws.
  void run_job(std::unique_lock<std::mutex>& lk, std::uint64_t job, SolveRequest request);
  /// One attempt over the live items' `gains` (one Selection per gain, in
  /// order). `cache_marker` receives the SolveResponse::cache outcome of
  /// this attempt ("", "bypass", "hit", "neighbor", "miss").
  support::Result<std::vector<select::Selection>> run_attempt(
      const SolveRequest& request, std::vector<std::int64_t> gains,
      const std::vector<support::CancelToken>& tokens, int attempt,
      std::string& cache_marker);
  /// Marks the entry terminal, releases its admission charge and tenant
  /// slot, feeds the drain-rate estimator, and moves its hooks to fired_.
  /// Caller holds mu_ and calls run_hooks before releasing it.
  void finalize_locked(Entry& entry, RequestState state);
  /// Runs (and destroys) fired_ with `lk` released, then re-locks; drain()
  /// waits for it. Every path that finalizes calls this before it releases
  /// mu_, so fired_ holds only the calling thread's own finalizations.
  void run_hooks(std::unique_lock<std::mutex>& lk);
  /// Finalizes every live item of a still-queued job as kRejected -- the
  /// rejecter policy's eviction path. The policy has already dropped the
  /// job's ticket from its pending set.
  void shed_queued_locked(std::uint64_t job, const std::string& why);
  /// Current drain-rate-derived retry-after hint. Caller holds mu_.
  double retry_after_hint_locked() const;

  ServiceConfig cfg_;
  support::Clock& clock_;
  /// Cross-request solution cache; null when cache_enabled is false. The
  /// cache is internally synchronized -- run_attempt uses it outside mu_.
  std::unique_ptr<SolutionCache> cache_;
  /// Seeded solves the Selector redid cold (atomic: bumped outside mu_).
  std::atomic<std::uint64_t> cache_seed_fallbacks_{0};

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: pending work / pause / stop
  std::condition_variable done_cv_;  // drain: all terminal, no hook running
  std::map<std::uint64_t, Entry> entries_;
  /// Queued jobs by first ticket. A job's tickets are consecutive from it,
  /// one per required_gains item (submit issues them under one lock).
  std::map<std::uint64_t, SolveRequest> jobs_;
  std::unique_ptr<SchedulerPolicy> policy_;
  DrainRateEstimator drain_rate_;  // seeded with its default interval
  std::map<std::string, std::size_t> live_per_tenant_;
  std::uint64_t next_ticket_ = 0;
  std::size_t admitted_memory_ = 0;  // charge of queued + running requests
  std::size_t running_count_ = 0;    // picked and not yet terminal
  std::size_t live_count_ = 0;       // non-terminal entries
  std::vector<FiredHooks> fired_;    // see run_hooks
  std::size_t hooks_running_ = 0;    // run_hooks calls with mu_ released
  bool paused_ = false;
  bool draining_ = false;
  bool stopping_ = false;
  ServiceStats stats_;

  std::vector<std::thread> workers_;
};

}  // namespace partita::service
