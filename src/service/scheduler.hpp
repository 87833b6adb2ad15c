// Pluggable admission/scheduling policies for the solve service.
//
// PR 4's SolveService hard-coded one scheduling decision: a bounded FIFO
// queue with load shedding at submit. Serving heterogeneous multi-tenant
// traffic needs that decision to be swappable -- batsched's
// ISchedulingAlgorithm catalog (easy-backfill, fcfs, rejecter, ...) is the
// shape this mirrors: one narrow interface, many small, independently
// testable policies.
//
// The contract: the service owns the request lifecycle and the lock; the
// policy owns the *pending set* (admitted, not yet running) and three
// decisions --
//
//   admit(entry, load)   may the request join the pending set? May also
//                        evict already-queued lower-class requests
//                        (rejecter) to make room.
//   pick_next(now)       which pending ticket runs next on a free worker?
//   on_complete(t, s)    a ticket reached a terminal state (or was picked
//                        and finished); still-pending tickets (queued
//                        cancel, eviction) leave the pending set here.
//
// Every method is called with the service mutex held, on the service's
// injectable clock -- policies do no locking and never read the wall clock
// themselves, so ordering/starvation invariants are testable on a FakeClock
// with zero real sleeps.
//
// Built-in policies (SchedulerPolicy::create):
//   "fifo"      arrival order; queue-depth + aggregate-memory shedding
//               (the PR 4 behavior, and the default).
//   "priority"  strict priority classes with backfill by declared solver
//               budget inside a class, age-based class promotion and an
//               absolute anti-starvation wait cap.
//   "edf"       earliest-deadline-first over requests that declared a
//               deadline; deadline-less requests run FIFO behind them.
//   "rejecter"  load-shedding rejecter: when full, sheds the *lowest*
//               class first -- evicting queued low-class work to admit a
//               higher-class arrival -- instead of rejecting blindly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace partita::service {

/// Request lifecycle:  submitted -> (rejected) | queued -> running -> one of
/// completed / cancelled / failed. Rejected requests are terminal at submit.
enum class RequestState : std::uint8_t {
  kQueued,
  kRunning,
  kCompleted,  // terminal: a Selection (possibly degraded-rung) was produced
  kCancelled,  // terminal: caller cancelled (queued or mid-solve) or drain
  kRejected,   // terminal: admission control shed the request at submit
  kFailed,     // terminal: structured Error after exhausting retries
};

/// Display name: "queued", "running", "completed", "cancelled", "rejected",
/// "failed".
const char* to_string(RequestState s);

inline bool is_terminal(RequestState s) {
  return s == RequestState::kCompleted || s == RequestState::kCancelled ||
         s == RequestState::kRejected || s == RequestState::kFailed;
}

/// Priority classes, best first: 0 interactive, 1 standard, 2 batch.
/// Requests outside the range are clamped at submit.
inline constexpr int kPriorityClasses = 3;
inline constexpr int kPriorityInteractive = 0;
inline constexpr int kPriorityStandard = 1;
inline constexpr int kPriorityBatch = 2;

/// Display name: "interactive", "standard", "batch".
const char* priority_name(int priority_class);
/// Clamps into [0, kPriorityClasses).
int clamp_priority(int priority_class);
/// Parses a class name or numeral; -1 on unknown input.
int parse_priority(const std::string& text);

/// What a policy knows about one request at admission time. Everything is
/// *declared* data (the scheduler never inspects the workload itself):
/// tenant, class, deadline and the solver budget the request announced.
struct SchedEntry {
  std::uint64_t ticket = 0;
  std::uint64_t seq = 0;  // admission order (monotone; ties broken by this)
  std::string tenant;
  int priority = kPriorityStandard;
  std::int64_t submit_micros = 0;
  /// Absolute deadline on the service clock; -1 = none declared.
  std::int64_t deadline_micros = -1;
  /// Admission memory charge (declared solver cap or the service default).
  std::size_t memory_charge = 0;
  /// Declared solver wall-clock budget in seconds; 0 = none declared.
  /// Backfill orders by this: small declared budgets may jump ahead.
  double declared_time_seconds = 0.0;
  /// Batch size (1 for a single request) -- a batch occupies one slot.
  std::size_t items = 1;
};

/// Static policy configuration, fixed at construction.
struct SchedulerLimits {
  /// Pending (admitted, not yet running) requests beyond this are shed.
  std::size_t max_queue_depth = 16;
  /// Aggregate memory charge (pending + running) ceiling; 0 disables.
  std::size_t max_admitted_memory_bytes = 0;
  int workers = 2;
  /// Priority policy: one class promotion per this much queued waiting.
  double age_promote_seconds = 5.0;
  /// Priority policy: a request queued longer than this outranks every
  /// class (absolute anti-starvation cap).
  double max_wait_seconds = 30.0;
};

/// Live service-side load at admission time.
struct SchedulerLoad {
  std::size_t running = 0;
  /// Sum of memory charges over pending + running requests (the incoming
  /// entry's own charge is NOT yet included).
  std::size_t admitted_memory_bytes = 0;
};

struct AdmitDecision {
  bool admitted = true;
  /// One-line shed reason; set iff !admitted.
  std::string reject_reason;
  /// Already-queued tickets the policy shed to make room (rejecter). The
  /// service finalizes these as kRejected; they have left the pending set.
  std::vector<std::uint64_t> evicted;
};

struct PolicyStats {
  std::string name;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  // shed at admission (incoming request)
  std::uint64_t evicted = 0;   // shed after admission to make room
  std::uint64_t picked = 0;
  /// Picks that jumped ahead of an older pending request (priority win,
  /// declared-budget backfill or deadline ordering).
  std::uint64_t backfills = 0;
  /// Picks where queued aging promoted the request past its declared class.
  std::uint64_t aged_promotions = 0;
  std::size_t queued = 0;  // pending-set size at stats() time
};

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual const char* name() const = 0;

  /// Admission decision for `entry`. On admit the entry joins the pending
  /// set (and `evicted` lists any queued tickets shed to make room); on
  /// reject the entry was never owned by the policy.
  virtual AdmitDecision admit(const SchedEntry& entry, const SchedulerLoad& load) = 0;

  /// Removes and returns the pending ticket that should run next, or
  /// nullopt when the pending set is empty.
  virtual std::optional<std::uint64_t> pick_next(std::int64_t now_micros) = 0;

  /// Terminal-state notification for every admitted ticket. A ticket that
  /// is still pending (cancelled while queued, evicted, drained) leaves the
  /// pending set here; tickets already handed out by pick_next are just
  /// recorded.
  virtual void on_complete(std::uint64_t ticket, RequestState state,
                           std::int64_t now_micros) = 0;

  virtual PolicyStats stats() const = 0;

  /// Pending-set size (queued, not yet running).
  virtual std::size_t queued() const = 0;

  /// Factory over the built-in catalog: "fifo", "priority", "edf",
  /// "rejecter". Unknown names return nullptr.
  static std::unique_ptr<SchedulerPolicy> create(const std::string& name,
                                                 const SchedulerLimits& limits);
  static std::vector<std::string> known_policies();
};

/// EWMA of the observed inter-terminal gap, used to derive the rejection
/// retry-after hint from the actual queue drain rate instead of a static
/// constant: a service draining every 10 ms tells shed clients to come back
/// in tens of milliseconds, a wedged one proportionally later. Timestamps
/// come from the service's injectable clock, so tests drive it with a
/// FakeClock.
class DrainRateEstimator {
 public:
  /// `seed_interval_seconds` is the assumed per-request service interval
  /// before any completion has been observed (0.05 s unless positive).
  explicit DrainRateEstimator(double seed_interval_seconds = 0.05)
      : interval_seconds_(seed_interval_seconds > 0 ? seed_interval_seconds : 0.05) {}

  /// Feeds one terminal event (completed/cancelled/failed -- anything that
  /// frees capacity).
  void record_terminal(std::int64_t now_micros);

  /// Current smoothed gap between terminal events, in seconds.
  double interval_seconds() const { return interval_seconds_; }

  /// Retry-after hint for a shed request: the estimated time until the
  /// backlog ahead of it has drained across the worker pool.
  double retry_after_seconds(std::size_t queued_depth, int workers) const;

 private:
  double interval_seconds_;
  std::int64_t last_terminal_micros_ = -1;
};

}  // namespace partita::service
