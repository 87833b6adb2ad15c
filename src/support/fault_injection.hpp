// Deterministic, test-only fault injection.
//
// Recovery paths -- deadline expiry, arena allocation failure, basis
// refactorization failure -- normally fire only under wall-clock or memory
// pressure, which makes them untestable by luck. The FaultInjector lets a
// test arm a named *site* to trip at its Nth check: production code asks
// `fault_should_trip("site")` at each check and gets `true` from
// the Nth call on (sticky, like a real expired deadline), so every recovery
// path runs reproducibly in ctest.
//
// Thread safety: site registration (arm/disarm/reset) takes a mutex; hit
// counting is a single fetch_add on an atomic per-site counter, and the
// sticky state is an atomic flag. Concurrent should_trip calls from the
// solve-service worker pool therefore never lose a hit, exactly one call
// observes the trip transition, and once a sticky site trips *every* thread
// sees it tripped from then on -- which is what makes soak tests with armed
// sites deterministic in their invariants (though not in which request
// trips). The disarmed fast path is one relaxed atomic load; with nothing
// armed the hooks cost nothing measurable.
//
// For a deterministic trip *position* under concurrency, arm
// multi-threaded sites with trip_at = 1 (every check trips) and reserve
// trip_at > 1 for sites checked on a single thread (wave boundaries, arena
// allocation).
//
// Sites currently wired:
//   "ilp.deadline"         wave-boundary deadline check in branch & bound
//   "ilp.node_arena"       node-arena allocation in branch & bound
//   "simplex.warm_refactor" basis import/refactorization in solve_warm
//   "select.objective_skew" drops interface areas from the selection
//                          objective (oracle/shrinker divergence demo)
//   "service.transient"    injected transient failure in the solve service
//                          worker (exercises RetryPolicy + quarantine)
//   "journal.append"       write-ahead journal admit append (durability)
//   "journal.trim"         terminal-state trim append in the journal
//
// Crash mode (`crasher`): arming a site with crash = true turns its trip
// into a SIGKILL of the whole process -- no atexit handlers, no flushing,
// the closest deterministic stand-in for power loss. The kill-and-recover
// harness arms crash sites around the journal writes to prove
// recovery replays every acknowledged request.
//
// The tools (tools/partita_cli.cpp, tools/partita_serve.cpp) additionally
// arm one site from the PARTITA_FAULT=site[:n][:crash] environment variable
// through arm_fault_spec, so ctest can exercise the degraded exit path --
// and the crash-recovery path -- end to end.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace partita::support {

class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Arms `site`. Sticky (default): the trip_at-th call to should_trip
  /// (1-based) and every call after it return true, like a real expired
  /// deadline. Non-sticky: *only* the trip_at-th call returns true -- a
  /// one-shot transient fault that subsequent retries recover from.
  /// Re-arming resets the hit count. With `crash`, a trip SIGKILLs the
  /// process instead of returning true (simulated power loss).
  void arm(std::string_view site, std::uint64_t trip_at = 1, bool sticky = true,
           bool crash = false);
  void disarm(std::string_view site);
  /// Disarms every site and clears all hit counts.
  void reset();

  /// Check: counts a hit against `site` and reports whether the fault
  /// fires. Unarmed sites never fire (and are not counted).
  bool should_trip(std::string_view site);

  /// Checks counted against `site` since it was (re-)armed.
  std::uint64_t hits(std::string_view site) const;

 private:
  struct Site {
    std::uint64_t trip_at = 1;
    bool sticky = true;
    bool crash = false;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<bool> tripped{false};
  };

  // Sites are shared_ptr so should_trip can count outside the registration
  // lock (and survive a concurrent disarm).
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Site>, std::less<>> sites_;
  std::atomic<int> armed_count_{0};

  friend bool fault_should_trip(std::string_view site);
};

/// Production-side hook: false immediately (one relaxed load) when nothing
/// is armed anywhere.
inline bool fault_should_trip(std::string_view site) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.armed_count_.load(std::memory_order_relaxed) == 0) return false;
  return fi.should_trip(site);
}

/// What arm_fault_spec armed.
struct FaultSpec {
  std::string site;
  std::uint64_t trip_at = 1;
  bool crash = false;
};

/// Parses `site[:n][:crash]` and arms it sticky: a trailing ":crash" makes
/// the trip a SIGKILL, and a trailing all-digit ":n" trips at the n-th
/// checkpoint (0 and absent mean 1). The one spelling of PARTITA_FAULT and
/// `partita_serve --fault`.
FaultSpec arm_fault_spec(std::string_view spec);

/// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFault {
 public:
  explicit ScopedFault(std::string_view site, std::uint64_t trip_at = 1,
                       bool sticky = true)
      : site_(site) {
    FaultInjector::instance().arm(site_, trip_at, sticky);
  }
  ~ScopedFault() { FaultInjector::instance().disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string site_;
};

}  // namespace partita::support
