// Concurrency soak for the solve service: a storm of concurrent requests
// (built-ins + random generated instances) with random cancellations and
// armed fault-injection sites. The assertions are lifecycle invariants, not
// outcomes: every request reaches exactly one terminal state, the stats
// ledger balances, and after the storm -- faults disarmed -- the pool still
// serves a fresh request cleanly. CI runs this binary under both
// AddressSanitizer and ThreadSanitizer.
//
//   service_soak [--quick] [--requests N] [--seed S]
//
// --quick (the tier-1 registration) runs a 12-request storm; the default
// (tier-2) runs 72. Exit 0 on success, 1 with a message on any violation.
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "select/flow.hpp"
#include "service/solve_service.hpp"
#include "support/fault_injection.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

using namespace partita;

namespace {

int g_failures = 0;

#define SOAK_CHECK(cond, ...)                               \
  do {                                                      \
    if (!(cond)) {                                          \
      std::fprintf(stderr, "soak: FAIL %s:%d: ", __FILE__, __LINE__); \
      std::fprintf(stderr, __VA_ARGS__);                    \
      std::fprintf(stderr, "\n");                           \
      ++g_failures;                                         \
    }                                                       \
  } while (0)

service::SolveRequest make_request(std::mt19937_64& rng, int index) {
  service::SolveRequest req;
  switch (rng() % 5) {
    case 0: req.workload = workloads::fig9_case(); break;
    case 1: req.workload = workloads::fig10_case(); break;
    case 2: req.workload = workloads::gsm_decoder(); break;
    case 3: req.workload = workloads::jpeg_encoder(); break;
    default: {
      // A generated instance that carries its spec, so a failure would leave
      // a replayable quarantine fixture.
      workloads::InstanceGenParams p;
      p.scalls = 5 + static_cast<int>(rng() % 4);
      p.kernels = 3 + static_cast<int>(rng() % 3);
      p.ips = 4 + static_cast<int>(rng() % 4);
      const std::uint64_t seed = rng();
      workloads::InstanceSpec spec = workloads::random_instance_spec(p, seed);
      req.workload = workloads::spec_workload(spec);
      req.spec = std::move(spec);
      break;
    }
  }
  req.label = "soak_" + std::to_string(index);
  rng();  // the retired thread-count draw: keeps the request stream unchanged
  return req;
}

// Cache-enabled storm: random repeats of a small base set (so hits are
// frequent), random cancels, a transient service fault and a mid-storm
// invalidation. The invariants: every
// completed answer -- hit, neighbor-seeded or cold -- is bit-identical to
// the precomputed cold solve of its (workload, gain), so no stale or torn
// entry is ever served; a cancelled solve never populates the cache; and the
// cache counters balance (hits + misses == lookups).
void cache_storm(int requests, std::uint64_t seed) {
  struct Base {
    workloads::Workload (*make)();
    std::int64_t gain = 0;
    std::string cold_sig;
  };
  std::vector<Base> bases;
  for (workloads::Workload (*make)() :
       {workloads::fig9_case, workloads::fig10_case, workloads::gsm_decoder}) {
    const workloads::Workload w = make();
    const auto flow = select::Flow::create(w.module, w.library);
    SOAK_CHECK(flow.ok(), "cache storm: base workload failed verification");
    if (!flow.ok()) continue;
    const std::int64_t gmax = flow.value()->max_feasible_gain();
    for (const std::int64_t g : {gmax / 2, gmax / 2 - 3}) {
      bases.push_back(
          {make, g, select::solution_signature(flow.value()->select(g))});
    }
  }

  auto& fi = support::FaultInjector::instance();
  fi.arm("service.transient", /*trip_at=*/5, /*sticky=*/false);

  service::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_queue_depth = static_cast<std::size_t>(requests);
  cfg.cache_enabled = true;
  cfg.cache_capacity = 16;
  service::SolveService svc(cfg);

  std::mt19937_64 rng(seed ^ 0xcafef00dULL);
  std::vector<std::uint64_t> tickets;
  std::vector<std::size_t> base_of;
  for (int i = 0; i < requests; ++i) {
    const std::size_t b = rng() % bases.size();
    service::SolveRequest req;
    req.workload = bases[b].make();
    req.required_gains = {bases[b].gain};
    req.label = "cache_storm_" + std::to_string(i);
    rng();  // the retired thread-count draw: keeps cancels and faults unchanged
    tickets.push_back(svc.submit(std::move(req)).ticket());
    base_of.push_back(b);
    if (rng() % 5 == 0) svc.cancel(tickets[rng() % tickets.size()]);
    if (i == requests / 2) svc.invalidate_cache();
  }

  std::uint64_t completed = 0, cancelled = 0, other = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const service::SolveResponse r = svc.wait(tickets[i]);
    switch (r.state) {
      case service::RequestState::kCompleted:
        ++completed;
        SOAK_CHECK(select::solution_signature(r.selection) ==
                       bases[base_of[i]].cold_sig,
                   "cache storm: ticket %llu (cache=%s) diverged from cold solve",
                   static_cast<unsigned long long>(tickets[i]), r.cache.c_str());
        break;
      case service::RequestState::kCancelled: ++cancelled; break;
      default: ++other; break;
    }
  }
  fi.reset();

  const service::ServiceStats st = svc.stats();
  SOAK_CHECK(st.cache_hits + st.cache_misses == st.cache_lookups,
             "cache storm: hits %llu + misses %llu != lookups %llu",
             static_cast<unsigned long long>(st.cache_hits),
             static_cast<unsigned long long>(st.cache_misses),
             static_cast<unsigned long long>(st.cache_lookups));
  SOAK_CHECK(st.cache_neighbor_seeds <= st.cache_misses,
             "cache storm: more neighbor seeds than misses");
  // Only completed solves insert (cancelled/failed attempts must not), and
  // retried attempts may look up more than once.
  SOAK_CHECK(st.cache_insertions <= completed + st.retries,
             "cache storm: %llu insertions from %llu completions",
             static_cast<unsigned long long>(st.cache_insertions),
             static_cast<unsigned long long>(completed));
  SOAK_CHECK(completed > 0 && st.cache_hits > 0,
             "cache storm: served no cached answers (completed %llu, hits %llu)",
             static_cast<unsigned long long>(completed),
             static_cast<unsigned long long>(st.cache_hits));

  svc.shutdown();
  std::printf(
      "soak: cache storm %d requests -> %llu completed, %llu cancelled, "
      "%llu other; %llu hits / %llu neighbor / %llu misses, %llu stale, "
      "%llu insertions\n",
      requests, static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(other),
      static_cast<unsigned long long>(st.cache_hits),
      static_cast<unsigned long long>(st.cache_neighbor_seeds),
      static_cast<unsigned long long>(st.cache_misses),
      static_cast<unsigned long long>(st.cache_stale),
      static_cast<unsigned long long>(st.cache_insertions));
}

// Deterministic cancelled-never-populates check: a paused service queues a
// request, the cancel lands while it is still queued (never runs), and the
// identical follow-up must therefore MISS -- a hit would mean the cancelled
// request reached the cache.
void cancelled_populates_nothing() {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  cfg.start_paused = true;
  service::SolveService svc(cfg);

  service::SolveRequest req;
  req.workload = workloads::adpcm_codec();
  req.required_gains = {100};
  const std::uint64_t doomed = svc.submit(std::move(req)).ticket();
  SOAK_CHECK(svc.cancel(doomed), "paused cancel refused");
  svc.resume();
  SOAK_CHECK(svc.wait(doomed).state == service::RequestState::kCancelled,
             "queued cancel did not turn terminal kCancelled");

  service::SolveRequest again;
  again.workload = workloads::adpcm_codec();
  again.required_gains = {100};
  const service::SolveResponse r = svc.wait(svc.submit(std::move(again)).ticket());
  SOAK_CHECK(r.state == service::RequestState::kCompleted,
             "follow-up after cancel did not complete");
  SOAK_CHECK(r.cache == "miss",
             "cancelled request populated the cache (follow-up served '%s')",
             r.cache.c_str());
  svc.shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 72;
  std::uint64_t seed = 2026;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      requests = 12;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--requests N] [--seed S]\n", argv[0]);
      return 2;
    }
  }
  std::mt19937_64 rng(seed);

  // One-shot transient faults at every governed site: one request somewhere
  // in the storm hits a spurious deadline, a failed arena allocation, a
  // failed warm-basis refactorization, and a transient service fault (which
  // drives the retry path). Non-sticky arming keeps the rest of the storm
  // healthy while still forcing every recovery path to run.
  auto& fi = support::FaultInjector::instance();
  fi.arm("ilp.deadline", /*trip_at=*/101, /*sticky=*/false);
  fi.arm("ilp.node_arena", /*trip_at=*/211, /*sticky=*/false);
  fi.arm("simplex.warm_refactor", /*trip_at=*/61, /*sticky=*/false);
  fi.arm("service.transient", /*trip_at=*/3, /*sticky=*/false);

  service::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_queue_depth = static_cast<std::size_t>(requests);  // admit the storm
  service::SolveService svc(cfg);

  std::vector<std::uint64_t> tickets;
  tickets.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    tickets.push_back(svc.submit(make_request(rng, i)).ticket());
    // Random cancels land while earlier requests are queued or running.
    if (rng() % 4 == 0 && !tickets.empty()) {
      svc.cancel(tickets[rng() % tickets.size()]);
    }
  }

  std::uint64_t completed = 0, cancelled = 0, rejected = 0, failed = 0;
  for (std::uint64_t t : tickets) {
    const service::SolveResponse r = svc.wait(t);
    SOAK_CHECK(service::is_terminal(r.state), "ticket %llu non-terminal (%s)",
               static_cast<unsigned long long>(t), service::to_string(r.state));
    switch (r.state) {
      case service::RequestState::kCompleted:
        ++completed;
        SOAK_CHECK(r.selection.feasible, "ticket %llu completed infeasible",
                   static_cast<unsigned long long>(t));
        break;
      case service::RequestState::kCancelled: ++cancelled; break;
      case service::RequestState::kRejected: ++rejected; break;
      case service::RequestState::kFailed:
        ++failed;
        std::fprintf(stderr, "soak: note: ticket %llu failed: %s\n",
                     static_cast<unsigned long long>(t), r.error.message.c_str());
        break;
      default: break;
    }
  }

  // The ledger must balance: every submission is in exactly one terminal
  // bucket, both in our tally and in the service's own stats.
  const service::ServiceStats st = svc.stats();
  SOAK_CHECK(st.submitted == static_cast<std::uint64_t>(requests),
             "submitted %llu != %d", static_cast<unsigned long long>(st.submitted),
             requests);
  SOAK_CHECK(completed + cancelled + rejected + failed ==
                 static_cast<std::uint64_t>(requests),
             "terminal buckets do not sum to %d", requests);
  SOAK_CHECK(st.completed == completed && st.cancelled == cancelled &&
                 st.rejected == rejected && st.failed == failed,
             "service stats disagree with observed outcomes");
  SOAK_CHECK(completed > 0, "storm completed nothing");

  // After the storm: faults disarmed, the pool must serve a fresh request
  // cleanly -- no worker died, no charge leaked, no queue slot stuck.
  fi.reset();
  const std::uint64_t fresh = svc.submit([&] {
    service::SolveRequest req;
    req.workload = workloads::gsm_encoder();
    req.label = "fresh_after_storm";
    return req;
  }()).ticket();
  const service::SolveResponse r = svc.wait(fresh);
  SOAK_CHECK(r.state == service::RequestState::kCompleted,
             "fresh request after storm: %s (%s)", service::to_string(r.state),
             r.error.message.c_str());
  SOAK_CHECK(r.attempts == 1, "fresh request needed %d attempts", r.attempts);

  svc.shutdown();

  // Second act: the cache-enabled storm plus the deterministic
  // cancelled-never-populates check (see the function comments).
  cache_storm(requests, seed);
  cancelled_populates_nothing();

  std::printf(
      "soak: %d requests -> %llu completed, %llu cancelled, %llu rejected, "
      "%llu failed, %llu retries (peak queue %zu)\n",
      requests, static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(st.retries), st.peak_queue_depth);
  if (g_failures != 0) {
    std::fprintf(stderr, "soak: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("soak: OK\n");
  return 0;
}
