// partita_loadgen — closed/open-loop load generator for the wire service.
//
// Drives a partita-wire-v1 server with scripted scenarios, measures
// per-request latency end to end (submit sent -> terminal state received
// over the socket) and emits throughput + p50/p99 into the partita-bench-v2
// trajectory. Two targets:
//
//   --connect ENDPOINT    storm an already-running partita_serve (the CI
//                         tier-2 job does this with fault sites armed);
//   self-serve (default)  boot an in-process service + server per policy in
//                         --policies and run the scenario against each --
//                         the fifo-vs-priority comparison lives here.
//
// Scenarios:
//   smoke   tiny sanity run (few sessions, built-in workloads);
//   mixed   the mixed-budget contrast: interactive-class sessions submit
//           small instances with small declared budgets while batch-class
//           sessions submit large generated instances with big budgets --
//           the scenario where priority+backfill must beat FIFO on
//           interactive p99 (--require-priority-win gates it);
//   storm   heterogeneous chaos: random workloads, priorities, deadlines,
//           tenants and random cancels -- run under armed fault sites to
//           prove no submitted request ever loses its terminal state.
//
// Arrival models: closed (each session submits, waits, repeats) or open:GAP
// (submit every GAP ms regardless of completions, collect asynchronously
// over the same multiplexed connection).
//
// Cache traffic shaping: --repeat-fraction P resubmits an already-issued
// request verbatim with probability P (exact-hit material for the solution
// cache), --perturb-fraction Q resubmits one with a shifted required gain
// (near-miss material for neighbor seeding). Either implies --cache for
// self-serve runs; in --connect mode boot partita_serve with --cache. Each
// run's per-request cache markers are tallied into a "cache" block of the
// serve section (hit/neighbor/miss/bypass + hit_rate), and a baseline with
// serve.cache_hit_rate_min gates the observed hit rate.
//
// The zero-lost-terminal-state assertion is always on: every submitted
// request must be observed reaching exactly one terminal state over the
// wire, else exit 1.
//
// Kill-and-recover harness (docs/durability.md): --kill-after MS --kill-pid
// P SIGKILLs the serving process mid-storm (simulated power loss) from a
// timer thread; with --recover, requests whose connection died are counted
// `interrupted` instead of lost -- their fate is settled by the journal, not
// the wire. After the restarted daemon replays them, --verify-journal DIR
// polls the journal until no admit is undecided (--verify-timeout S, default
// 60) and then asserts every admitted item reached exactly one terminal
// state, dumping deterministic `terminal STATE LABEL SIGNATURE` lines the CI
// recover job diffs against an uninterrupted control run.
//
// exit codes: 0 ok, 1 lost terminal states / gate failure / priority did
// not win / journal verification failure, 2 usage, 3 connect failure.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <signal.h>

#include "bench_meta.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/journal.hpp"
#include "service/solve_service.hpp"
#include "support/json.hpp"

using namespace partita;
using SteadyClock = std::chrono::steady_clock;

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitConnect = 3;

struct Options {
  std::string connect;                    // "" = self-serve
  std::vector<std::string> policies{"fifo"};
  std::string scenario = "smoke";
  std::string arrival = "closed";         // or "open:<gap_ms>"
  double open_gap_ms = 20.0;
  int sessions = 0;                       // 0 = scenario default
  int requests = 0;                       // 0 = scenario default
  double cancel_prob = -1.0;              // <0 = scenario default
  std::uint64_t seed = 1;
  int workers = 2;                        // self-serve pool
  std::size_t queue_depth = 0;            // 0 = scenario default
  std::string out_path;                   // "" = write no record
  std::string check_path;
  bool require_priority_win = false;
  double repeat_fraction = 0.0;           // P(resubmit an issued request verbatim)
  double perturb_fraction = 0.0;          // P(resubmit with a shifted gain)
  bool cache = false;                     // self-serve: enable the solution cache
  double kill_after_ms = 0.0;             // SIGKILL --kill-pid after this delay
  long kill_pid = 0;
  bool recover = false;                   // connection death = interrupted, not lost
  std::string verify_journal;             // journal dir to verify, then exit
  double verify_timeout_s = 60.0;         // poll budget for undecided admits
};

/// One observed request: its class, end-to-end latency, terminal state and
/// solution-cache marker ("" when the service runs cacheless).
struct Rec {
  int klass = service::kPriorityStandard;
  double ms = 0.0;
  std::string state;
  std::string cache;
};

struct RunResult {
  std::string policy;
  double seconds = 0.0;
  std::vector<Rec> recs;
  std::uint64_t lost = 0;      // submits with no observed terminal state
  std::uint64_t interrupted = 0;  // connection died under --recover; journal decides
  std::uint64_t submitted = 0;
};

double ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0).count();
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: partita_loadgen [--connect ENDPOINT | --policies a,b]\n"
      "  [--scenario smoke|mixed|storm] [--arrival closed|open:GAPMS]\n"
      "  [--sessions N] [--requests N] [--cancel-prob P] [--seed S]\n"
      "  [--workers N] [--queue-depth N] [--out PATH]\n"
      "  [--check BASELINE] [--require-priority-win]\n"
      "  [--repeat-fraction P] [--perturb-fraction P] [--cache]\n"
      "  [--kill-after MS --kill-pid P] [--recover]\n"
      "  [--verify-journal DIR [--verify-timeout S]]\n");
  std::exit(kExitUsage);
}

// --- scenario request synthesis --------------------------------------------

struct Scenario {
  int sessions = 2;
  int requests = 4;         // per session
  double cancel_prob = 0.0;
  std::size_t queue_depth = 64;
  int interactive_sessions = 0;  // mixed: first K sessions are interactive
};

Scenario scenario_defaults(const std::string& name, const Options& opt) {
  Scenario s;
  if (name == "smoke") {
    s = {2, 4, 0.0, 64, 0};
  } else if (name == "mixed") {
    s = {6, 5, 0.0, 64, 2};
  } else if (name == "storm") {
    s = {8, 6, 0.25, 8, 0};
  } else {
    std::fprintf(stderr, "partita_loadgen: unknown scenario '%s'\n", name.c_str());
    std::exit(kExitUsage);
  }
  if (opt.sessions > 0) {
    s.sessions = opt.sessions;
    if (name == "mixed") s.interactive_sessions = std::max(1, opt.sessions / 3);
  }
  if (opt.requests > 0) s.requests = opt.requests;
  if (opt.cancel_prob >= 0) s.cancel_prob = opt.cancel_prob;
  if (opt.queue_depth > 0) s.queue_depth = opt.queue_depth;
  return s;
}

/// Builds the k-th request of one session, deterministic in (seed, session,
/// k). The request's priority class doubles as the latency-report class.
net::WireRequest make_request(const std::string& scenario, const Scenario& sc,
                              int session, int k, std::mt19937_64& rng) {
  net::WireRequest req;
  req.verb = "submit";
  req.tenant = "tenant" + std::to_string(session % 3);
  // Deterministic label: the recover harness joins a crashed run against its
  // uninterrupted control by label to compare solution signatures.
  req.label = "s" + std::to_string(session) + "r" + std::to_string(k);
  if (scenario == "mixed") {
    if (session < sc.interactive_sessions) {
      // Interactive class: tiny instance, tiny declared budget -- the
      // backfill signal the priority policy orders by.
      req.workload = (k % 2) ? "fig10" : "fig9";
      req.priority = service::kPriorityInteractive;
      req.time_limit_seconds = 0.05;
    } else {
      // Batch class: large generated instance (many execution paths) solved
      // as a gain-ladder batch -- one admission slot that holds a worker for
      // a while -- with a large declared budget.
      net::SpecRef spec;
      spec.seed = rng();
      spec.scalls = 14;
      spec.kernels = 5;
      spec.ips = 7;
      spec.branch_groups = 4;
      req.spec = spec;
      req.gains = {-1, -1, -1, -1, -1, -1};
      req.priority = service::kPriorityBatch;
      req.time_limit_seconds = 0.5;
    }
    return req;
  }
  if (scenario == "storm") {
    static const char* kBuiltins[] = {"fig9", "fig10", "jpeg_encoder", "gsm_decoder"};
    if (rng() % 2 == 0) {
      req.workload = kBuiltins[rng() % 4];
    } else {
      net::SpecRef spec;
      spec.seed = rng();
      spec.scalls = 6 + static_cast<int>(rng() % 5);
      spec.kernels = 4;
      spec.ips = 5;
      req.spec = spec;
    }
    req.priority = static_cast<int>(rng() % service::kPriorityClasses);
    if (rng() % 3 == 0) req.deadline_seconds = 0.5 + 0.001 * static_cast<double>(rng() % 1000);
    req.time_limit_seconds = 0.2;
    return req;
  }
  // smoke
  req.workload = (k % 2) ? "fig9" : "jpeg_encoder";
  req.time_limit_seconds = 0.1;
  return req;
}

/// Fixed literal required gain per built-in (all comfortably feasible), so
/// exact repeats of the same built-in collide on the cache key by
/// construction and perturbations stay near a feasible operating point.
std::int64_t builtin_gain(const std::string& workload) {
  if (workload == "fig9" || workload == "fig10" || workload == "adpcm_codec") {
    return 10000;
  }
  return 50000;
}

/// Per-session request stream with cross-request repetition (see the header
/// comment): issued requests are replayed verbatim (--repeat-fraction) or
/// with a shifted gain (--perturb-fraction).
struct RequestStream {
  std::vector<net::WireRequest> issued;

  net::WireRequest next(const std::string& scenario, const Scenario& sc, int session,
                        int k, std::mt19937_64& rng, const Options& opt) {
    const double roll = std::uniform_real_distribution<double>(0, 1)(rng);
    if (!issued.empty() && roll < opt.repeat_fraction) {
      return issued[rng() % issued.size()];
    }
    if (!issued.empty() && roll < opt.repeat_fraction + opt.perturb_fraction) {
      net::WireRequest req = issued[rng() % issued.size()];
      if (req.gains.empty() && req.required_gain > 0) {
        req.required_gain += 1 + static_cast<std::int64_t>(rng() % 7);
      }
      return req;
    }
    net::WireRequest req = make_request(scenario, sc, session, k, rng);
    if (opt.repeat_fraction + opt.perturb_fraction > 0 && req.gains.empty() &&
        !req.workload.empty()) {
      req.required_gain = builtin_gain(req.workload);
    }
    issued.push_back(req);
    return req;
  }
};

// --- session drivers --------------------------------------------------------

struct SharedRun {
  std::mutex mu;
  std::vector<Rec> recs;
  std::uint64_t lost = 0;
  std::uint64_t interrupted = 0;
  std::uint64_t submitted = 0;
};

void record(SharedRun& out, Rec r) {
  std::lock_guard<std::mutex> lk(out.mu);
  out.recs.push_back(std::move(r));
}

/// Closed loop: submit -> (maybe cancel) -> wait -> next. Latency spans the
/// full submit->terminal round trip as the client saw it.
void session_closed(const std::string& endpoint, const std::string& scenario,
                    const Scenario& sc, int session, const Options& opt,
                    SharedRun& out) {
  net::WireClient client;
  std::string err;
  if (!client.connect(endpoint, &err)) {
    std::fprintf(stderr, "partita_loadgen: session %d: %s\n", session, err.c_str());
    return;
  }
  std::mt19937_64 rng(opt.seed * 1000003 + static_cast<std::uint64_t>(session));
  RequestStream stream;
  for (int k = 0; k < sc.requests; ++k) {
    net::WireRequest req = stream.next(scenario, sc, session, k, rng, opt);
    const int klass = req.priority;
    const auto t0 = SteadyClock::now();
    {
      std::lock_guard<std::mutex> lk(out.mu);
      ++out.submitted;
    }
    auto sub = client.call(req, &err);
    if (!sub || !sub->ok) {
      std::lock_guard<std::mutex> lk(out.mu);
      // Under --recover, a dead connection is an interruption, not a loss:
      // the write-ahead journal is the authority on whether the request was
      // acknowledged, and --verify-journal settles its fate after recovery.
      if (!sub && opt.recover) ++out.interrupted; else ++out.lost;
      if (!sub) return;  // connection gone; remaining requests never submitted
      continue;
    }
    if (sub->state == "rejected") {
      record(out, {klass, ms_since(t0), "rejected", ""});
      continue;
    }
    const std::uint64_t ticket = sub->tickets.empty() ? 0 : sub->tickets.front();
    if (sc.cancel_prob > 0 &&
        std::uniform_real_distribution<double>(0, 1)(rng) < sc.cancel_prob) {
      net::WireRequest c;
      c.verb = "cancel";
      c.ticket = ticket;
      client.call(c, &err);  // best effort; the wait below is authoritative
    }
    net::WireRequest w;
    w.verb = "wait";
    w.ticket = ticket;
    auto done = client.call(w, &err);
    if (!done || !done->result) {
      std::lock_guard<std::mutex> lk(out.mu);
      if (!done && opt.recover) ++out.interrupted; else ++out.lost;
      if (!done) return;
      continue;
    }
    record(out, {klass, ms_since(t0), done->result->state, done->result->cache});
  }
}

/// Open loop: submissions are paced by wall clock, not completions; waits
/// stream back asynchronously over the same connection (id multiplexing).
void session_open(const std::string& endpoint, const std::string& scenario,
                  const Scenario& sc, int session, const Options& opt,
                  SharedRun& out) {
  net::WireClient client;
  std::string err;
  if (!client.connect(endpoint, &err)) {
    std::fprintf(stderr, "partita_loadgen: session %d: %s\n", session, err.c_str());
    return;
  }
  std::mt19937_64 rng(opt.seed * 1000003 + static_cast<std::uint64_t>(session));
  struct InFlight {
    int klass;
    SteadyClock::time_point t0;
  };
  std::map<std::uint64_t, InFlight> waiting;  // wait-id -> submit time
  RequestStream stream;
  for (int k = 0; k < sc.requests; ++k) {
    if (k > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(opt.open_gap_ms));
    }
    net::WireRequest req = stream.next(scenario, sc, session, k, rng, opt);
    const int klass = req.priority;
    const auto t0 = SteadyClock::now();
    {
      std::lock_guard<std::mutex> lk(out.mu);
      ++out.submitted;
    }
    auto sub = client.call(req, &err);  // admission answers immediately
    if (!sub || !sub->ok) {
      std::lock_guard<std::mutex> lk(out.mu);
      if (!sub && opt.recover) ++out.interrupted; else ++out.lost;
      if (!sub) break;
      continue;
    }
    if (sub->state == "rejected") {
      record(out, {klass, ms_since(t0), "rejected", ""});
      continue;
    }
    const std::uint64_t ticket = sub->tickets.empty() ? 0 : sub->tickets.front();
    if (sc.cancel_prob > 0 &&
        std::uniform_real_distribution<double>(0, 1)(rng) < sc.cancel_prob) {
      net::WireRequest c;
      c.verb = "cancel";
      c.ticket = ticket;
      client.send(c, &err);  // response collected (and ignored) below
    }
    net::WireRequest w;
    w.verb = "wait";
    w.ticket = ticket;
    const std::uint64_t wid = client.send(w, &err);
    if (wid == 0) {
      std::lock_guard<std::mutex> lk(out.mu);
      if (opt.recover) ++out.interrupted; else ++out.lost;
      break;
    }
    waiting.emplace(wid, InFlight{klass, t0});
  }
  // Collect: every frame is timestamped at arrival, so latency is honest
  // even when responses come back out of order.
  while (!waiting.empty()) {
    auto resp = client.recv(&err);
    if (!resp) {
      std::lock_guard<std::mutex> lk(out.mu);
      if (opt.recover) out.interrupted += waiting.size(); else out.lost += waiting.size();
      break;
    }
    auto it = waiting.find(resp->id);
    if (it == waiting.end()) continue;  // cancel ack or stray
    if (resp->result) {
      record(out, {it->second.klass, ms_since(it->second.t0), resp->result->state,
                   resp->result->cache});
    } else {
      std::lock_guard<std::mutex> lk(out.mu);
      ++out.lost;
    }
    waiting.erase(it);
  }
}

RunResult run_scenario(const std::string& endpoint, const std::string& policy_label,
                       const std::string& scenario, const Scenario& sc,
                       const Options& opt) {
  SharedRun shared;
  const auto t0 = SteadyClock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(sc.sessions));
  const bool open = opt.arrival.rfind("open", 0) == 0;
  for (int s = 0; s < sc.sessions; ++s) {
    threads.emplace_back([&, s] {
      if (open) {
        session_open(endpoint, scenario, sc, s, opt, shared);
      } else {
        session_closed(endpoint, scenario, sc, s, opt, shared);
      }
    });
  }
  for (auto& t : threads) t.join();

  RunResult r;
  r.policy = policy_label;
  r.seconds = ms_since(t0) / 1000.0;
  r.recs = std::move(shared.recs);
  r.lost = shared.lost;
  r.interrupted = shared.interrupted;
  r.submitted = shared.submitted;
  return r;
}

// --- reporting --------------------------------------------------------------

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double idx = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1 - frac) + xs[hi] * frac;
}

/// Latencies of requests that actually ran (rejected ones return in
/// microseconds and would drag the percentiles down artificially).
std::vector<double> served_latencies(const RunResult& r, int klass /* -1 = all */) {
  std::vector<double> xs;
  for (const Rec& rec : r.recs) {
    if (rec.state == "rejected") continue;
    if (klass >= 0 && rec.klass != klass) continue;
    xs.push_back(rec.ms);
  }
  return xs;
}

std::uint64_t count_state(const RunResult& r, const char* state) {
  std::uint64_t n = 0;
  for (const Rec& rec : r.recs) n += rec.state == state ? 1 : 0;
  return n;
}

/// Solution-cache outcome tallies of one run, from the per-request markers.
struct CacheTally {
  std::uint64_t hit = 0, neighbor = 0, miss = 0, bypass = 0;
  std::uint64_t probed() const { return hit + neighbor + miss; }
  double hit_rate() const {
    return probed() > 0 ? static_cast<double>(hit) / static_cast<double>(probed()) : 0.0;
  }
};

CacheTally cache_tally(const RunResult& r) {
  CacheTally t;
  for (const Rec& rec : r.recs) {
    if (rec.cache == "hit") ++t.hit;
    else if (rec.cache == "neighbor") ++t.neighbor;
    else if (rec.cache == "miss") ++t.miss;
    else if (rec.cache == "bypass") ++t.bypass;
  }
  return t;
}

std::string result_json(const RunResult& r) {
  namespace json = support::json;
  using json::fmt_double;
  const std::vector<double> all = served_latencies(r, -1);
  std::ostringstream os;
  os << "{\"requests\": " << r.submitted << ", \"seconds\": " << fmt_double(r.seconds)
     << ", \"requests_per_sec\": "
     << fmt_double(r.seconds > 0 ? static_cast<double>(r.submitted) / r.seconds : 0)
     << ", \"p50_ms\": " << fmt_double(percentile(all, 0.50))
     << ", \"p99_ms\": " << fmt_double(percentile(all, 0.99))
     << ", \"completed\": " << count_state(r, "completed")
     << ", \"cancelled\": " << count_state(r, "cancelled")
     << ", \"rejected\": " << count_state(r, "rejected")
     << ", \"failed\": " << count_state(r, "failed") << ", \"lost\": " << r.lost;
  if (r.interrupted > 0) os << ", \"interrupted\": " << r.interrupted;
  if (const CacheTally t = cache_tally(r); t.probed() + t.bypass > 0) {
    os << ", \"cache\": {\"hit\": " << t.hit << ", \"neighbor\": " << t.neighbor
       << ", \"miss\": " << t.miss << ", \"bypass\": " << t.bypass
       << ", \"hit_rate\": " << fmt_double(t.hit_rate()) << "}";
  }
  os << ", \"classes\": {";
  bool first = true;
  for (int klass = 0; klass < service::kPriorityClasses; ++klass) {
    const std::vector<double> xs = served_latencies(r, klass);
    if (xs.empty()) continue;
    if (!first) os << ", ";
    first = false;
    os << json::quote(service::priority_name(klass)) << ": {\"requests\": " << xs.size()
       << ", \"p50_ms\": " << fmt_double(percentile(xs, 0.50))
       << ", \"p99_ms\": " << fmt_double(percentile(xs, 0.99)) << "}";
  }
  os << "}}";
  return os.str();
}

void print_summary(const RunResult& r) {
  const std::vector<double> all = served_latencies(r, -1);
  std::printf("%-10s %4llu reqs in %6.2fs  %7.1f req/s  p50 %8.2fms  p99 %8.2fms"
              "  [c=%llu x=%llu r=%llu f=%llu lost=%llu int=%llu]\n",
              r.policy.c_str(), static_cast<unsigned long long>(r.submitted), r.seconds,
              r.seconds > 0 ? static_cast<double>(r.submitted) / r.seconds : 0.0,
              percentile(all, 0.50), percentile(all, 0.99),
              static_cast<unsigned long long>(count_state(r, "completed")),
              static_cast<unsigned long long>(count_state(r, "cancelled")),
              static_cast<unsigned long long>(count_state(r, "rejected")),
              static_cast<unsigned long long>(count_state(r, "failed")),
              static_cast<unsigned long long>(r.lost),
              static_cast<unsigned long long>(r.interrupted));
  for (int klass = 0; klass < service::kPriorityClasses; ++klass) {
    const std::vector<double> xs = served_latencies(r, klass);
    if (xs.empty()) continue;
    std::printf("           %-12s %4zu reqs  p50 %8.2fms  p99 %8.2fms\n",
                service::priority_name(klass), xs.size(), percentile(xs, 0.50),
                percentile(xs, 0.99));
  }
  if (const CacheTally t = cache_tally(r); t.probed() + t.bypass > 0) {
    std::printf("           cache: %llu hit / %llu neighbor / %llu miss / "
                "%llu bypass (hit rate %.2f)\n",
                static_cast<unsigned long long>(t.hit),
                static_cast<unsigned long long>(t.neighbor),
                static_cast<unsigned long long>(t.miss),
                static_cast<unsigned long long>(t.bypass), t.hit_rate());
  }
}

/// Splices a "serve" section into the (possibly existing) partita-bench-v2
/// record at `path`; creates a fresh record when absent.
bool write_bench(const std::string& path, const std::string& scenario,
                 const std::string& arrival, const std::vector<RunResult>& runs) {
  std::ostringstream serve;
  serve << "\"serve\": {\"scenario\": " << support::json::quote(scenario)
        << ", \"arrival\": " << support::json::quote(arrival) << ", \"results\": {";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i) serve << ", ";
    serve << support::json::quote(runs[i].policy) << ": " << result_json(runs[i]);
  }
  serve << "}}";

  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  std::string out;
  const std::size_t close = existing.rfind('}');
  if (close != std::string::npos) {
    // Append as one more top-level key of the existing record (a repeated
    // "serve" key is tolerated; last one wins on parse).
    out = existing.substr(0, close);
    while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) out.pop_back();
    out += ",\n  " + serve.str() + "\n}\n";
  } else {
    const bench::MachineMeta meta = bench::collect_machine_meta();
    out = "{\n  \"metadata\": " + bench::meta_json(meta) + ",\n  " + serve.str() + "\n}\n";
  }
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << out;
  return true;
}

/// Gate: overall p99 across runs must stay under serve.p99_ms_max of the
/// baseline record. Missing key = gate skipped (same spirit as bench_all).
int check_baseline(const std::string& path, const std::vector<RunResult>& runs) {
  namespace json = support::json;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "partita_loadgen: cannot read baseline %s\n", path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  auto doc = json::parse(ss.str(), &err);
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "partita_loadgen: bad baseline: %s\n", err.c_str());
    return 1;
  }
  const json::Object* serve = json::object_or_null(doc->object(), "serve");
  int rc = 0;
  const double ceiling = serve ? json::num_or(*serve, "p99_ms_max", -1) : -1;
  if (ceiling <= 0) {
    std::fprintf(stderr, "partita_loadgen: baseline lacks serve.p99_ms_max; gate skipped\n");
  } else {
    double worst = 0;
    for (const RunResult& r : runs) {
      worst = std::max(worst, percentile(served_latencies(r, -1), 0.99));
    }
    std::printf("gate serve.p99_ms: ceiling %.0f, observed %.1f\n", ceiling, worst);
    if (worst > ceiling) {
      std::fprintf(stderr, "partita_loadgen: REGRESSION: p99 %.1fms over ceiling %.0fms\n",
                   worst, ceiling);
      rc = 1;
    }
  }

  // Minimum cache hit rate, aggregated over every run's probed requests.
  // Only meaningful against cache-enabled repeat traffic; with no probed
  // requests (cacheless server or no repeats) the gate is skipped.
  const double min_rate = serve ? json::num_or(*serve, "cache_hit_rate_min", -1) : -1;
  if (min_rate >= 0) {
    CacheTally total;
    for (const RunResult& r : runs) {
      const CacheTally t = cache_tally(r);
      total.hit += t.hit;
      total.neighbor += t.neighbor;
      total.miss += t.miss;
      total.bypass += t.bypass;
    }
    if (total.probed() == 0) {
      std::fprintf(stderr,
                   "partita_loadgen: no cache-probed requests; hit-rate gate skipped\n");
    } else {
      std::printf("gate serve.cache_hit_rate: floor %.2f, observed %.2f "
                  "(%llu/%llu)\n",
                  min_rate, total.hit_rate(),
                  static_cast<unsigned long long>(total.hit),
                  static_cast<unsigned long long>(total.probed()));
      if (total.hit_rate() < min_rate) {
        std::fprintf(stderr,
                     "partita_loadgen: REGRESSION: cache hit rate %.2f under floor %.2f\n",
                     total.hit_rate(), min_rate);
        rc = 1;
      }
    }
  }
  return rc;
}

// --- journal verification ---------------------------------------------------

/// Settles a kill-and-recover run from the journal itself: polls recover()
/// (a read-only scan, safe while the recovered daemon still appends) until
/// no admit is undecided, then asserts every admitted item reached exactly
/// one terminal STATE. At-least-once execution may write the same terminal
/// record twice (a replayed batch re-finishes items that were already
/// decided); what must never happen is two CONFLICTING terminal states for
/// one admitted item, or an item with none at all. Completed terminals are
/// dumped as sorted `terminal completed LABEL SIGNATURE` lines so the CI
/// recover job can diff signatures against an uninterrupted control run.
int verify_journal_dir(const std::string& dir, double timeout_s) {
  service::JournalRecovery rec;
  const auto t0 = SteadyClock::now();
  for (;;) {
    rec = service::Journal::recover(dir);
    if (rec.undecided.empty()) break;
    if (ms_since(t0) / 1000.0 > timeout_s) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("journal %s: %zu segments, %zu records salvaged, %zu records + "
              "%zu bytes dropped\n",
              dir.c_str(), rec.segments, rec.records_salvaged,
              rec.records_dropped, rec.bytes_dropped);
  int rc = 0;
  if (!rec.undecided.empty()) {
    std::fprintf(stderr,
                 "partita_loadgen: FAILED: %zu acknowledged admits still lack "
                 "a terminal state after %.0fs:",
                 rec.undecided.size(), timeout_s);
    for (const service::JournalRecord& r : rec.undecided)
      std::fprintf(stderr, " seq=%llu", static_cast<unsigned long long>(r.seq));
    std::fprintf(stderr, "\n");
    rc = 1;
  }
  // Exactly-one-terminal-STATE: distinct (state, signature) values per item.
  std::map<std::pair<std::uint64_t, std::size_t>,
           std::set<std::pair<std::string, std::string>>> outcomes;
  for (const service::JournalTerminal& t : rec.terminals)
    outcomes[{t.seq, t.item}].insert({t.state, t.signature});
  for (const auto& [key, states] : outcomes) {
    if (states.size() <= 1) continue;
    std::fprintf(stderr,
                 "partita_loadgen: FAILED: admit seq=%llu item=%zu has %zu "
                 "conflicting terminal states\n",
                 static_cast<unsigned long long>(key.first), key.second,
                 states.size());
    rc = 1;
  }
  // Deterministic dump for cross-run signature comparison (dedup: re-executed
  // items repeat identical lines).
  std::set<std::tuple<std::string, std::string, std::string>> lines;
  for (const service::JournalTerminal& t : rec.terminals)
    lines.insert({t.state, t.label, t.signature});
  for (const auto& [state, label, signature] : lines)
    std::printf("terminal %s %s %s\n", state.c_str(), label.c_str(),
                signature.c_str());
  std::printf("journal verdict: %s (%zu items decided)\n",
              rc == 0 ? "exactly-one-terminal-state holds" : "FAILED",
              outcomes.size());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "partita_loadgen: %s needs a value\n", flag.c_str());
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (flag == "--connect") opt.connect = need_value();
    else if (flag == "--policies") {
      opt.policies.clear();
      std::istringstream ps(need_value());
      std::string p;
      while (std::getline(ps, p, ',')) {
        if (!p.empty()) opt.policies.push_back(p);
      }
      if (opt.policies.empty()) usage();
    } else if (flag == "--scenario") opt.scenario = need_value();
    else if (flag == "--arrival") {
      opt.arrival = need_value();
      if (opt.arrival.rfind("open:", 0) == 0) {
        opt.open_gap_ms = std::atof(opt.arrival.c_str() + 5);
        opt.arrival = "open";
      } else if (opt.arrival != "closed" && opt.arrival != "open") {
        usage();
      }
    } else if (flag == "--sessions") opt.sessions = std::atoi(need_value());
    else if (flag == "--requests") opt.requests = std::atoi(need_value());
    else if (flag == "--cancel-prob") opt.cancel_prob = std::atof(need_value());
    else if (flag == "--seed") opt.seed = std::strtoull(need_value(), nullptr, 10);
    else if (flag == "--workers") opt.workers = std::atoi(need_value());
    else if (flag == "--queue-depth")
      opt.queue_depth = static_cast<std::size_t>(std::atoll(need_value()));
    else if (flag == "--out") opt.out_path = need_value();
    else if (flag == "--check") opt.check_path = need_value();
    else if (flag == "--require-priority-win") opt.require_priority_win = true;
    else if (flag == "--repeat-fraction") opt.repeat_fraction = std::atof(need_value());
    else if (flag == "--perturb-fraction") opt.perturb_fraction = std::atof(need_value());
    else if (flag == "--cache") opt.cache = true;
    else if (flag == "--kill-after") opt.kill_after_ms = std::atof(need_value());
    else if (flag == "--kill-pid") opt.kill_pid = std::atol(need_value());
    else if (flag == "--recover") opt.recover = true;
    else if (flag == "--verify-journal") opt.verify_journal = need_value();
    else if (flag == "--verify-timeout") opt.verify_timeout_s = std::atof(need_value());
    else usage();
  }
  if (!opt.verify_journal.empty()) {
    return verify_journal_dir(opt.verify_journal, opt.verify_timeout_s);
  }
  if (opt.kill_after_ms > 0 && (opt.kill_pid <= 0 || opt.connect.empty())) {
    std::fprintf(stderr,
                 "partita_loadgen: --kill-after needs --kill-pid and --connect\n");
    return kExitUsage;
  }
  if (opt.repeat_fraction < 0 || opt.perturb_fraction < 0 ||
      opt.repeat_fraction + opt.perturb_fraction > 1.0) {
    std::fprintf(stderr,
                 "partita_loadgen: --repeat-fraction + --perturb-fraction must "
                 "stay within [0, 1]\n");
    return kExitUsage;
  }
  if (opt.repeat_fraction + opt.perturb_fraction > 0) opt.cache = true;
  const Scenario sc = scenario_defaults(opt.scenario, opt);

  std::vector<RunResult> runs;
  if (!opt.connect.empty()) {
    // Remote mode: ask the server which policy it runs for the record label.
    net::WireClient probe;
    std::string err;
    if (!probe.connect(opt.connect, &err)) {
      std::fprintf(stderr, "partita_loadgen: %s\n", err.c_str());
      return kExitConnect;
    }
    net::WireRequest s;
    s.verb = "stats";
    auto stats = probe.call(s, &err);
    const std::string label = stats && !stats->policy.empty() ? stats->policy : "remote";
    probe.close();
    // Kill-and-recover: a timer thread SIGKILLs the daemon mid-storm --
    // simulated power loss at an arbitrary point in the request stream.
    std::thread killer;
    if (opt.kill_after_ms > 0) {
      killer = std::thread([&opt] {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(opt.kill_after_ms));
        ::kill(static_cast<pid_t>(opt.kill_pid), SIGKILL);
        std::printf("partita_loadgen: SIGKILLed pid %ld after %.0fms\n",
                    opt.kill_pid, opt.kill_after_ms);
      });
    }
    runs.push_back(run_scenario(opt.connect, label, opt.scenario, sc, opt));
    if (killer.joinable()) killer.join();
  } else {
    for (const std::string& policy : opt.policies) {
      service::ServiceConfig cfg;
      cfg.workers = opt.workers;
      cfg.policy = policy;
      cfg.max_queue_depth = sc.queue_depth;
      cfg.cache_enabled = opt.cache;
      if (!service::SchedulerPolicy::create(policy, {})) {
        std::fprintf(stderr, "partita_loadgen: unknown policy '%s'\n", policy.c_str());
        return kExitUsage;
      }
      service::SolveService svc(cfg);
      net::WireServer server(svc);
      std::string err;
      if (!server.start(&err)) {
        std::fprintf(stderr, "partita_loadgen: %s\n", err.c_str());
        return kExitConnect;
      }
      runs.push_back(run_scenario(server.endpoint(), policy, opt.scenario, sc, opt));
      svc.drain();
      server.stop();
    }
  }

  std::printf("scenario=%s arrival=%s sessions=%d requests/session=%d cancel=%.2f\n",
              opt.scenario.c_str(), opt.arrival.c_str(), sc.sessions, sc.requests,
              sc.cancel_prob);
  for (const RunResult& r : runs) print_summary(r);

  int rc = 0;
  std::uint64_t lost = 0, interrupted = 0;
  for (const RunResult& r : runs) {
    lost += r.lost;
    interrupted += r.interrupted;
  }
  if (lost > 0) {
    std::fprintf(stderr, "partita_loadgen: FAILED: %llu lost terminal states\n",
                 static_cast<unsigned long long>(lost));
    rc = 1;
  }
  if (interrupted > 0) {
    std::printf("partita_loadgen: %llu requests interrupted by process death; "
                "settle them with --verify-journal after recovery\n",
                static_cast<unsigned long long>(interrupted));
  }

  if (opt.require_priority_win) {
    const RunResult* fifo = nullptr;
    const RunResult* prio = nullptr;
    for (const RunResult& r : runs) {
      if (r.policy == "fifo") fifo = &r;
      if (r.policy == "priority") prio = &r;
    }
    if (!fifo || !prio) {
      std::fprintf(stderr,
                   "partita_loadgen: --require-priority-win needs --policies "
                   "fifo,priority\n");
      rc = 1;
    } else {
      const double f = percentile(served_latencies(*fifo, service::kPriorityInteractive), 0.99);
      const double p = percentile(served_latencies(*prio, service::kPriorityInteractive), 0.99);
      std::printf("interactive p99: fifo %.2fms vs priority %.2fms (%.2fx)\n", f, p,
                  p > 0 ? f / p : 0.0);
      if (!(p < f)) {
        std::fprintf(stderr,
                     "partita_loadgen: FAILED: priority did not beat fifo on "
                     "interactive p99\n");
        rc = 1;
      }
    }
  }

  if (!opt.out_path.empty()) {
    if (!write_bench(opt.out_path, opt.scenario, opt.arrival, runs)) {
      std::fprintf(stderr, "partita_loadgen: cannot write %s\n", opt.out_path.c_str());
      rc = 1;
    } else {
      std::printf("wrote %s\n", opt.out_path.c_str());
    }
  }
  if (!opt.check_path.empty()) {
    rc = std::max(rc, check_baseline(opt.check_path, runs));
  }
  return rc;
}
