// Whole-stack perf driver: one binary, one JSON record, the full hot path,
// all under the default solver configuration.
//
//   * end_to_end-- wall clock of an RG-ladder sweep per workload (the Fig. 9
//                  use case): one select_batch over the ladder, repeated
//                  kLadderRepeats times, reported as median and quartiles.
//                  Every repeat's answers are checked against untimed cold
//                  selects; a disagreement exits 2 (the answer gate);
//   * service   -- SolveService throughput and p50/p99 latency over a burst
//                  of requests (batched admission vs one-shot). A request
//                  that does not complete exits 2;
//   * cache     -- cross-request solution cache: median latency of exact
//                  repeats vs the cold solve, and LP-iteration savings from
//                  neighbor-seeded near-repeats. Every cached / seeded answer
//                  is checked bit-identical to a cold solve; a disagreement
//                  exits 2;
//   * durability-- cost of the write-ahead journal (docs/durability.md):
//                  closed-loop submit->complete p50/p99 against a journaled
//                  service vs a journal-less control (every request pays an
//                  fsynced admit + terminal record), gated at <10% + 2 ms
//                  overhead on the p50s and on the median paired per-round
//                  difference.
//
// Output: a partita-bench-v2 JSON record (schema in docs/benchmarks.md) at
// --out. Without --out a full run writes BENCH_<date>.json into the working
// directory, but exits 1 instead of replacing an existing one (the committed
// trajectory points carry that name); a --smoke run writes no file.
//
//   bench_all [--smoke] [--out <path>] [--check <baseline.json>]
//
// --smoke shrinks repetitions and workload sizes for CI;
// --check reads end_to_end.<scenario>.seconds_max from a committed baseline
// record and exits 1 when a scenario's median ladder time exceeds it, or
// when the baseline has no ceiling for a timed scenario (the CI gate).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_meta.hpp"
#include "durability_gate.hpp"
#include "select/flow.hpp"
#include "service/journal.hpp"
#include "service/solve_service.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using partita::bench::percentile_ms;
using partita::select::Flow;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Timed select_batch runs per end_to_end ladder (full / smoke).
constexpr int kLadderRepeats = 10;
constexpr int kLadderRepeatsSmoke = 5;

partita::workloads::Workload sized_workload(int sites, std::uint64_t seed) {
  partita::workloads::RandomWorkloadParams p;
  p.call_sites = sites;
  p.leaf_functions = std::max(3, sites / 3);
  p.ips = std::max(4, sites / 2);
  return partita::workloads::random_workload(p, seed);
}

struct Scenario {
  std::string name;
  partita::workloads::Workload workload;
};

std::vector<Scenario> scenarios(bool smoke) {
  std::vector<Scenario> out;
  out.push_back({"gsm_encoder", partita::workloads::gsm_encoder()});
  out.push_back({"gsm_decoder", partita::workloads::gsm_decoder()});
  out.push_back({"jpeg_encoder", partita::workloads::jpeg_encoder()});
  out.push_back({"random_24site", sized_workload(24, 4242)});
  if (!smoke) out.push_back({"random_48site", sized_workload(48, 4242)});
  return out;
}

// --- section results -------------------------------------------------------

struct EndToEndRow {
  std::string name;
  int items = 0;
  int repeats = 0;
  double seconds_median = 0.0;
  double seconds_q1 = 0.0;
  double seconds_q3 = 0.0;
  long long batch_hits = 0;    // per ladder
  long long cuts_applied = 0;  // per ladder
};

struct ServiceResult {
  int requests = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  long long amortized_hits = 0;
};

/// RG-ladder sweep: one select_batch over `steps` rungs, timed `repeats`
/// times. Each repeat's answers must match untimed cold selects.
EndToEndRow bench_end_to_end(const Scenario& sc, int steps, int repeats) {
  Flow flow(sc.workload.module, sc.workload.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  std::vector<std::int64_t> rgs;
  for (int k = 1; k <= steps; ++k) rgs.push_back(gmax * k / steps);

  std::vector<std::string> cold;
  cold.reserve(rgs.size());
  for (const std::int64_t rg : rgs) {
    cold.push_back(partita::select::solution_signature(flow.select(rg)));
  }

  EndToEndRow row;
  row.name = sc.name;
  row.items = steps;
  row.repeats = repeats;
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<partita::select::Selection> batched = flow.select_batch(rgs);
    seconds.push_back(seconds_since(t0));

    row.batch_hits = 0;
    row.cuts_applied = 0;
    for (std::size_t i = 0; i < batched.size(); ++i) {
      row.batch_hits += batched[i].solver.batch_hits;
      row.cuts_applied += batched[i].solver.cuts_applied;
      if (partita::select::solution_signature(batched[i]) != cold[i]) {
        std::fprintf(stderr,
                     "bench_all: ANSWER GATE: %s repeat %d item %zu: batched "
                     "answer differs from cold solve\n",
                     sc.name.c_str(), r, i);
        std::exit(2);
      }
    }
  }
  row.seconds_q1 = percentile_ms(seconds, 25);
  row.seconds_median = percentile_ms(seconds, 50);
  row.seconds_q3 = percentile_ms(seconds, 75);
  return row;
}

/// Burst of batched requests against a SolveService; per-item wait latency.
ServiceResult bench_service(bool smoke) {
  const int batches = smoke ? 2 : 4;
  const int items = smoke ? 3 : 6;

  partita::service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_queue_depth = 64;
  partita::service::SolveService service(cfg);

  ServiceResult res;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::uint64_t> tickets;
  std::vector<Clock::time_point> submit_times;
  for (int b = 0; b < batches; ++b) {
    partita::service::SolveRequest req;
    req.label = "bench_batch" + std::to_string(b);
    req.workload = sized_workload(12, 1000 + static_cast<std::uint64_t>(b));
    req.required_gains.assign(static_cast<std::size_t>(items), -1);
    for (const std::uint64_t t : service.submit(std::move(req)).tickets) {
      tickets.push_back(t);
      submit_times.push_back(Clock::now());
    }
  }
  std::vector<double> latencies_ms;
  latencies_ms.reserve(tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const partita::service::SolveResponse r = service.wait(tickets[i]);
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - submit_times[i])
            .count());
    if (r.state != partita::service::RequestState::kCompleted) {
      std::fprintf(stderr, "bench_all: service request %llu not completed\n",
                   static_cast<unsigned long long>(tickets[i]));
      std::exit(2);
    }
  }
  res.seconds = seconds_since(t0);
  res.requests = static_cast<int>(tickets.size());
  res.requests_per_sec = res.seconds > 0 ? res.requests / res.seconds : 0.0;
  res.p50_ms = percentile_ms(latencies_ms, 50);
  res.p99_ms = percentile_ms(latencies_ms, 99);
  res.amortized_hits =
      static_cast<long long>(service.stats().batch_amortized_hits);
  service.shutdown();
  return res;
}

struct CacheResult {
  int repeats = 0;
  double cold_ms_median = 0.0;
  double warm_ms_median = 0.0;
  double repeat_speedup = 0.0;
  long long cold_lp_iterations = 0;
  long long seeded_lp_iterations = 0;
  long long cold_nodes = 0;
  long long seeded_nodes = 0;
  double iteration_savings = 0.0;  // fraction of near-repeat LP work avoided
  double node_savings = 0.0;       // fraction of near-repeat B&B nodes avoided
  long long hits = 0;
  long long neighbor_seeds = 0;
};

/// Exact-repeat and near-repeat traffic against a cache-enabled service.
///
/// Exact repeats: the same (workload, gain) request over and over; the first
/// is the cold solve, the rest must be served as "hit" at a fraction of the
/// latency. Near repeats: a gain a step away from a cached entry; the solve
/// is seeded from the neighbor's exported basis/pseudo-costs and must spend
/// fewer LP iterations than the cold solve of the same instance.
CacheResult bench_cache(bool smoke) {
  const int repeats = smoke ? 6 : 24;

  partita::service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_queue_depth = 64;
  cfg.cache_enabled = true;
  partita::service::SolveService service(cfg);

  CacheResult res;
  res.repeats = repeats;
  std::vector<double> cold_ms, warm_ms;

  // One submit-and-wait round trip; the answer gate compares against the
  // caller's cold signature.
  const auto round_trip = [&](const partita::workloads::Workload& w,
                              std::int64_t gain, const std::string& cold_sig,
                              const char* what) {
    partita::service::SolveRequest req;
    req.label = "bench_cache";
    req.workload = w;
    req.required_gains = {gain};
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t ticket = service.submit(std::move(req)).ticket();
    const partita::service::SolveResponse r = service.wait(ticket);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (r.state != partita::service::RequestState::kCompleted) {
      std::fprintf(stderr, "bench_all: cache %s request not completed\n", what);
      std::exit(2);
    }
    if (partita::select::solution_signature(r.selection) != cold_sig) {
      std::fprintf(stderr,
                   "bench_all: ANSWER GATE: cache %s answer differs from cold "
                   "solve (marker '%s')\n",
                   what, r.cache.c_str());
      std::exit(2);
    }
    return std::make_pair(ms, r);
  };

  for (const Scenario& sc : scenarios(true)) {  // seed apps only; sized for ms
    Flow flow(sc.workload.module, sc.workload.library);
    const std::int64_t gain = flow.max_feasible_gain() / 2;

    // Exact repeats. Cold reference outside the service, then the first
    // request populates the cache and every repeat must hit it.
    const partita::select::Selection cold = flow.select(gain);
    const std::string sig = partita::select::solution_signature(cold);
    cold_ms.push_back(round_trip(sc.workload, gain, sig, "cold").first);
    for (int r = 0; r < repeats; ++r)
      warm_ms.push_back(round_trip(sc.workload, gain, sig, "repeat").first);

    // Near repeat: one gain step away from the entry just cached.
    const std::int64_t near_gain = gain - std::max<std::int64_t>(1, gain / 256);
    const partita::select::Selection near_cold = flow.select(near_gain);
    res.cold_lp_iterations += near_cold.solver.lp_iterations;
    res.cold_nodes += near_cold.solver.nodes;
    const auto [ms, r] =
        round_trip(sc.workload, near_gain,
                   partita::select::solution_signature(near_cold), "near");
    (void)ms;
    res.seeded_lp_iterations += r.selection.solver.lp_iterations;
    res.seeded_nodes += r.selection.solver.nodes;
  }

  res.cold_ms_median = percentile_ms(cold_ms, 50);
  res.warm_ms_median = percentile_ms(warm_ms, 50);
  res.repeat_speedup =
      res.warm_ms_median > 0 ? res.cold_ms_median / res.warm_ms_median : 0.0;
  res.iteration_savings =
      res.cold_lp_iterations > 0
          ? 1.0 - static_cast<double>(res.seeded_lp_iterations) /
                      static_cast<double>(res.cold_lp_iterations)
          : 0.0;
  res.node_savings =
      res.cold_nodes > 0 ? 1.0 - static_cast<double>(res.seeded_nodes) /
                                     static_cast<double>(res.cold_nodes)
                         : 0.0;
  const partita::service::ServiceStats st = service.stats();
  res.hits = static_cast<long long>(st.cache_hits);
  res.neighbor_seeds = static_cast<long long>(st.cache_neighbor_seeds);
  service.shutdown();
  return res;
}

struct DurabilityResult {
  // Journal overhead: closed-loop submit->complete latency, journaled vs not.
  int requests = 0;
  double plain_p50_ms = 0.0;
  double plain_p99_ms = 0.0;
  double journaled_p50_ms = 0.0;
  double journaled_p99_ms = 0.0;
  double overhead_p50 = 0.0;  // journaled / plain
  double overhead_p99 = 0.0;
  double paired_diff_p50_ms = 0.0;  // median per-round journaled - plain
  double gate_bound_ms = 0.0;
  long long admits = 0;
  long long terminals = 0;
  bool gate_failed = false;
};

/// One closed-loop round trip; submit->complete latency in ms. A non-empty
/// payload is the envelope the wire front end would persist -- the service
/// treats it as opaque bytes, so a representative blob prices the append
/// honestly.
double durability_round_trip(partita::service::SolveService& service,
                             const partita::workloads::Workload& w,
                             std::int64_t gain, int i, bool journaled) {
  partita::service::SolveRequest req;
  req.label = "durability" + std::to_string(i);
  req.workload = w;
  req.required_gains = {gain};
  if (journaled) {
    req.journal_payload =
        "{\"v\": \"partita-wire-v1\", \"verb\": \"submit\", \"workload\": \"" +
        w.name + "\", \"required_gain\": " + std::to_string(gain) +
        ", \"label\": " + "\"" + req.label + "\"}";
  }
  const Clock::time_point t0 = Clock::now();
  const partita::service::SubmitOutcome sub = service.submit(std::move(req));
  if (!sub.admitted()) {
    std::fprintf(stderr, "bench_all: durability request %d rejected: %s\n", i,
                 sub.reject_reason.c_str());
    std::exit(1);
  }
  const partita::service::SolveResponse r = service.wait(sub.ticket());
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (r.state != partita::service::RequestState::kCompleted) {
    std::fprintf(stderr, "bench_all: durability request %d not completed\n", i);
    std::exit(1);
  }
  return ms;
}

void remove_journal_dir(const std::string& dir) {
  for (const std::string& name : partita::support::io::list_dir(dir)) {
    partita::support::io::remove_file(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

/// Write-ahead-journal overhead.
DurabilityResult bench_durability(bool smoke) {
  DurabilityResult res;
  res.requests = smoke ? 24 : 64;

  // Closed loop so every latency sample carries the request's
  // full durable cost: one fsynced admit record before acknowledgment plus
  // one fsynced terminal record before completion. The two legs are held
  // open side by side and the request stream alternates between them (order
  // flipping each round), so machine-load noise lands on both and the gate
  // (durability_gate.hpp) compares paired rounds rather than run-vs-run.
  const partita::workloads::Workload w = sized_workload(smoke ? 20 : 28, 777);
  Flow flow(w.module, w.library);
  const std::int64_t gain = flow.max_feasible_gain() / 2;

  const std::string jdir =
      "bench_journal_tmp." + std::to_string(static_cast<long>(::getpid()));
  partita::service::Journal journal;
  partita::service::Journal::Config jc;
  jc.dir = jdir;
  if (!journal.open(jc)) {
    std::fprintf(stderr, "bench_all: cannot open journal in %s\n", jdir.c_str());
    std::exit(1);
  }
  std::vector<double> plain, journaled;
  plain.reserve(static_cast<std::size_t>(res.requests));
  journaled.reserve(static_cast<std::size_t>(res.requests));
  {
    partita::service::ServiceConfig pcfg;
    pcfg.workers = 2;
    pcfg.max_queue_depth = 64;
    partita::service::ServiceConfig jcfg = pcfg;
    jcfg.journal = &journal;
    partita::service::SolveService plain_svc(pcfg);
    partita::service::SolveService journaled_svc(jcfg);
    for (int i = 0; i < res.requests; ++i) {
      if (i % 2 == 0) {
        plain.push_back(durability_round_trip(plain_svc, w, gain, i, false));
        journaled.push_back(durability_round_trip(journaled_svc, w, gain, i, true));
      } else {
        journaled.push_back(durability_round_trip(journaled_svc, w, gain, i, true));
        plain.push_back(durability_round_trip(plain_svc, w, gain, i, false));
      }
    }
    journaled_svc.shutdown();
    plain_svc.shutdown();
  }
  const partita::service::JournalStats jstats = journal.stats();
  journal.close();
  remove_journal_dir(jdir);

  const partita::bench::DurabilityGate gate =
      partita::bench::durability_gate(plain, journaled);
  res.plain_p50_ms = gate.plain_p50_ms;
  res.plain_p99_ms = percentile_ms(plain, 99);
  res.journaled_p50_ms = gate.journaled_p50_ms;
  res.journaled_p99_ms = percentile_ms(journaled, 99);
  res.paired_diff_p50_ms = gate.paired_diff_p50_ms;
  res.gate_bound_ms = gate.bound_ms;
  res.gate_failed = gate.failed();
  res.overhead_p50 =
      res.plain_p50_ms > 0 ? res.journaled_p50_ms / res.plain_p50_ms : 0.0;
  res.overhead_p99 =
      res.plain_p99_ms > 0 ? res.journaled_p99_ms / res.plain_p99_ms : 0.0;
  res.admits = static_cast<long long>(jstats.admits);
  res.terminals = static_cast<long long>(jstats.terminals);

  return res;
}

// --- JSON ------------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string render_json(const partita::bench::MachineMeta& meta, bool smoke,
                        const std::vector<EndToEndRow>& e2e,
                        const ServiceResult& svc, const CacheResult& cache,
                        const DurabilityResult& dur) {
  std::ostringstream os;
  os << "{\n  \"metadata\": " << partita::bench::meta_json(meta) << ",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";

  os << "  \"end_to_end\": {";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    os << (i ? ", " : "") << "\"" << e2e[i].name << "\": {\"items\": " << e2e[i].items
       << ", \"repeats\": " << e2e[i].repeats
       << ", \"seconds_median\": " << fmt(e2e[i].seconds_median)
       << ", \"seconds_q1\": " << fmt(e2e[i].seconds_q1)
       << ", \"seconds_q3\": " << fmt(e2e[i].seconds_q3)
       << ", \"batch_hits\": " << e2e[i].batch_hits
       << ", \"cuts_applied\": " << e2e[i].cuts_applied << "}";
  }
  os << "},\n";

  os << "  \"service\": {\"requests\": " << svc.requests
     << ", \"seconds\": " << fmt(svc.seconds)
     << ", \"requests_per_sec\": " << fmt(svc.requests_per_sec)
     << ", \"p50_ms\": " << fmt(svc.p50_ms) << ", \"p99_ms\": " << fmt(svc.p99_ms)
     << ", \"amortized_hits\": " << svc.amortized_hits << "},\n";

  os << "  \"cache\": {\"repeats\": " << cache.repeats
     << ", \"cold_ms_median\": " << fmt(cache.cold_ms_median)
     << ", \"warm_ms_median\": " << fmt(cache.warm_ms_median)
     << ", \"repeat_speedup\": " << fmt(cache.repeat_speedup)
     << ", \"cold_lp_iterations\": " << cache.cold_lp_iterations
     << ", \"seeded_lp_iterations\": " << cache.seeded_lp_iterations
     << ", \"iteration_savings\": " << fmt(cache.iteration_savings)
     << ", \"cold_nodes\": " << cache.cold_nodes
     << ", \"seeded_nodes\": " << cache.seeded_nodes
     << ", \"node_savings\": " << fmt(cache.node_savings)
     << ", \"hits\": " << cache.hits
     << ", \"neighbor_seeds\": " << cache.neighbor_seeds << "},\n";

  os << "  \"durability\": {\"requests\": " << dur.requests
     << ", \"plain_p50_ms\": " << fmt(dur.plain_p50_ms)
     << ", \"plain_p99_ms\": " << fmt(dur.plain_p99_ms)
     << ", \"journaled_p50_ms\": " << fmt(dur.journaled_p50_ms)
     << ", \"journaled_p99_ms\": " << fmt(dur.journaled_p99_ms)
     << ", \"overhead_p50\": " << fmt(dur.overhead_p50)
     << ", \"overhead_p99\": " << fmt(dur.overhead_p99)
     << ", \"paired_diff_p50_ms\": " << fmt(dur.paired_diff_p50_ms)
     << ", \"gate_bound_ms\": " << fmt(dur.gate_bound_ms)
     << ", \"admits\": " << dur.admits << ", \"terminals\": " << dur.terminals
     << "}\n";
  os << "}\n";
  return os.str();
}

/// The CI gate: every timed scenario's median must stay at or under the
/// baseline's end_to_end.<scenario>.seconds_max. A scenario the baseline
/// has no ceiling for fails the gate rather than passing unchecked.
int check_baseline(const std::vector<EndToEndRow>& e2e,
                   const std::string& baseline_path) {
  namespace json = partita::support::json;
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "bench_all: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  const std::optional<json::Value> doc = json::parse(ss.str(), &err);
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "bench_all: bad baseline %s: %s\n", baseline_path.c_str(),
                 err.c_str());
    return 1;
  }
  const json::Object* ceilings = json::object_or_null(doc->object(), "end_to_end");
  int failures = 0;
  for (const EndToEndRow& row : e2e) {
    const json::Object* sc =
        ceilings ? json::object_or_null(*ceilings, row.name.c_str()) : nullptr;
    const double ceiling = sc ? json::num_or(*sc, "seconds_max", -1) : -1;
    if (ceiling <= 0) {
      std::fprintf(stderr,
                   "bench_all: GATE FAILED: baseline lacks end_to_end.%s.seconds_max\n",
                   row.name.c_str());
      ++failures;
      continue;
    }
    std::printf("gate end_to_end.%s: median %.6gs, ceiling %.6gs\n",
                row.name.c_str(), row.seconds_median, ceiling);
    if (row.seconds_median > ceiling) {
      std::fprintf(stderr,
                   "bench_all: REGRESSION: end_to_end.%s median %.6gs over "
                   "ceiling %.6gs\n",
                   row.name.c_str(), row.seconds_median, ceiling);
      ++failures;
    }
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_all [--smoke] [--out <path>] [--check <baseline>]\n");
      return 1;
    }
  }

  const partita::bench::MachineMeta meta = partita::bench::collect_machine_meta();
  if (out_path.empty() && !smoke) {
    out_path = "BENCH_" + meta.date + ".json";
    if (std::ifstream(out_path).good()) {
      std::fprintf(stderr,
                   "bench_all: %s exists and is not replaced; pass --out <path>\n",
                   out_path.c_str());
      return 1;
    }
  }

  const int sweep_steps = smoke ? 4 : 8;
  const int repeats = smoke ? kLadderRepeatsSmoke : kLadderRepeats;

  std::vector<EndToEndRow> e2e;
  for (const Scenario& sc : scenarios(smoke)) {
    e2e.push_back(bench_end_to_end(sc, sweep_steps, repeats));
    const EndToEndRow& row = e2e.back();
    std::printf("e2e %-14s median %.4fs (q1 %.4fs, q3 %.4fs) over %d ladders "
                "(%lld batch hits)\n",
                sc.name.c_str(), row.seconds_median, row.seconds_q1,
                row.seconds_q3, row.repeats, row.batch_hits);
  }

  const ServiceResult svc = bench_service(smoke);
  std::printf("service %d requests %.2f req/s  p50 %.1fms  p99 %.1fms\n",
              svc.requests, svc.requests_per_sec, svc.p50_ms, svc.p99_ms);

  const CacheResult cache = bench_cache(smoke);
  std::printf(
      "cache repeat %.3fms -> %.3fms (%.1fx), near-repeat lp iters %lld -> "
      "%lld (%.1f%% saved), nodes %lld -> %lld (%.1f%% saved), %lld hits / "
      "%lld neighbor seeds\n",
      cache.cold_ms_median, cache.warm_ms_median, cache.repeat_speedup,
      cache.cold_lp_iterations, cache.seeded_lp_iterations,
      cache.iteration_savings * 100.0, cache.cold_nodes, cache.seeded_nodes,
      cache.node_savings * 100.0, cache.hits, cache.neighbor_seeds);

  const DurabilityResult dur = bench_durability(smoke);
  std::printf(
      "durability submit->complete p50 %.2fms -> %.2fms (%.2fx) p99 %.2fms -> "
      "%.2fms (%.2fx), paired median +%.2fms (bound %.2fms), %lld admits / "
      "%lld terminals journaled\n",
      dur.plain_p50_ms, dur.journaled_p50_ms, dur.overhead_p50, dur.plain_p99_ms,
      dur.journaled_p99_ms, dur.overhead_p99, dur.paired_diff_p50_ms,
      dur.gate_bound_ms, dur.admits, dur.terminals);

  if (!out_path.empty()) {
    std::ofstream(out_path) << render_json(meta, smoke, e2e, svc, cache, dur);
    std::printf("wrote %s\n", out_path.c_str());
  }

  int rc = 0;
  if (dur.gate_failed) {
    std::fprintf(stderr,
                 "bench_all: REGRESSION: journal overhead on submit->complete "
                 "exceeds 10%% + 2ms (p50 %.2fx, paired median +%.2fms vs "
                 "bound %.2fms)\n",
                 dur.overhead_p50, dur.paired_diff_p50_ms, dur.gate_bound_ms);
    rc = 1;
  }
  if (!check_path.empty()) rc = std::max(rc, check_baseline(e2e, check_path));
  return rc;
}
