// perfbench -- the served selection pipeline under a frozen closed-loop load.
//
//   perfbench run --list FILE --seed N [--trace 0|1] [--trace-out FILE]
//                 [--socket PATH] [--seconds S]
//   perfbench freeze --workload NAME --out FILE [--tiny]
//
// `run` prints diagnostics lines and, last, one JSON object with `correct`,
// `attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). It exits 1 when any answer differs from
// the frozen expectation and 2 on unusable input. The op count is the
// list's, never a timer's: --seconds is the duration the list was sized
// for and is only reported. `freeze` regenerates a list and its expected
// answers (see README.md).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "lists.hpp"
#include "loop.hpp"
#include "oracle/exhaustive.hpp"
#include "replay.hpp"
#include "select/flow.hpp"
#include "spans.hpp"
#include "support/io.hpp"
#include "support/json.hpp"

using namespace perfbench;
namespace json = partita::support::json;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRounds = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear interpolation between order statistics.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

std::string metric(const std::string& name, double value, const std::string& unit) {
  return json::quote(name) + ":{\"value\":" + json::fmt_double(value) +
         ",\"unit\":" + json::quote(unit) + "}";
}

std::string number_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + json::fmt_double(v[i]);
  return out + "]";
}

std::string result_line(bool correct, long attempted, long failed,
                        const std::vector<std::string>& metrics) {
  std::string out = std::string("{\"correct\":") + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) out += (i ? "," : "") + metrics[i];
  return out + "}}";
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> f;
  for (int i = first; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) die("unexpected argument " + k);
    k = k.substr(2);
    if (k == "tiny") {
      f[k] = "1";
    } else if (i + 1 < argc) {
      f[k] = argv[++i];
    } else {
      die("--" + k + " needs a value");
    }
  }
  return f;
}

// --- run -------------------------------------------------------------------

struct Tally {
  long attempted = 0;
  long failed = 0;
  std::string first_error;
  std::vector<double> latencies;
  std::map<std::string, long> markers;
};

Tally tally(const std::vector<std::vector<OpResult>>& results) {
  Tally t;
  for (const auto& session : results) {
    for (const OpResult& r : session) {
      ++t.attempted;
      t.latencies.push_back(r.latency_ms);
      if (!r.ok) {
        ++t.failed;
        if (t.first_error.empty()) t.first_error = r.error;
      }
      for (const std::string& m : r.markers) ++t.markers[m.empty() ? "none" : m];
    }
  }
  return t;
}

int run(const std::map<std::string, std::string>& flags, Clock::time_point t_main) {
  auto flag = [&](const char* k, const std::string& d) {
    auto it = flags.find(k);
    return it == flags.end() ? d : it->second;
  };
  const std::string list_path = flag("list", "");
  const std::uint64_t seed = std::strtoull(flag("seed", "1").c_str(), nullptr, 10);
  const bool trace = flag("trace", "0") == "1";
  const std::string socket_path = flag("socket", "perfbench.sock");
  if (list_path.empty()) die("run needs --list");
  std::string error;
  FrozenList list;
  if (!load_list(list_path, &list, &error)) die(error);
  // The reported tail needs at least ten samples beyond its percentile.
  const double beyond =
      static_cast<double>(list.ops.size()) * (1.0 - list.tail_percentile / 100.0);

  // Set-up (list load + hash check, stack boot, warm-up) runs kSetupRounds
  // times; setup_s is the median. The first round also pays process start-up
  // from main() on, which the median then discounts.
  std::unique_ptr<Stack> stack;
  std::vector<double> setups;
  double warm_ops_s = 0.0, load_s = 0.0, boot_s = 0.0, warm_s = 0.0;
  bool warm_failed = false;
  for (int round = 0; round < kSetupRounds; ++round) {
    const Clock::time_point t0 = round == 0 ? t_main : Clock::now();
    stack.reset();
    if (!load_list(list_path, &list, &error)) die(error);
    if (!verify_hashes(list, &error)) die(error);
    load_s = seconds_since(t0);
    const Clock::time_point tb = Clock::now();
    stack = boot_stack(list, socket_path, 2);
    boot_s = seconds_since(tb);
    const Clock::time_point tw = Clock::now();
    const Tally warm = tally(run_closed_loop(*stack, list,
                                             session_streams(list, list.warmup, seed)));
    warm_s = seconds_since(tw);
    warm_ops_s = static_cast<double>(warm.attempted) / warm_s;
    if (warm.failed > 0) {
      warm_failed = true;
      std::fprintf(stderr, "perfbench: warm-up: %s\n", warm.first_error.c_str());
    }
    setups.push_back(seconds_since(t0));
  }

  const auto streams = session_streams(list, list.ops, seed);
  const double cpu0 = cpu_seconds();
  const long ivcs0 = involuntary_switches();
  const long long steal0 = steal_ticks();
  const double rss0 = rss_kb();
  const Clock::time_point t0 = Clock::now();
  const Tally t = tally(run_closed_loop(*stack, list, streams));
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  const double rss1 = rss_kb();
  const long long steal1 = steal_ticks();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const double n = static_cast<double>(t.attempted);
  const partita::service::ServiceStats stats = stack->svc->stats();

  std::string diag = "{\"diagnostics\":{\"workload\":" + json::quote(list.workload) +
                     ",\"seed\":" + std::to_string(seed) +
                     ",\"nproc\":" + std::to_string(nproc) +
                     ",\"steal_ticks\":" + std::to_string(steal1 - steal0) +
                     ",\"steal_share\":" +
                     json::fmt_double(static_cast<double>(steal1 - steal0) /
                                      (wall * static_cast<double>(sysconf(_SC_CLK_TCK)) *
                                       static_cast<double>(nproc))) +
                     ",\"involuntary_switches\":" +
                     std::to_string(involuntary_switches() - ivcs0) +
                     ",\"warmup_ops_s\":" + json::fmt_double(warm_ops_s) +
                     ",\"measured_s\":" + json::fmt_double(wall) +
                     ",\"sized_for_s\":" + json::quote(flag("seconds", "")) +
                     ",\"setup_rounds_s\":" + number_array(setups) +
                     ",\"last_setup_parts_s\":{\"load\":" + json::fmt_double(load_s) +
                     ",\"boot\":" + json::fmt_double(boot_s) +
                     ",\"warmup\":" + json::fmt_double(warm_s) + "}" +
                     ",\"tail_percentile\":" + std::to_string(list.tail_percentile) +
                     ",\"tail_samples\":" + std::to_string(t.attempted) +
                     ",\"tail_samples_beyond\":" + json::fmt_double(beyond) +
                     ",\"cache_markers\":{";
  bool first = true;
  for (const auto& [m, c] : t.markers) {
    diag += (first ? "" : ",") + json::quote(m) + ":" + std::to_string(c);
    first = false;
  }
  std::printf("%s}}}\n", diag.c_str());
  if (!t.first_error.empty()) std::fprintf(stderr, "perfbench: %s\n", t.first_error.c_str());

  const bool correct = t.failed == 0 && !warm_failed;
  if (!trace) {
    std::vector<std::string> m = {
        metric("setup_s", median(setups), "s"),
        metric("latency_p50_ms", percentile(t.latencies, 50.0), "ms"),
        metric("latency_tail_ms", percentile(t.latencies, list.tail_percentile), "ms"),
        metric("throughput_ops_s", n / wall, "1/s"),
        metric("cpu_ms_per_op", cpu * 1000.0 / n, "ms"),
        metric("success_ratio", (n - static_cast<double>(t.failed)) / n, "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    };
    std::printf("%s\n", result_line(correct, t.attempted, t.failed, m).c_str());
    return correct ? 0 : 1;
  }

  // Traced run: session 0's stream again, one op at a time, against a fresh
  // in-process service and a fresh wire stack, with every layer spanned.
  partita::service::SolveService local(service_config(list));
  std::unique_ptr<Stack> wire = boot_stack(list, socket_path + ".trace", 1);
  SpanLog log;
  const LayerTotals L = replay_traced(list, streams.front(), local, *wire, log);
  wire.reset();
  local.shutdown();
  const std::string trace_out = flag("trace-out", "");
  if (!trace_out.empty() &&
      !partita::support::io::write_file_atomic(trace_out, log.chrome_json(), false)) {
    die("cannot write " + trace_out);
  }
  if (!L.first_error.empty()) std::fprintf(stderr, "perfbench: %s\n", L.first_error.c_str());

  const double ops = std::max(1, L.ops);
  auto self = [&](const char* name) {
    auto it = L.self_ms.find(name);
    return it == L.self_ms.end() ? 0.0 : it->second / ops;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  long answers = 0;
  for (const auto& [name, c] : t.markers) answers += c;
  const auto marker = [&](const char* m) {
    auto it = t.markers.find(m);
    return static_cast<double>(it == t.markers.end() ? 0 : it->second);
  };
  std::vector<std::string> m = {
      metric("frontend.resolve_ms", self("frontend.resolve"), "ms"),
      metric("profile.profile_ms", self("profile.profile"), "ms"),
      metric("cdfg.paths_ms", self("cdfg.paths"), "ms"),
      metric("cdfg.paths", L.paths / ops, "count"),
      metric("isel.impdb_ms", self("isel.impdb"), "ms"),
      metric("isel.imps", L.imps / ops, "count"),
      metric("select.build_model_ms", self("select.build_model"), "ms"),
      metric("select.model_rows", ratio(L.rows, L.models), "count"),
      metric("select.model_cols", ratio(L.cols, L.models), "count"),
      metric("select.decode_ms", L.decode_ms / ops, "ms"),
      metric("ilp.solve_ms", self("ilp.solve"), "ms"),
      metric("ilp.gmax_ms", self("ilp.gmax"), "ms"),
      metric("ilp.nodes", static_cast<double>(L.nodes) / ops, "count"),
      metric("ilp.lp_iterations", static_cast<double>(L.lp_iterations) / ops, "count"),
      metric("ilp.waves", static_cast<double>(L.waves) / ops, "count"),
      metric("ilp.root_lp_share",
             ratio(static_cast<double>(L.root_lp_iterations), static_cast<double>(L.lp_iterations)),
             "ratio"),
      metric("ilp.warm_start_ratio",
             ratio(static_cast<double>(L.warm_starts),
                   static_cast<double>(L.warm_starts + L.cold_starts)),
             "ratio"),
      metric("ilp.cuts_applied_ratio",
             ratio(static_cast<double>(L.cuts_applied), static_cast<double>(L.cuts_separated)),
             "ratio"),
      metric("ilp.fingerprint_ms", self("ilp.fingerprint"), "ms"),
      metric("service.overhead_ms", L.service_overhead_ms / ops, "ms"),
      metric("service.retained_kb_per_op", (rss1 - rss0) / n, "KB"),
      metric("service.retries", static_cast<double>(stats.retries), "count"),
      metric("service.rejected", static_cast<double>(stats.rejected), "count"),
      metric("cache.hit_ratio", ratio(marker("hit"), static_cast<double>(answers)), "ratio"),
      metric("cache.neighbor_ratio", ratio(marker("neighbor"), static_cast<double>(answers)),
             "ratio"),
      metric("cache.seed_fallback_ratio",
             ratio(static_cast<double>(stats.cache_seed_fallbacks),
                   static_cast<double>(stats.cache_neighbor_seeds)),
             "ratio"),
      metric("cache.hit_ms", ratio(L.hit_ms, L.hits), "ms"),
      metric("cache.evictions", static_cast<double>(stats.cache_evictions), "count"),
      metric("net.codec_us", self("net.codec") * 1000.0, "us"),
      metric("net.overhead_ms", L.net_overhead_ms / ops, "ms"),
      metric("net.bytes_per_op", L.wire_bytes / ops, "B"),
      metric("trace.unattributed_ratio", 1.0 - ratio(L.attributed_ms, L.wire_ms), "ratio"),
      metric("trace.overhead_ratio",
             ratio(static_cast<double>(L.spans) / ops * span_cost_ms(), L.wire_ms / ops),
             "ratio"),
  };
  const bool traced_ok = correct && L.failed == 0;
  std::printf("%s\n", result_line(traced_ok, t.attempted + L.ops, t.failed + L.failed, m).c_str());
  return traced_ok ? 0 : 1;
}

// --- freeze ------------------------------------------------------------------

/// Expected answers of one request from a one-shot Flow (no service, no
/// cache), cross-checked by the exhaustive oracle where it finishes.
Request solve_request(const FrozenList& list, std::size_t inst, std::vector<std::int64_t> gains,
                      bool batch, std::int64_t* derived = nullptr) {
  const partita::workloads::Workload w = build_workload(list.instances[inst]);
  const partita::select::Flow flow(w.module, w.library);
  Request r;
  r.instance = inst;
  r.gains = gains;
  r.batch = batch;
  const auto t0 = Clock::now();
  if (!batch && gains.front() < 0) gains.front() = flow.max_feasible_gain() / 2;
  if (derived != nullptr) *derived = gains.front();
  std::vector<partita::select::Selection> sels;
  if (batch) {
    sels = flow.select_batch(gains);
  } else {
    sels.push_back(flow.select(gains.front()));
  }
  const double solve_s = seconds_since(t0);
  bool all_checked = true;
  for (std::size_t k = 0; k < sels.size(); ++k) {
    r.expect.push_back(expect_of(sels[k]));
    partita::oracle::OracleOptions oo;
    oo.max_visited = 2'000'000;
    const partita::oracle::OracleResult o = partita::oracle::exhaustive_select(
        flow.imp_database(), flow.library(), flow.entry_cdfg(), flow.paths(), gains[k], oo);
    if (!o.exhausted) {
      all_checked = false;
      continue;
    }
    if (o.feasible != sels[k].feasible ||
        (o.feasible && std::abs(o.total_area - sels[k].total_area()) >
                           1e-9 * std::max(1.0, o.total_area))) {
      die("oracle disagrees with the selector on instance " + std::to_string(inst) + " gain " +
          std::to_string(gains[k]));
    }
  }
  r.oracle = all_checked ? "agrees" : "skipped";
  std::fprintf(stderr, "  instance %zu gains %zu: %.1f ms (%s)\n", inst, gains.size(),
               solve_s * 1e3, r.oracle.c_str());
  return r;
}

std::size_t add_spec(FrozenList& list, std::uint64_t seed, int scalls, int kernels, int ips,
                     int groups, int depth) {
  Instance inst;
  partita::net::SpecRef s;
  s.seed = seed;
  s.scalls = scalls;
  s.kernels = kernels;
  s.ips = ips;
  s.branch_groups = groups;
  s.hierarchy_depth = depth;
  inst.spec = s;
  inst.text_hash = instance_text_hash(inst);
  list.instances.push_back(std::move(inst));
  return list.instances.size() - 1;
}

void freeze_paper_sweep(FrozenList& l, bool tiny) {
  l.cache = false;
  l.tail_percentile = tiny ? 50 : 90;
  l.trace_ops = tiny ? 1 : 8;
  const int sweeps = tiny ? 10 : 165;  // per session
  for (const char* app :
       {"gsm_encoder", "gsm_decoder", "jpeg_encoder", "adpcm_codec", "fig9", "fig10"}) {
    Instance inst;
    inst.builtin = app;
    inst.text_hash = instance_text_hash(inst);
    l.instances.push_back(inst);
    const std::size_t i = l.instances.size() - 1;
    const partita::workloads::Workload w = build_workload(inst);
    const std::int64_t gmax = partita::select::Flow(w.module, w.library).max_feasible_gain();
    std::vector<std::int64_t> ladder;
    for (int k = 1; k <= 8; ++k) ladder.push_back(gmax * k / 8);
    l.requests.push_back(solve_request(l, i, ladder, true));
  }
  std::vector<std::size_t> all = {0, 1, 2, 3, 4, 5};
  for (int s = 0; s < 2; ++s) {
    const std::string tenant = "s" + std::to_string(s);
    l.warmup.push_back({"warmup." + tenant, "sweep", all});
    for (int k = 0; k < sweeps; ++k) l.ops.push_back({tenant, "sweep", all});
  }
}

void freeze_spec_unique(FrozenList& l, bool tiny) {
  l.cache = false;
  l.tail_percentile = tiny ? 50 : 90;
  l.trace_ops = tiny ? 1 : 10;
  const int per_session = tiny ? 10 : 138;
  std::uint64_t seed = 1000;
  for (int s = 0; s < 2; ++s) {
    const std::string tenant = "s" + std::to_string(s);
    for (int k = 0; k < per_session + 1; ++k) {
      const std::size_t i = add_spec(l, ++seed, 20, 8, 10, 8, 1);
      l.requests.push_back(solve_request(l, i, {-1}, false));
      const std::vector<std::size_t> req = {l.requests.size() - 1};
      if (k == 0) {
        l.warmup.push_back({"warmup." + tenant, "unique", req});
      } else {
        l.ops.push_back({tenant, "unique", req});
      }
    }
  }
}

void freeze_spec_repeat(FrozenList& l, bool tiny) {
  l.cache = true;
  l.tail_percentile = tiny ? 50 : 90;
  l.trace_ops = tiny ? 10 : 120;
  // Per session: `firsts` cold misses, `hits` exact repeats, `neighbors`
  // gain-perturbed repeats. Shares 18/70/12: p50 sits deep inside the hits
  // and p90 inside the misses, away from both class boundaries.
  const int firsts = tiny ? 4 : 324;
  const int hits = tiny ? 14 : 1260;
  const int neighbors = tiny ? 2 : 216;
  std::uint64_t seed = 2000;
  for (int s = 0; s < 2; ++s) {
    const std::string tenant = "s" + std::to_string(s);
    auto session = [&](const std::string& who, int n_first, int n_hit, int n_nb,
                       std::vector<Op>& ops) {
      std::vector<std::size_t> first_req;
      std::vector<std::int64_t> derived;
      for (int k = 0; k < n_first; ++k) {
        const std::size_t i = add_spec(l, ++seed, 16, 6, 8, 6, 0);
        derived.push_back(0);
        l.requests.push_back(solve_request(l, i, {-1}, false, &derived.back()));
        first_req.push_back(l.requests.size() - 1);
        ops.push_back({who, "first", {first_req.back()}});
      }
      for (int k = 0; k < n_hit; ++k) {
        ops.push_back({who, "hit", {first_req[static_cast<std::size_t>(k % n_first)]}});
      }
      for (int k = 0; k < n_nb; ++k) {
        // Each perturbed gain is distinct, so every one misses its exact key
        // and is seeded from the cached first answer of its instance.
        const std::size_t f = static_cast<std::size_t>(k % n_first);
        const std::int64_t step = std::max<std::int64_t>(1, derived[f] / 16);
        const std::int64_t g = derived[f] + step * (1 + k / n_first);
        l.requests.push_back(solve_request(l, l.requests[first_req[f]].instance, {g}, false));
        ops.push_back({who, "neighbor", {l.requests.size() - 1}});
      }
    };
    session("warmup." + tenant, 2, 4, 2, l.warmup);
    session(tenant, firsts, hits, neighbors, l.ops);
  }
}

int freeze(const std::map<std::string, std::string>& flags) {
  auto it = flags.find("workload");
  auto out = flags.find("out");
  if (it == flags.end() || out == flags.end()) die("freeze needs --workload and --out");
  const bool tiny = flags.count("tiny") > 0;
  FrozenList l;
  l.workload = it->second;
  if (l.workload == "paper_sweep") {
    freeze_paper_sweep(l, tiny);
  } else if (l.workload == "spec_unique") {
    freeze_spec_unique(l, tiny);
  } else if (l.workload == "spec_repeat") {
    freeze_spec_repeat(l, tiny);
  } else {
    die("unknown workload " + l.workload);
  }
  if (!partita::support::io::write_file_atomic(out->second, render_list(l), false)) {
    die("cannot write " + out->second);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point t_main = Clock::now();
  if (argc < 2) die("usage: perfbench run|freeze [flags]");
  const std::map<std::string, std::string> flags = parse_flags(argc, argv, 2);
  if (std::strcmp(argv[1], "run") == 0) return run(flags, t_main);
  if (std::strcmp(argv[1], "freeze") == 0) return freeze(flags);
  die(std::string("unknown mode ") + argv[1]);
}
