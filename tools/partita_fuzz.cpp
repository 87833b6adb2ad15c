// partita_fuzz: differential fuzzing front-end for the selection oracle.
//
// Generates seeded random selection instances, runs each through both the
// exhaustive oracle and the production ILP selector, and fails loudly on any
// divergence. On a mismatch the offending instance is delta-debugged to a
// minimal repro and dumped as a JSON fixture that `--replay` loads back.
// Exact mode checks every instance under Problem 2 and Problem 1, at the
// derived gain and at gains 1-3, and also checks the derived gain: wherever
// the oracle exhausts, it must be feasible at Flow::max_feasible_gain and
// infeasible one above; the summary line counts those "max-gain checked".
//
//   partita_fuzz --instances 500 --seed 1 --scalls 8        # exact mode
//   partita_fuzz --mode sandwich --instances 100 --scalls 18
//   partita_fuzz --mode cache --instances 500 --seed 1      # cache consistency
//   partita_fuzz --mode batch --instances 100 --seed 1      # batch ladders
//   partita_fuzz --replay tests/fixtures/shrunk.json
//
// `--mode cache` is the cache-consistency harness (docs/caching.md): it
// streams a mix of fresh, exact-duplicate, option-flipped (same spec and
// gain under problem 1, a power cap or a retry rung's node budget),
// RHS-perturbed (same structure, shifted required gain) and
// permuted-but-equivalent (IP library reordered) instances through a
// cache-enabled service::SolveService, and checks every answer -- hit,
// neighbor-seeded or miss -- bit-identically against a cold one-shot
// Flow::select of the same instance under the same options
// (select::solution_signature). Permuted duplicates additionally
// cross-check feasibility and optimal area against the original's cold
// answer. A divergence is ddmin-shrunk and dumped as a replayable fixture
// like exact mode.
//
// `--mode batch` checks Selector::select_batch, which solves a ladder
// hardest-first and carries each optimum into the next item: every random
// spec's shuffled gain ladder (eight steps up to the max feasible gain plus
// one infeasible item) must answer item for item bit-identically to cold
// one-shot Flow::select calls. The same ladder is also served by a
// cache-off service::SolveService, once as one multi-gain submit and once
// as one-item submits, and every ticket must match the cold answer too. A
// divergence is shrunk and dumped likewise.
//
// Exit codes: 0 all instances agree, 1 divergence found, 2 usage error.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "oracle/differential.hpp"
#include "oracle/fixture.hpp"
#include "oracle/shrink.hpp"
#include "select/flow.hpp"
#include "service/journal.hpp"
#include "service/solve_service.hpp"
#include "support/strings.hpp"
#include "workloads/random_workload.hpp"

namespace {

using namespace partita;

struct Args {
  int instances = 100;
  std::uint64_t seed = 1;
  int scalls = 6;
  int kernels = 4;
  int ips = 5;
  int branch_groups = 1;
  int hierarchy = 0;  // max wrapper depth
  std::string mode = "exact";
  bool shrink = true;
  std::string fixture_dir = ".";
  std::string replay;
};

void usage() {
  std::fprintf(stderr,
               "usage: partita_fuzz [--instances N] [--seed S] [--scalls N]\n"
               "                    [--kernels N] [--ips N] [--branch-groups N]\n"
               "                    [--hierarchy DEPTH]\n"
               "                    [--mode exact|sandwich|cache|batch]\n"
               "                    [--no-shrink] [--fixture-dir DIR]\n"
               "                    [--replay FIXTURE.json]\n");
}

/// The differential check under Problem 2, then Problem 1 (a fixture carries
/// no problem flag, so its replay runs both): the first result that is not
/// ok, its detail prefixed with the problem, else the Problem 1 result.
oracle::DiffResult differential_check_both(const workloads::InstanceSpec& spec) {
  oracle::DiffResult r;
  for (const bool problem2 : {true, false}) {
    r = oracle::differential_check_spec(spec, {.problem2 = problem2});
    if (!r.ok) {
      r.detail = (problem2 ? "problem 2: " : "problem 1: ") + r.detail;
      break;
    }
  }
  return r;
}

// Accepts both fixture formats: a CRC-framed partita-journal-v1 quarantine
// record (what the journaling service writes) and bare fixture JSON (what
// dump_repro writes) -- read_quarantine_file dispatches on the frame magic.
int replay_fixture(const std::string& path) {
  std::string error;
  std::string doc;
  if (!service::Journal::read_quarantine_file(path, &doc, &error)) {
    std::fprintf(stderr, "partita_fuzz: cannot read fixture %s: %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }
  const auto spec = oracle::parse_fixture(doc, &error);
  if (!spec) {
    std::fprintf(stderr, "partita_fuzz: cannot load fixture %s: %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }
  const oracle::DiffResult r = differential_check_both(*spec);
  std::printf("fixture %s: rg=%lld oracle=%s/%.4f ilp=%s/%.4f (%s)\n", path.c_str(),
              static_cast<long long>(r.required_gain),
              r.oracle_feasible ? "feasible" : "infeasible", r.oracle_area,
              r.ilp_feasible ? "feasible" : "infeasible", r.ilp_area,
              r.ok ? "agree" : r.detail.c_str());
  return r.ok ? 0 : 1;
}

workloads::InstanceGenParams gen_params(const Args& args) {
  workloads::InstanceGenParams p;
  p.scalls = args.scalls;
  p.kernels = args.kernels;
  p.ips = args.ips;
  p.branch_groups = args.branch_groups;
  p.max_hierarchy_depth = args.hierarchy;
  return p;
}

/// Writes a diverging spec to <fixture-dir>/<name>.json, first shrunk while
/// `failing` still holds (unless --no-shrink).
void dump_repro(const Args& args, const workloads::InstanceSpec& spec,
                const oracle::FailurePredicate& failing, const std::string& name) {
  workloads::InstanceSpec repro = spec;
  if (args.shrink && failing(spec)) {
    oracle::ShrinkStats stats;
    repro = oracle::shrink_spec(spec, failing, &stats);
    std::fprintf(stderr, "  shrunk to %zu sites / %zu ips (%d probes)\n",
                 repro.sites.size(), repro.ips.size(), stats.predicate_calls);
  }
  const std::string path = args.fixture_dir + "/" + name + ".json";
  if (oracle::write_fixture(path, repro)) {
    std::fprintf(stderr, "  fixture written to %s\n", path.c_str());
  }
}

/// The derived gain against the oracle: feasible at max_feasible_gain and
/// infeasible one above. Empty when both hold or the oracle's guard struck;
/// `checked` says whether it answered at both gains.
std::string max_gain_divergence(const workloads::InstanceSpec& spec, bool* checked) {
  const workloads::Workload wl = workloads::spec_workload(spec);
  const select::Flow flow(wl.module, wl.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  for (const std::int64_t g : {gmax, gmax + 1}) {
    const oracle::OracleResult o = oracle::exhaustive_select(
        flow.imp_database(), flow.library(), flow.entry_cdfg(), flow.paths(), g);
    if (!o.exhausted) return "";
    if (o.feasible != (g == gmax)) {
      return "max_feasible_gain " + std::to_string(gmax) + " but the oracle is " +
             (o.feasible ? "feasible" : "infeasible") + " at " + std::to_string(g);
    }
  }
  *checked = true;
  return "";
}

/// Exact mode's verdict on one spec: the differential check at the derived
/// gain and at gains 1-3, then the derived gain itself. Empty when all agree
/// or the oracle's guard struck; `skipped` / `gain_checked` say which. A
/// differential divergence sets `*replayable` to the spec at the gain that
/// diverged, the one check --replay runs.
std::string exact_divergence(const workloads::InstanceSpec& spec, bool* skipped,
                             bool* gain_checked,
                             std::optional<workloads::InstanceSpec>* replayable = nullptr) {
  const std::int64_t own = spec.required_gain;
  for (const std::int64_t rg : {own, std::int64_t{1}, std::int64_t{2}, std::int64_t{3}}) {
    workloads::InstanceSpec at = spec;
    at.required_gain = rg;
    const oracle::DiffResult r = differential_check_both(at);
    if (r.skipped && rg == own) {
      *skipped = true;
      return "";
    }
    if (r.ok || r.skipped) continue;
    if (replayable) *replayable = at;
    return (rg == own ? "" : "rg " + std::to_string(rg) + ": ") + r.detail;
  }
  return max_gain_divergence(spec, gain_checked);
}

int run_exact(const Args& args) {
  const workloads::InstanceGenParams params = gen_params(args);
  int failures = 0, skipped = 0, gain_checked = 0;
  for (int i = 0; i < args.instances; ++i) {
    const std::uint64_t seed = args.seed + static_cast<std::uint64_t>(i);
    const workloads::InstanceSpec spec = workloads::random_instance_spec(params, seed);
    bool guard = false, checked = false;
    std::optional<workloads::InstanceSpec> replayable;
    const std::string detail = exact_divergence(spec, &guard, &checked, &replayable);
    skipped += guard;
    gain_checked += checked;
    if (detail.empty()) continue;
    ++failures;
    std::fprintf(stderr, "seed %llu DIVERGES: %s\n",
                 static_cast<unsigned long long>(seed), detail.c_str());
    dump_repro(
        args, replayable.value_or(spec),
        [&](const workloads::InstanceSpec& s) {
          bool g = false, c = false;
          if (!replayable) return !exact_divergence(s, &g, &c).empty();
          const oracle::DiffResult r = differential_check_both(s);
          return !r.ok && !r.skipped;
        },
        "fuzz_seed" + std::to_string(seed));
  }
  std::printf("partita_fuzz exact: %d instances, %d skipped (guard), %d max-gain checked, "
              "%d divergences\n",
              args.instances, skipped, gain_checked, failures);
  return failures ? 1 : 0;
}

int run_sandwich(const Args& args) {
  const workloads::InstanceGenParams params = gen_params(args);
  int failures = 0;
  for (int i = 0; i < args.instances; ++i) {
    const std::uint64_t seed = args.seed + static_cast<std::uint64_t>(i);
    const workloads::InstanceSpec spec = workloads::random_instance_spec(params, seed);
    const workloads::Workload wl = workloads::spec_workload(spec);
    const oracle::SandwichResult r = oracle::sandwich_check(wl);
    if (r.ok) continue;
    ++failures;
    std::fprintf(stderr, "seed %llu BOUNDS VIOLATED: %s\n",
                 static_cast<unsigned long long>(seed), r.detail.c_str());
  }
  std::printf("partita_fuzz sandwich: %d instances, %d violations\n", args.instances,
              failures);
  return failures ? 1 : 0;
}

// --- cache consistency mode -------------------------------------------------

std::uint64_t splitmix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Reorders the spec's IP library with a seeded Fisher-Yates shuffle: the
/// instance is mathematically equivalent, but IMP enumeration order -- and
/// therefore the ILP's column order -- changes, so its canonical optimum may
/// legitimately differ in the chosen set while agreeing on feasibility and
/// optimal area.
workloads::InstanceSpec permute_spec(const workloads::InstanceSpec& spec,
                                     std::uint64_t seed) {
  workloads::InstanceSpec p = spec;
  for (std::size_t i = p.ips.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(splitmix(&seed) % i);
    std::swap(p.ips[i - 1], p.ips[j]);
  }
  return p;
}

/// Cold one-shot reference for a spec at a literal gain under `opt`.
/// Returns false when the spec does not pass Flow verification (then it
/// cannot be submitted either).
bool cold_reference(const workloads::InstanceSpec& spec, std::int64_t gain,
                    const select::SelectOptions& opt, select::Selection* out) {
  const workloads::Workload wl = workloads::spec_workload(spec);
  const auto flow = select::Flow::create(wl.module, wl.library);
  if (!flow.ok()) return false;
  *out = flow.value()->select(gain, opt);
  return true;
}

/// The shrink predicate: does a cache-enabled service diverge from a cold
/// solve on this spec under `opt` (using spec.required_gain as the literal
/// gain)? Runs the smallest stream that exercises every cache path: miss
/// (insert), exact hit, and a neighbor-seeded near-miss at gain-1.
bool cache_inconsistent(const workloads::InstanceSpec& spec,
                        const select::SelectOptions& opt) {
  if (!workloads::spec_valid(spec)) return false;
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_enabled = true;
  service::SolveService svc(cfg);
  const auto diverges = [&](std::int64_t gain) {
    select::Selection cold;
    if (!cold_reference(spec, gain, opt, &cold)) return false;
    service::SolveRequest req;
    req.workload = workloads::spec_workload(spec);
    req.required_gains = {gain};
    req.options = opt;
    const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());
    return r.state != service::RequestState::kCompleted ||
           select::solution_signature(r.selection) != select::solution_signature(cold);
  };
  const std::int64_t gain = spec.required_gain;
  return diverges(gain) || diverges(gain) || (gain > 1 && diverges(gain - 1));
}

int run_cache(const Args& args) {
  const workloads::InstanceGenParams params = gen_params(args);
  std::uint64_t rng = args.seed * 0x9e3779b97f4a7c15ULL + 1;

  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.cache_enabled = true;
  // Small enough that long streams also exercise eviction + re-insert.
  cfg.cache_capacity = 64;
  service::SolveService svc(cfg);

  /// One issued instance the stream can replay against later, with the
  /// options it was solved under and its cold answer.
  struct Issued {
    workloads::InstanceSpec spec;
    std::int64_t gain = 0;
    select::SelectOptions opt;
    std::string cold_signature;
    bool cold_feasible = false;
    double cold_area = 0.0;
    double cold_power = 0.0;
  };
  std::vector<Issued> history;

  int failures = 0, skipped = 0;
  int fresh = 0, duplicates = 0, flipped = 0, perturbed = 0, permuted = 0;
  int hits = 0, neighbors = 0, misses = 0;

  for (int i = 0; i < args.instances; ++i) {
    workloads::InstanceSpec spec;
    std::int64_t gain = 0;
    select::SelectOptions opt;
    const Issued* base = nullptr;
    bool is_permuted = false;
    bool is_flipped = false;

    const std::uint64_t roll = history.empty() ? 0 : splitmix(&rng) % 100;
    if (history.empty() || roll < 35) {
      // Fresh instance: resolve a mid-range gain from a cold max-gain probe
      // so duplicates and perturbations can reference a literal number.
      spec = workloads::random_instance_spec(
          params, args.seed + static_cast<std::uint64_t>(i));
      const workloads::Workload wl = workloads::spec_workload(spec);
      const auto flow = select::Flow::create(wl.module, wl.library);
      if (!flow.ok()) {
        ++skipped;
        continue;
      }
      const std::int64_t gmax = flow.value()->max_feasible_gain();
      gain = gmax > 1 ? gmax / 2 : 1;
      ++fresh;
    } else {
      base = &history[splitmix(&rng) % history.size()];
      spec = base->spec;
      gain = base->gain;
      opt = base->opt;
      if (roll < 55) {
        ++duplicates;  // exact repeat: must be a cache hit
      } else if (roll < 65) {
        // Option-flipped repeat: the same spec and gain under options the
        // envelope or options digest must tell apart. It must match its
        // own cold solve, never the base options' cached entry.
        switch (splitmix(&rng) % 3) {
          case 0: opt.problem2 = !opt.problem2; break;
          case 1:  // a cap below the base answer's power forces a change
            opt.max_power = base->cold_power > 0 ? 0.9 * base->cold_power : 1.0;
            break;
          default:  // the node budget the service retries on
            opt.ilp.max_nodes = std::max(1, opt.ilp.max_nodes / 16);
            break;
        }
        is_flipped = true;
        ++flipped;
      } else if (roll < 85) {
        // RHS perturbation: same structure, shifted required gain -- a
        // near-miss that exercises neighbor seeding.
        const std::int64_t delta =
            1 + static_cast<std::int64_t>(splitmix(&rng) % 5);
        gain = (splitmix(&rng) & 1) != 0 ? gain + delta
                                         : (gain > delta ? gain - delta : 1);
        ++perturbed;
        base = nullptr;  // different gain: no equivalence cross-check
      } else {
        spec = permute_spec(spec, splitmix(&rng));
        is_permuted = true;
        ++permuted;
      }
    }
    spec.required_gain = gain;

    select::Selection cold;
    if (!cold_reference(spec, gain, opt, &cold)) {
      ++skipped;
      continue;
    }
    const std::string cold_signature = select::solution_signature(cold);
    service::SolveRequest req;
    req.workload = workloads::spec_workload(spec);
    req.required_gains = {gain};
    req.options = opt;
    const service::SolveResponse r = svc.wait(svc.submit(std::move(req)).ticket());

    std::string detail;
    if (r.state != service::RequestState::kCompleted) {
      detail = "service did not complete: " + r.error.render();
    } else if (const std::string got = select::solution_signature(r.selection);
               got != cold_signature) {
      detail = "cache=" + r.cache + " answer differs from cold solve";
      if (is_flipped && got == base->cold_signature) {
        detail += " (served the base options' entry)";
      }
      detail += ":\n  service " + got + "\n  cold    " + cold_signature;
    } else if (is_permuted && base != nullptr &&
               (cold.feasible != base->cold_feasible ||
                (cold.feasible &&
                 std::fabs(cold.total_area() - base->cold_area) >
                     1e-6 * (1.0 + std::fabs(base->cold_area))))) {
      detail = "permuted-equivalent instance changed the optimum: area " +
               std::to_string(cold.total_area()) + " vs " +
               std::to_string(base->cold_area);
    }

    if (r.state == service::RequestState::kCompleted) {
      if (r.cache == "hit") ++hits;
      else if (r.cache == "neighbor") ++neighbors;
      else ++misses;
    }

    if (detail.empty()) {
      if (history.size() < 512) {
        history.push_back({spec, gain, opt, cold_signature, cold.feasible,
                           cold.feasible ? cold.total_area() : 0.0,
                           cold.feasible ? cold.ip_power + cold.interface_power : 0.0});
      }
      continue;
    }

    ++failures;
    std::fprintf(stderr,
                 "instance %d (gain %lld, problem2 %d, max_power %g, max_nodes %d) "
                 "DIVERGES: %s\n",
                 i, static_cast<long long>(gain), opt.problem2 ? 1 : 0,
                 opt.max_power.value_or(-1.0), opt.ilp.max_nodes, detail.c_str());
    dump_repro(
        args, spec,
        [&opt](const workloads::InstanceSpec& s) { return cache_inconsistent(s, opt); },
        "fuzz_cache_" + std::to_string(i));
  }

  const service::ServiceStats st = svc.stats();
  if (st.cache_hits + st.cache_misses != st.cache_lookups) {
    ++failures;
    std::fprintf(stderr, "counter invariant broken: hits %llu + misses %llu != "
                 "lookups %llu\n",
                 static_cast<unsigned long long>(st.cache_hits),
                 static_cast<unsigned long long>(st.cache_misses),
                 static_cast<unsigned long long>(st.cache_lookups));
  }
  std::printf(
      "partita_fuzz cache: %d instances (%d fresh, %d dup, %d option-flipped, "
      "%d perturbed, %d permuted), %d skipped, served %d hit / "
      "%d neighbor / %d miss (%llu seed fallbacks), %d divergences\n",
      args.instances, fresh, duplicates, flipped, perturbed, permuted, skipped,
      hits, neighbors, misses, static_cast<unsigned long long>(st.cache_seed_fallbacks), failures);
  return failures ? 1 : 0;
}

// --- batch ladder mode -------------------------------------------------------

/// The gain ladder a batch fuzz case solves: eight steps k * gmax / 8 plus
/// one infeasible item, shuffled by `shuffle_seed` so the batch's own
/// largest-gain-first order has to undo an arbitrary input order.
std::vector<std::int64_t> shuffled_ladder(std::int64_t gmax, std::uint64_t shuffle_seed) {
  std::vector<std::int64_t> gains;
  for (std::int64_t k = 1; k <= 8; ++k) gains.push_back(k * gmax / 8);
  gains.push_back(gmax + 1);
  for (std::size_t i = gains.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(splitmix(&shuffle_seed) % i);
    std::swap(gains[i - 1], gains[j]);
  }
  return gains;
}

/// Solves the spec's shuffled ladder through Selector::select_batch and
/// through a cache-off SolveService (one ladder submit, then one submit per
/// gain), and compares every item with a cold one-shot select of the same
/// gain. Returns an empty string when all items agree (or the spec does not
/// verify).
std::string batch_divergence(const workloads::InstanceSpec& spec,
                             std::uint64_t shuffle_seed) {
  if (!workloads::spec_valid(spec)) return "";
  const workloads::Workload wl = workloads::spec_workload(spec);
  const auto flow = select::Flow::create(wl.module, wl.library);
  if (!flow.ok()) return "";
  const std::vector<std::int64_t> gains =
      shuffled_ladder(flow.value()->max_feasible_gain(), shuffle_seed);
  std::vector<std::string> want;
  for (const std::int64_t g : gains) {
    want.push_back(select::solution_signature(flow.value()->select(g)));
  }
  std::vector<select::Selection> got = flow.value()->select_batch(gains);

  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = gains.size() + 1;
  service::SolveService svc(cfg);
  std::vector<std::uint64_t> tickets;
  for (std::size_t k = 0; k <= gains.size(); ++k) {
    service::SolveRequest req;
    req.workload = wl;
    req.required_gains = k == 0 ? gains : std::vector<std::int64_t>{gains[k - 1]};
    for (const std::uint64_t t : svc.submit(std::move(req)).tickets) tickets.push_back(t);
  }
  for (const std::uint64_t t : tickets) {
    service::SolveResponse r = svc.wait(t);
    if (r.state != service::RequestState::kCompleted) {
      return "served ticket " + std::to_string(t) + " did not complete: " + r.error.render();
    }
    got.push_back(std::move(r.selection));
  }

  const char* const kPath[] = {"batch", "served ladder", "served single"};
  for (std::size_t k = 0; k < got.size(); ++k) {
    const std::size_t i = k % gains.size();
    const std::string have = select::solution_signature(got[k]);
    if (have != want[i]) {
      return std::string(kPath[k / gains.size()]) + " item " + std::to_string(i) +
             " (gain " + std::to_string(gains[i]) + ") differs from cold solve:\n  got  " +
             have + "\n  cold " + want[i];
    }
  }
  return "";
}

int run_batch(const Args& args) {
  const workloads::InstanceGenParams params = gen_params(args);
  int failures = 0;
  for (int i = 0; i < args.instances; ++i) {
    const std::uint64_t seed = args.seed + static_cast<std::uint64_t>(i);
    const workloads::InstanceSpec spec = workloads::random_instance_spec(params, seed);
    const std::uint64_t shuffle_seed = seed * 0x9e3779b97f4a7c15ULL;
    const std::string detail = batch_divergence(spec, shuffle_seed);
    if (detail.empty()) continue;

    ++failures;
    std::fprintf(stderr, "instance %d (seed %llu) DIVERGES: %s\n", i,
                 static_cast<unsigned long long>(seed), detail.c_str());
    dump_repro(
        args, spec,
        [&](const workloads::InstanceSpec& s) {
          return !batch_divergence(s, shuffle_seed).empty();
        },
        "fuzz_batch_" + std::to_string(i));
  }
  std::printf("partita_fuzz batch: %d instances, %d divergences\n", args.instances,
              failures);
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::int64_t v = 0;
    const auto next_int = [&](std::int64_t* out) {
      return i + 1 < argc && support::parse_int(argv[++i], *out);
    };
    if (a == "--instances" && next_int(&v)) {
      args.instances = static_cast<int>(v);
    } else if (a == "--seed" && next_int(&v)) {
      args.seed = static_cast<std::uint64_t>(v);
    } else if (a == "--scalls" && next_int(&v)) {
      args.scalls = static_cast<int>(v);
    } else if (a == "--kernels" && next_int(&v)) {
      args.kernels = static_cast<int>(v);
    } else if (a == "--ips" && next_int(&v)) {
      args.ips = static_cast<int>(v);
    } else if (a == "--branch-groups" && next_int(&v)) {
      args.branch_groups = static_cast<int>(v);
    } else if (a == "--hierarchy" && next_int(&v)) {
      args.hierarchy = static_cast<int>(v);
    } else if (a == "--mode" && i + 1 < argc) {
      args.mode = argv[++i];
    } else if (a == "--no-shrink") {
      args.shrink = false;
    } else if (a == "--fixture-dir" && i + 1 < argc) {
      args.fixture_dir = argv[++i];
    } else if (a == "--replay" && i + 1 < argc) {
      args.replay = argv[++i];
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "partita_fuzz: bad argument '%s'\n", a.c_str());
      usage();
      return 2;
    }
  }
  if (args.instances < 1 || args.scalls < 1 || args.kernels < 1 || args.ips < 1 ||
      args.branch_groups < 0 || args.hierarchy < 0 ||
      2 * args.branch_groups > args.scalls) {
    std::fprintf(stderr, "partita_fuzz: invalid parameter combination\n");
    return 2;
  }
  if (!args.replay.empty()) return replay_fixture(args.replay);
  if (args.mode == "exact") return run_exact(args);
  if (args.mode == "sandwich") return run_sandwich(args);
  if (args.mode == "cache") return run_cache(args);
  if (args.mode == "batch") return run_batch(args);
  std::fprintf(stderr, "partita_fuzz: unknown mode '%s'\n", args.mode.c_str());
  usage();
  return 2;
}
