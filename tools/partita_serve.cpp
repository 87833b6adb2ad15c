// partita_serve — the solve-service daemon and script driver.
//
// Boots one service::SolveService. Without a script it serves it behind a
// net::WireServer speaking partita-wire-v1 (docs/service_wire.md) until
// SIGTERM or SIGINT. With a script it opens no listener and runs the
// script's commands against the service instead, stopping early on SIGTERM.
// Either way it then drains gracefully (every admitted request reaches its
// terminal state), prints one line per scripted ticket and a stats line,
// and exits 0.
//
//   partita_serve [options] [SCRIPT]
//
// options:
//   --listen SPEC         tcp:HOST:PORT (PORT 0 = ephemeral) or unix:PATH
//                         (default tcp:127.0.0.1:0)
//   --port-file PATH      write the resolved endpoint (one line) once
//                         listening -- how CI scripts discover the
//                         ephemeral port
//   --policy NAME         fifo | priority | edf | rejecter (default fifo)
//   --workers N           worker-pool size (default 2)
//   --queue-depth N       admission-queue depth (default 16)
//   --max-memory-mb N     aggregate admitted solver-memory budget (0 = off)
//   --max-live-per-tenant N  per-tenant live-request quota (0 = off)
//   --max-sessions N      concurrent connections (default 64)
//   --quarantine-dir D    directory for replayable quarantine fixtures
//   --fault SITE[:n][:crash]  arm a fault-injection site (repeatable); the
//                         PARTITA_FAULT env var arms one more. A ":crash"
//                         suffix SIGKILLs the process at the trip point
//                         (simulated power loss -- the recovery harness).
//   --cache               enable the cross-request solution cache
//                         (docs/caching.md)
//   --cache-capacity N    cache entry bound (implies --cache; default 256)
//   --cache-mb N          cache byte budget (implies --cache; default 64)
//   --journal-dir D       enable the write-ahead journal (docs/durability.md):
//                         admits are durable before they are acknowledged,
//                         and on boot every undecided admit found in D is
//                         replayed through normal admission under its
//                         original envelope. The solution-cache snapshot
//                         (D/cache.snapshot) is saved on graceful drain and
//                         reloaded here too.
//
// script commands (one per line; '#' starts a comment):
//   submit <builtin> [rg] [k=v ...]     a built-in workload
//   spec <seed> [scalls] [kernels] [ips] [k=v ...]
//                                       a generated instance (a failure
//                                       leaves a replayable fixture)
//   cancel <k>                          cancel the k-th submission (1-based)
//   drain | selfterm                    drain now | raise SIGTERM
// k=v: tenant=ID prio=interactive|standard|batch deadline=S budget=S. Each
// submit line becomes the wire `submit` verb a client would send, admitted
// through net::to_service_request, so --journal-dir, --cache and --fault
// apply to scripts as to socket clients.
//
// Numeric flag values must be non-negative numbers written in full ("2x",
// "abc" and "-1" are bad config).
//
// exit codes: 0 clean shutdown (SIGTERM/SIGINT, or the script drained),
// 2 usage/bad config, 3 bind failure or unreadable/bad script, 4 journal
// open failure.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/journal.hpp"
#include "service/solve_service.hpp"
#include "support/fault_injection.hpp"
#include "support/io.hpp"
#include "support/strings.hpp"

using namespace partita;

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitInput = 3;  // bind failure or unreadable/bad script
constexpr int kExitJournal = 4;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--listen SPEC] [--port-file PATH] [--policy P]\n"
               "       [--workers N] [--queue-depth N] [--max-memory-mb N]\n"
               "       [--max-live-per-tenant N] [--max-sessions N]\n"
               "       [--quarantine-dir D] [--fault SITE[:n][:crash]]\n"
               "       [--cache] [--cache-capacity N] [--cache-mb N]\n"
               "       [--journal-dir D] [SCRIPT]\n"
               "\n"
               "SPEC: tcp:HOST:PORT (PORT 0 = ephemeral) or unix:PATH\n"
               "SCRIPT: submit | spec | cancel | drain | selfterm lines; no listener\n"
               "exit: 0 clean shutdown, 2 usage, 3 bind failure or bad script,\n"
               "      4 journal open failure\n",
               argv0);
  std::exit(kExitUsage);
}

[[noreturn]] void bad_value(const std::string& flag, const char* text) {
  std::fprintf(stderr, "partita_serve: %s needs a non-negative number, got '%s'\n",
               flag.c_str(), text);
  std::exit(kExitUsage);
}

/// A numeric flag's value as a non-negative integer of at most `max`.
std::int64_t int_value(const std::string& flag, const char* text,
                       std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  std::int64_t v = 0;
  if (!support::parse_int(text, v) || v < 0 || v > max) bad_value(flag, text);
  return v;
}

/// A size flag given in MiB (fractions allowed), as bytes.
std::size_t mib_value(const std::string& flag, const char* text) {
  double mib = 0.0;
  // The negated test also rejects NaN; 2^63 bytes keeps the cast defined.
  if (!support::parse_double(text, mib) || !(mib >= 0.0 && mib * 1048576.0 < 0x1p63)) {
    bad_value(flag, text);
  }
  return static_cast<std::size_t>(mib * 1048576.0);
}

/// Parses the tokens after a script `submit`/`spec` command into the wire
/// verb a client would send: positional <builtin> [rg] or <seed> [scalls]
/// [kernels] [ips], plus k=v scheduling metadata.
bool parse_submit(const std::string& cmd, std::istringstream& ls,
                  net::WireRequest* req, std::string* why) {
  req->verb = "submit";
  std::vector<std::string> pos;
  for (std::string tok; ls >> tok;) {
    const std::size_t eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : tok.substr(eq + 1);
    if (eq == std::string::npos) pos.push_back(tok);
    else if (key == "tenant") req->tenant = value;
    else if (key == "prio" && service::parse_priority(value) >= 0)
      req->priority = service::parse_priority(value);
    else if (key == "deadline") req->deadline_seconds = std::atof(value.c_str());
    else if (key == "budget") req->time_limit_seconds = std::atof(value.c_str());
    else {
      *why = "bad metadata token '" + tok + "'";
      return false;
    }
  }
  if (cmd == "submit" ? pos.empty() || pos.size() > 2 : pos.size() > 4) {
    *why = "wrong number of positional arguments to '" + cmd + "'";
    return false;
  }
  if (cmd == "submit") {
    req->workload = pos[0];
    if (pos.size() == 2) req->required_gain = std::atoll(pos[1].c_str());
    return true;
  }
  net::SpecRef& spec = req->spec.emplace();
  int* dims[] = {&spec.scalls, &spec.kernels, &spec.ips};
  if (!pos.empty()) spec.seed = std::strtoull(pos[0].c_str(), nullptr, 10);
  for (std::size_t i = 1; i < pos.size(); ++i) *dims[i - 1] = std::atoi(pos[i].c_str());
  return true;
}

/// Runs a command script against the in-process service, appending the
/// issued tickets in submission order; false (after a message on stderr) on
/// a bad line. Stops early once SIGTERM/SIGINT arrives.
bool run_script(const std::string& path, std::istream& in, service::SolveService& svc,
                std::vector<std::uint64_t>& tickets) {
  std::string line;
  for (int lineno = 1; !g_stop && std::getline(in, line); ++lineno) {
    line.resize(std::min(line.size(), line.find('#')));  // strip a comment
    std::istringstream ls(line);
    std::string cmd;
    if (!(ls >> cmd)) continue;

    std::string why;
    if (cmd == "submit" || cmd == "spec") {
      net::WireRequest wire;
      service::SolveRequest req;
      if (parse_submit(cmd, ls, &wire, &why) &&
          net::to_service_request(wire, &req, &why)) {
        tickets.push_back(svc.submit(std::move(req)).ticket());
      }
    } else if (cmd == "cancel") {
      std::size_t k = 0;
      ls >> k;
      if (k >= 1 && k <= tickets.size()) svc.cancel(tickets[k - 1]);
      else why = "cancel index " + std::to_string(k) + " out of range";
    } else if (cmd == "drain") {
      svc.drain();
    } else if (cmd == "selfterm") {
      std::raise(SIGTERM);
    } else {
      why = "unknown command '" + cmd + "'";
    }
    if (!why.empty()) {
      std::fprintf(stderr, "partita_serve: %s:%d: %s\n", path.c_str(), lineno,
                   why.c_str());
      return false;
    }
  }
  return true;
}

/// One terminal-report line per scripted request, in submission order.
void report(const service::SolveResponse& r) {
  std::printf("#%llu %-16s %s", static_cast<unsigned long long>(r.ticket),
              r.label.c_str(), service::to_string(r.state));
  switch (r.state) {
    case service::RequestState::kCompleted:
      std::printf(" area=%.3f gain=%lld rung=%s attempts=%d", r.selection.total_area(),
                  static_cast<long long>(r.selection.min_path_gain),
                  select::to_string(r.selection.rung), r.attempts);
      break;
    case service::RequestState::kRejected:
      std::printf(" retry-after=%.3fs (%s)", r.retry_after_seconds,
                  r.error.message.c_str());
      break;
    case service::RequestState::kFailed:
      std::printf(" attempts=%d (%s)%s%s", r.attempts, r.error.message.c_str(),
                  r.quarantine_fixture.empty() ? "" : " fixture=",
                  r.quarantine_fixture.c_str());
      break;
    default: break;
  }
  std::printf("\n");
}

int run(int argc, char** argv) {
  service::ServiceConfig cfg;
  net::ServerConfig net_cfg;
  std::string port_file;
  std::string journal_dir;
  std::string script_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "partita_serve: %s needs a value\n", flag.c_str());
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (flag == "--listen") net_cfg.listen = need_value();
    else if (flag == "--port-file") port_file = need_value();
    else if (flag == "--policy") cfg.policy = need_value();
    else if (flag == "--workers")
      cfg.workers = static_cast<int>(
          int_value(flag, need_value(), std::numeric_limits<int>::max()));
    else if (flag == "--queue-depth")
      cfg.max_queue_depth = static_cast<std::size_t>(int_value(flag, need_value()));
    else if (flag == "--max-memory-mb")
      cfg.max_admitted_memory_bytes = mib_value(flag, need_value());
    else if (flag == "--max-live-per-tenant")
      cfg.max_live_per_tenant = static_cast<std::size_t>(int_value(flag, need_value()));
    else if (flag == "--max-sessions")
      net_cfg.max_sessions = static_cast<std::size_t>(int_value(flag, need_value()));
    else if (flag == "--quarantine-dir") cfg.quarantine_dir = need_value();
    else if (flag == "--fault") support::arm_fault_spec(need_value());
    else if (flag == "--cache") cfg.cache_enabled = true;
    else if (flag == "--cache-capacity") {
      cfg.cache_enabled = true;
      cfg.cache_capacity = static_cast<std::size_t>(int_value(flag, need_value()));
    } else if (flag == "--cache-mb") {
      cfg.cache_enabled = true;
      cfg.cache_max_bytes = mib_value(flag, need_value());
    } else if (flag == "--journal-dir") journal_dir = need_value();
    else if (flag.empty() || flag[0] == '-' || !script_path.empty()) usage(argv[0]);
    else script_path = flag;
  }
  if (cfg.workers < 1 || cfg.max_queue_depth < 1) {
    std::fprintf(stderr, "partita_serve: --workers and --queue-depth must be >= 1\n");
    return kExitUsage;
  }
  if (!service::SchedulerPolicy::create(cfg.policy, {})) {
    std::fprintf(stderr, "partita_serve: unknown policy '%s'\n", cfg.policy.c_str());
    return kExitUsage;
  }
  std::ifstream script;
  if (!script_path.empty()) {
    script.open(script_path);
    if (!script) {
      std::fprintf(stderr, "partita_serve: cannot open script '%s'\n",
                   script_path.c_str());
      return kExitInput;
    }
  }
  if (const char* env = std::getenv("PARTITA_FAULT"); env && *env) {
    support::arm_fault_spec(env);
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  // The journal outlives the service on purpose: SolveService::drain()
  // compacts through cfg.journal, so the journal must still be open when
  // svc destructs. Declaration order gives reverse destruction.
  service::Journal journal;
  service::JournalRecovery rec;
  if (!journal_dir.empty()) {
    rec = service::Journal::recover(journal_dir);
    service::Journal::Config jc;
    jc.dir = journal_dir;
    if (!journal.open(jc, rec)) {
      std::fprintf(stderr, "partita_serve: cannot open journal in %s\n",
                   journal_dir.c_str());
      return kExitJournal;
    }
    cfg.journal = &journal;
    if (rec.records_dropped != 0 || rec.bytes_dropped != 0)
      std::printf(
          "partita_serve: journal salvage: %llu records kept, %llu records "
          "and %llu bytes dropped past last valid frame\n",
          static_cast<unsigned long long>(rec.records_salvaged),
          static_cast<unsigned long long>(rec.records_dropped),
          static_cast<unsigned long long>(rec.bytes_dropped));
  }

  service::SolveService svc(cfg);

  if (journal.is_open()) {
    // Reload the solution-cache snapshot saved by the previous graceful
    // drain; absence or staleness is fine (generation checks drop stale).
    std::string snap;
    if (cfg.cache_enabled &&
        support::io::read_file(journal_dir + "/cache.snapshot", &snap)) {
      const std::size_t n = svc.import_cache_snapshot(snap);
      if (n != 0)
        std::printf("partita_serve: cache snapshot reloaded (%zu entries)\n", n);
    }
    // Replay every undecided admit through normal admission, oldest first,
    // before the listener opens -- recovered work holds its original
    // envelope and cannot race new clients for its journal seq. Admission
    // can transiently reject (queue depth); retry until the pool drains
    // enough to take it. Replays carry journal_seq, so the service appends
    // no duplicate admit record.
    std::size_t replayed = 0, skipped = 0;
    for (const service::JournalRecord& r : rec.undecided) {
      service::SolveRequest sreq;
      std::string jwhy;
      if (!net::from_journal_payload(r.payload, r.seq, &sreq, &jwhy)) {
        std::fprintf(stderr,
                     "partita_serve: journal seq %llu not replayable: %s\n",
                     static_cast<unsigned long long>(r.seq), jwhy.c_str());
        ++skipped;
        continue;
      }
      for (;;) {
        service::SolveRequest attempt = sreq;
        const service::SubmitOutcome sub = svc.submit(std::move(attempt));
        if (sub.state != service::RequestState::kRejected) break;
        ::usleep(static_cast<useconds_t>(
            (sub.retry_after_seconds > 0.01 ? sub.retry_after_seconds : 0.01) *
            1e6));
      }
      ++replayed;
    }
    if (replayed != 0 || skipped != 0)
      std::printf("partita_serve: journal replay: %zu re-admitted, %zu skipped\n",
                  replayed, skipped);
    std::fflush(stdout);
  }

  // Never started in script mode; stop() is then a no-op.
  net::WireServer server(svc, net_cfg);
  std::vector<std::uint64_t> tickets;
  if (script.is_open()) {
    if (!run_script(script_path, script, svc, tickets)) return kExitInput;
  } else {
    std::string why;
    if (!server.start(&why)) {
      std::fprintf(stderr, "partita_serve: %s\n", why.c_str());
      return kExitInput;
    }
    std::printf("partita_serve: listening on %s (policy=%s workers=%d)\n",
                server.endpoint().c_str(), svc.policy_name(), cfg.workers);
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream pf(port_file);
      pf << server.endpoint() << "\n";
    }
    while (!g_stop) {
      // Signal-driven shutdown only; the nap keeps the main thread cheap.
      ::usleep(50 * 1000);
    }
  }

  // Shutdown (SIGTERM or end of script): drain first -- it returns once
  // every admitted request is terminal and every pending wait's answer has
  // been written -- then close the listener and join the session readers.
  std::printf("partita_serve: draining\n");
  std::fflush(stdout);
  svc.drain();
  server.stop();
  for (const std::uint64_t t : tickets) report(svc.wait(t));
  if (journal.is_open() && cfg.cache_enabled) {
    // Persist warm cache entries next to the journal; reload happens on the
    // next boot. Atomic rename, so a crash here leaves the old snapshot.
    const std::string snap = svc.export_cache_snapshot();
    if (!snap.empty())
      support::io::write_file_atomic(journal_dir + "/cache.snapshot", snap);
  }
  const service::ServiceStats st = svc.stats();
  const net::ServerStats ns = server.stats();
  std::printf(
      "partita_serve: done submitted=%llu completed=%llu cancelled=%llu "
      "rejected=%llu failed=%llu retries=%llu peak-queue=%zu sessions=%llu "
      "frames=%llu/%llu protocol-errors=%llu cache-hits=%llu/%llu\n",
      static_cast<unsigned long long>(st.submitted),
      static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(st.cancelled),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.failed),
      static_cast<unsigned long long>(st.retries), st.peak_queue_depth,
      static_cast<unsigned long long>(ns.sessions_accepted),
      static_cast<unsigned long long>(ns.frames_in),
      static_cast<unsigned long long>(ns.frames_out),
      static_cast<unsigned long long>(ns.protocol_errors),
      static_cast<unsigned long long>(st.cache_hits),
      static_cast<unsigned long long>(st.cache_lookups));
  if (journal.is_open()) {
    const service::JournalStats js = journal.stats();
    std::printf(
        "partita_serve: journal admits=%llu terminals=%llu rotations=%llu "
        "append-failures=%llu recovered=%llu\n",
        static_cast<unsigned long long>(js.admits),
        static_cast<unsigned long long>(js.terminals),
        static_cast<unsigned long long>(js.rotations),
        static_cast<unsigned long long>(js.append_failures),
        static_cast<unsigned long long>(st.recovered_requests));
  }
  if (!port_file.empty() && !script.is_open()) ::unlink(port_file.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "partita_serve: fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "partita_serve: fatal: unknown exception\n");
    return 1;
  }
}
