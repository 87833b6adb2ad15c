// The served stack under test and the closed loop that loads it.
//
// One in-process SolveService (2 workers, ilp.threads = 1, no journal)
// behind a WireServer on a unix socket, and one WireClient per session from
// the same process. Each session runs its ops in a closed loop: an op's next
// request is sent only after every answer of the previous one arrived and
// was checked against the frozen expectation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lists.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/solve_service.hpp"

namespace perfbench {

struct Stack {
  std::unique_ptr<partita::service::SolveService> svc;
  std::unique_ptr<partita::net::WireServer> server;
  std::vector<std::unique_ptr<partita::net::WireClient>> clients;

  Stack() = default;
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

partita::service::ServiceConfig service_config(const FrozenList& list);

/// Boots service + server on `socket_path` and connects `sessions` clients.
/// Exits the process with a message on failure.
std::unique_ptr<Stack> boot_stack(const FrozenList& list, const std::string& socket_path,
                                  int sessions);

struct OpResult {
  bool ok = false;
  double latency_ms = 0.0;
  std::string error;                 // first mismatch or failure
  std::vector<std::string> markers;  // cache outcome per answer
};

/// Issues one op over the wire: each request's submit, then one pipelined
/// wait per ticket; returns when every answer arrived and was checked.
OpResult run_wire_op(partita::net::WireClient& client, const FrozenList& list,
                     const SessionOp& op, const std::string& tenant);

/// Runs every session's stream concurrently, one thread per client.
/// results[s][i] is the outcome of streams[s][i].
std::vector<std::vector<OpResult>> run_closed_loop(
    Stack& stack, const FrozenList& list,
    const std::vector<std::vector<SessionOp>>& streams);

// --- process probes -------------------------------------------------------
double cpu_seconds();          // process user + sys
long involuntary_switches();   // process nivcsw
double peak_rss_mb();          // ru_maxrss
double rss_kb();               // current resident set
long long steal_ticks();       // host steal column of /proc/stat, -1 if absent

}  // namespace perfbench
