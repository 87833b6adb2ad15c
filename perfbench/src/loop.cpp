#include "loop.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

using partita::net::WireClient;
using partita::net::WireRequest;
using partita::net::WireResponse;

Stack::~Stack() {
  clients.clear();
  if (server) server->stop();
  if (svc) svc->shutdown();
}

partita::service::ServiceConfig service_config(const FrozenList& list) {
  partita::service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.cache_enabled = list.cache;
  // Every distinct key of a list fits, so no entry is ever evicted and the
  // eviction order cannot depend on how the sessions interleave.
  cfg.cache_capacity = 4096;
  cfg.cache_max_bytes = std::size_t{512} << 20;
  cfg.cache_neighbor_seeding = true;
  return cfg;
}

std::unique_ptr<Stack> boot_stack(const FrozenList& list, const std::string& socket_path,
                                  int sessions) {
  auto stack = std::make_unique<Stack>();
  stack->svc = std::make_unique<partita::service::SolveService>(service_config(list));
  ::unlink(socket_path.c_str());
  partita::net::ServerConfig scfg;
  scfg.listen = "unix:" + socket_path;
  stack->server = std::make_unique<partita::net::WireServer>(*stack->svc, scfg);
  std::string error;
  if (!stack->server->start(&error)) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n", error.c_str());
    std::exit(2);
  }
  for (int s = 0; s < sessions; ++s) {
    auto client = std::make_unique<WireClient>();
    if (!client->connect(stack->server->endpoint(), &error)) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n", error.c_str());
      std::exit(2);
    }
    stack->clients.push_back(std::move(client));
  }
  return stack;
}

OpResult run_wire_op(WireClient& client, const FrozenList& list, const SessionOp& op,
                     const std::string& tenant) {
  OpResult res;
  res.ok = true;
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::size_t ri : op.requests) {
    const Request& req = list.requests[ri];
    std::string error;
    std::optional<WireResponse> sub = client.call(submit_verb(list, req, tenant), &error);
    if (!sub || !sub->ok || sub->state != "queued" || sub->tickets.size() != req.gains.size()) {
      res.ok = false;
      res.error = "submit failed: " + (sub ? sub->error.message + sub->reject_reason : error);
      break;
    }
    std::vector<std::uint64_t> ids;
    for (const std::uint64_t ticket : sub->tickets) {
      WireRequest w;
      w.verb = "wait";
      w.ticket = ticket;
      ids.push_back(client.send(w, &error));
    }
    for (std::size_t k = 0; k < ids.size(); ++k) {
      std::optional<WireResponse> r = ids[k] ? client.wait_for(ids[k], &error) : std::nullopt;
      if (!r || !r->ok || !r->result || r->result->state != "completed" ||
          !r->result->selection) {
        res.ok = false;
        if (res.error.empty()) res.error = "wait failed: " + (r ? r->error.message : error);
        continue;
      }
      const partita::net::WireSelection& s = *r->result->selection;
      res.markers.push_back(r->result->cache);
      if (!matches(req.expect[k], s.feasible, s.ip_area + s.interface_area, s.rung) &&
          res.error.empty()) {
        res.ok = false;
        res.error = "request " + std::to_string(ri) + " gain " + std::to_string(req.gains[k]) +
                    ": answer differs from the frozen expectation";
      }
    }
  }
  res.latency_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return res;
}

std::vector<std::vector<OpResult>> run_closed_loop(
    Stack& stack, const FrozenList& list, const std::vector<std::vector<SessionOp>>& streams) {
  std::vector<std::vector<OpResult>> results(streams.size());
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    threads.emplace_back([&, s] {
      for (const SessionOp& op : streams[s]) {
        results[s].push_back(run_wire_op(*stack.clients[s], list, op, op.op->tenant));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

long involuntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double rss_kb() {
  std::ifstream in("/proc/self/statm");
  long size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return -1;
  std::istringstream fields(line.substr(4));
  long long v = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> v)) return -1;
  }
  return v;
}

}  // namespace perfbench
