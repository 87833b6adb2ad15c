// Socket front-end of the solve service.
//
// WireServer listens on a TCP loopback port (or a unix-domain socket),
// speaks partita-wire-v1 frames (frame.hpp + protocol.hpp) and forwards
// verbs to one shared service::SolveService. Threading model:
//
//   * one accept thread;
//   * one reader thread per connection, which parses frames and answers
//     non-blocking verbs (submit/cancel/status/stats/ping) inline;
//   * blocking verbs (wait, drain) run on detached-from-the-reader waiter
//     threads so one long wait never stalls the connection -- that is what
//     makes the correlation-id multiplexing real. Responses are written
//     under a per-connection write mutex, one frame at a time.
//
// Error containment mirrors the service's quarantine philosophy: a
// malformed JSON payload or unknown verb gets an error response (kind
// "protocol") and the connection lives on; a *framing* error (bad version
// byte, hostile length prefix) poisons the stream and the connection is
// closed after one final error frame. Neither ever takes the server down.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "service/solve_service.hpp"

namespace partita::net {

struct ServerConfig {
  /// "tcp:HOST:PORT" (PORT 0 = ephemeral, read back via port()) or
  /// "unix:PATH".
  std::string listen = "tcp:127.0.0.1:0";
  /// Concurrent connections; extras are refused with one error frame.
  std::size_t max_sessions = 64;
};

struct ServerStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_refused = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t protocol_errors = 0;  // bad JSON / unknown verb / bad frame
  std::size_t active_sessions = 0;
};

class WireServer {
 public:
  /// The server borrows the service; the caller owns both lifetimes and
  /// must stop() the server before destroying the service.
  explicit WireServer(service::SolveService& svc, ServerConfig cfg = {});
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds, listens and starts accepting. False + reason on bind failure.
  bool start(std::string* error);

  /// Stops accepting, shuts every session's socket down and joins all
  /// threads. In-flight waits are joined too, so drain the service first
  /// (or let request budgets expire) for a bounded stop. Idempotent.
  void stop();

  /// Bound TCP port (0 for unix sockets or before start()).
  int port() const { return port_; }
  /// Resolved endpoint, e.g. "tcp:127.0.0.1:41317" -- what a WireClient
  /// passes to connect().
  std::string endpoint() const;

  ServerStats stats() const;

 private:
  /// One blocking verb's thread; `done` (its last act) lets a later verb
  /// join it, since an exited but unjoined thread keeps its stack mapped.
  struct Waiter {
    std::atomic<bool> done{false};
    std::thread thread;
  };

  struct Session {
    int fd = -1;
    std::thread reader;
    std::mutex write_mu;
    std::mutex waiters_mu;
    std::list<Waiter> waiters;  // list: a waiter's address must stay stable
    std::atomic<bool> done{false};
  };

  void accept_main();
  void session_main(Session* session);
  /// Decodes and dispatches one frame payload; answers inline or spawns a
  /// waiter for blocking verbs.
  void handle_payload(Session& session, const std::string& payload);
  /// Non-blocking verbs; must not sleep or wait (runs on the reader).
  WireResponse handle_immediate(const WireRequest& req);
  void send_response(Session& session, const WireResponse& resp);
  void reap_finished_locked();

  service::SolveService& svc_;
  ServerConfig cfg_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::string unix_path_;  // set when listening on a unix socket
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex sessions_mu_;
  std::list<std::unique_ptr<Session>> sessions_;
  ServerStats stats_;
};

}  // namespace partita::net
