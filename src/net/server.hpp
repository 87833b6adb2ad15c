// Socket front-end of the solve service.
//
// WireServer listens on a TCP loopback port (or a unix-domain socket),
// speaks partita-wire-v1 frames (frame.hpp + protocol.hpp) and forwards
// verbs to one shared service::SolveService. Threading model:
//
//   * one accept thread;
//   * one reader thread per connection, and no other. It answers every verb
//     inline but `wait`, which registers a SolveService::on_terminal hook
//     and moves on -- that is what makes the correlation-id multiplexing
//     real. The thread that finalizes the ticket writes the answer.
//
// Responses are written under a per-connection write mutex, one frame at a
// time. A hook holds its session, never the WireServer, so it may fire after
// the peer left or the server stopped. A fixed send timeout hangs up a peer
// that stops reading, so none can hold a worker.
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

  /// Stops accepting, shuts every session's socket down and joins the
  /// accept and reader threads (a reader inside `drain` once it returns).
  /// Pending waits' hooks stay with the service and answer into a shut-down
  /// socket, so drain the service first to have them answered. Idempotent.
  void stop();

  /// Bound TCP port (0 for unix sockets or before start()).
  int port() const { return port_; }
  /// Resolved endpoint, e.g. "tcp:127.0.0.1:41317" -- what a WireClient
  /// passes to connect().
  std::string endpoint() const;

  ServerStats stats() const;

 private:
  struct Counters;  // frame counters, shared with every Session
  struct Session;   // one socket, shared by its reader and its wait hooks
  struct Connection {
    std::shared_ptr<Session> session;
    std::thread reader;
  };

  void accept_main();
  void session_main(const std::shared_ptr<Session>& session);
  /// Decodes one frame payload; a `wait` registers its hook.
  void handle_payload(const std::shared_ptr<Session>& session, const std::string& payload);
  /// Every verb but `wait`; runs on the reader.
  WireResponse handle_inline(const WireRequest& req);
  /// Writes one frame, or hangs the session up. Static: hooks call it.
  static void send_response(Session& session, const WireResponse& resp);
  void reap_finished_locked();

  service::SolveService& svc_;
  ServerConfig cfg_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::string unix_path_;  // set when listening on a unix socket
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::shared_ptr<Counters> counters_;

  mutable std::mutex sessions_mu_;
  std::list<Connection> sessions_;
  ServerStats stats_;  // session counts; frame counts live in counters_
};

}  // namespace partita::net
