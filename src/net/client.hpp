// Blocking partita-wire-v1 client.
//
// One WireClient owns one connection. The low-level pair send()/recv()
// exposes the raw pipelined stream; call() is the common path -- send one
// request, then read frames until the response whose id matches arrives,
// parking any other responses (answers to still-in-flight `wait`s, say) in
// an internal queue for a later recv()/wait_for(). That is the client half
// of the correlation-id multiplexing.
//
// Not thread-safe: one WireClient per thread (the load generator opens one
// per simulated session).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "net/frame.hpp"
#include "net/protocol.hpp"

namespace partita::net {

class WireClient {
 public:
  WireClient() = default;
  ~WireClient() { close(); }

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects to "tcp:HOST:PORT" or "unix:PATH".
  bool connect(const std::string& endpoint, std::string* error);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Assigns a fresh correlation id when req.id == 0; returns the id used.
  std::uint64_t send(WireRequest req, std::string* error);

  /// Next response in arrival order (pending queue first). nullopt on
  /// connection loss or a framing/protocol failure.
  std::optional<WireResponse> recv(std::string* error);

  /// Reads until the response with this id arrives; other responses are
  /// parked for later recv()/wait_for().
  std::optional<WireResponse> wait_for(std::uint64_t id, std::string* error);

  /// send() + wait_for(): the simple RPC shape.
  std::optional<WireResponse> call(WireRequest req, std::string* error);

 private:
  /// Reads the next response off the wire, ignoring the pending queue.
  std::optional<WireResponse> recv_socket(std::string* error);

  int fd_ = -1;
  FrameDecoder decoder_;
  std::deque<WireResponse> pending_;
  std::uint64_t next_id_ = 0;
};

}  // namespace partita::net
