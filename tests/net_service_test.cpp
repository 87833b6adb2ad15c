// End-to-end tests of the socket front-end (net/server.hpp + net/client.hpp)
// against a live SolveService on a loopback TCP port.
//
// The headline test is the differential one: for every built-in workload and
// every scheduling policy, the Selection obtained through the socket must be
// bit-identical (WireSelection::key(), doubles via %.17g) to the in-process
// service's and to a one-shot select::Flow with the same options. The
// transport and the scheduler may reorder *when* work runs, never *what* it
// computes.
//
// The malformed-peer tests speak raw bytes on a hand-rolled socket: a framing
// error must kill only that connection (after one error frame); a JSON error
// must not even do that. The server survives both.
//
// The wait-hook tests pin the threading model: a pending `wait` holds no
// thread, its answer is written before drain() returns, a peer that stops
// reading is hung up instead of holding a worker, and a hook that fires
// after its peer left and its server stopped touches neither.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "select/flow.hpp"
#include "service/solve_service.hpp"
#include "workloads/workloads.hpp"

namespace partita::net {
namespace {

constexpr std::int64_t kGain = 1000;

const std::vector<std::string>& builtin_names() {
  static const std::vector<std::string> names = {
      "gsm_encoder", "gsm_decoder", "jpeg_encoder", "fig9", "fig10", "adpcm_codec"};
  return names;
}

workloads::Workload builtin(const std::string& name) {
  service::SolveRequest req;
  WireRequest wire;
  wire.workload = name;
  std::string err;
  EXPECT_TRUE(resolve_workload(wire, &req, &err)) << err;
  return std::move(req.workload);
}

/// One service + wire server on an ephemeral loopback port.
struct ServerFixture {
  explicit ServerFixture(service::ServiceConfig cfg = {}) : svc(std::move(cfg)), server(svc) {
    std::string err;
    EXPECT_TRUE(server.start(&err)) << err;
  }
  ~ServerFixture() {
    // Drain before stop so in-flight `wait` verbs answer and join cleanly.
    svc.drain();
    server.stop();
  }

  service::SolveService svc;
  WireServer server;
};

WireRequest submit_builtin(const std::string& name) {
  WireRequest req;
  req.verb = "submit";
  req.workload = name;
  req.required_gain = kGain;
  return req;
}

/// submit + wait over the socket; returns the terminal WireResult.
WireResult solve_over_wire(WireClient& client, const std::string& workload) {
  std::string err;
  const auto submitted = client.call(submit_builtin(workload), &err);
  EXPECT_TRUE(submitted.has_value()) << err;
  EXPECT_TRUE(submitted->ok) << submitted->error.message;
  EXPECT_EQ(submitted->state, "queued") << submitted->reject_reason;
  EXPECT_EQ(submitted->tickets.size(), 1u);

  WireRequest wait;
  wait.verb = "wait";
  wait.ticket = submitted->tickets.front();
  const auto done = client.call(wait, &err);
  EXPECT_TRUE(done.has_value()) << err;
  EXPECT_TRUE(done->result.has_value());
  return *done->result;
}

// --- differential: socket == in-process == one-shot, every policy -----------

TEST(Differential, BitIdenticalAcrossTransportsAndPolicies) {
  // Reference leg: one-shot Flow::select per builtin.
  std::map<std::string, std::string> reference;
  for (const std::string& name : builtin_names()) {
    const workloads::Workload w = builtin(name);
    const select::Flow flow(w.module, w.library);
    reference[name] = to_wire(flow.select(kGain)).key();
  }

  // In-process service leg (default fifo).
  {
    service::ServiceConfig cfg;
    cfg.workers = 2;
    service::SolveService svc(cfg);
    for (const std::string& name : builtin_names()) {
      service::SolveRequest req;
      req.label = name;
      req.workload = builtin(name);
      req.required_gains = {kGain};
      const service::SubmitOutcome out = svc.submit(std::move(req));
      ASSERT_TRUE(out.admitted()) << name << ": " << out.reject_reason;
      const service::SolveResponse resp = svc.wait(out.ticket());
      ASSERT_EQ(resp.state, service::RequestState::kCompleted) << name;
      EXPECT_EQ(to_wire(resp.selection).key(), reference[name])
          << name << ": in-process service diverged from one-shot Flow";
    }
  }

  // Socket leg, once per scheduling policy.
  for (const std::string& policy : service::SchedulerPolicy::known_policies()) {
    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.policy = policy;
    ServerFixture fx(cfg);
    WireClient client;
    std::string err;
    ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;
    for (const std::string& name : builtin_names()) {
      const WireResult r = solve_over_wire(client, name);
      ASSERT_EQ(r.state, "completed") << policy << "/" << name << ": " << r.error.message;
      ASSERT_TRUE(r.selection.has_value());
      EXPECT_EQ(r.selection->key(), reference[name])
          << policy << "/" << name << ": socket result diverged from one-shot Flow";
    }
  }
}

// --- cancel over the wire ----------------------------------------------------

TEST(WireCancel, QueuedRequestCancelsDeterministically) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;  // nothing runs: the cancel races nothing
  ServerFixture fx(cfg);
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;

  const auto submitted = client.call(submit_builtin("fig9"), &err);
  ASSERT_TRUE(submitted.has_value()) << err;
  ASSERT_EQ(submitted->state, "queued");
  const std::uint64_t ticket = submitted->tickets.front();

  WireRequest cancel;
  cancel.verb = "cancel";
  cancel.ticket = ticket;
  const auto cancelled = client.call(cancel, &err);
  ASSERT_TRUE(cancelled.has_value()) << err;
  EXPECT_TRUE(cancelled->cancelled);

  WireRequest wait;
  wait.verb = "wait";
  wait.ticket = ticket;
  const auto done = client.call(wait, &err);
  ASSERT_TRUE(done.has_value()) << err;
  ASSERT_TRUE(done->result.has_value());
  EXPECT_EQ(done->result->state, "cancelled");

  // A second cancel of a terminal ticket is a no-op, not an error.
  const auto again = client.call(cancel, &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_FALSE(again->cancelled);
  fx.svc.resume();
}

// --- tenant quota over the wire ----------------------------------------------

TEST(TenantQuota, EnforcedOverTheWireWithRetryAfter) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_live_per_tenant = 1;
  cfg.start_paused = true;
  ServerFixture fx(cfg);
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;

  WireRequest first = submit_builtin("fig9");
  first.tenant = "alice";
  const auto ok1 = client.call(first, &err);
  ASSERT_TRUE(ok1.has_value()) << err;
  EXPECT_EQ(ok1->state, "queued");

  WireRequest second = submit_builtin("fig10");
  second.tenant = "alice";
  const auto over = client.call(second, &err);
  ASSERT_TRUE(over.has_value()) << err;
  EXPECT_EQ(over->state, "rejected");
  EXPECT_GT(over->retry_after_seconds, 0.0);
  EXPECT_NE(over->reject_reason.find("tenant"), std::string::npos);

  WireRequest other = submit_builtin("fig10");
  other.tenant = "bob";
  const auto ok2 = client.call(other, &err);
  ASSERT_TRUE(ok2.has_value()) << err;
  EXPECT_EQ(ok2->state, "queued") << "quota must not spill across tenants";

  fx.svc.resume();
  WireRequest wait;
  wait.verb = "wait";
  wait.ticket = ok1->tickets.front();
  const auto done = client.call(wait, &err);
  ASSERT_TRUE(done.has_value()) << err;
  EXPECT_EQ(done->result->state, "completed");
}

// --- drain verb ---------------------------------------------------------------

TEST(DrainVerb, DrainsThenRejectsFurtherSubmits) {
  ServerFixture fx;
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;

  const auto submitted = client.call(submit_builtin("fig9"), &err);
  ASSERT_TRUE(submitted.has_value()) << err;
  ASSERT_EQ(submitted->state, "queued");

  WireRequest drain;
  drain.verb = "drain";
  const auto drained = client.call(drain, &err);
  ASSERT_TRUE(drained.has_value()) << err;
  EXPECT_EQ(drained->state, "drained");

  // The admitted request reached its natural terminal state...
  WireRequest status;
  status.verb = "status";
  status.ticket = submitted->tickets.front();
  const auto st = client.call(status, &err);
  ASSERT_TRUE(st.has_value()) << err;
  ASSERT_TRUE(st->result.has_value());
  EXPECT_EQ(st->result->state, "completed");

  // ...and the pool now sheds everything new.
  const auto late = client.call(submit_builtin("fig10"), &err);
  ASSERT_TRUE(late.has_value()) << err;
  EXPECT_EQ(late->state, "rejected");
  EXPECT_FALSE(late->reject_reason.empty());
}

// --- correlation-id multiplexing ---------------------------------------------

TEST(Multiplexing, BlockedWaitsDoNotStallTheConnection) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  ServerFixture fx(cfg);
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;

  const auto a = client.call(submit_builtin("fig9"), &err);
  const auto b = client.call(submit_builtin("fig10"), &err);
  ASSERT_TRUE(a && b);
  ASSERT_EQ(a->state, "queued");
  ASSERT_EQ(b->state, "queued");

  // Two waits go out first; both block server-side (workers are paused).
  WireRequest wait_a;
  wait_a.id = 101;
  wait_a.verb = "wait";
  wait_a.ticket = a->tickets.front();
  WireRequest wait_b;
  wait_b.id = 102;
  wait_b.verb = "wait";
  wait_b.ticket = b->tickets.front();
  ASSERT_EQ(client.send(wait_a, &err), 101u) << err;
  ASSERT_EQ(client.send(wait_b, &err), 102u) << err;

  // A ping sent *after* both waits answers first: the reader thread is not
  // stalled behind the blocking verbs.
  WireRequest ping;
  ping.id = 103;
  ping.verb = "ping";
  ASSERT_EQ(client.send(ping, &err), 103u) << err;
  const auto pong = client.wait_for(103, &err);
  ASSERT_TRUE(pong.has_value()) << err;
  EXPECT_TRUE(pong->ok);

  // Unpark the worker; collect the wait answers in reverse submission order.
  fx.svc.resume();
  const auto done_b = client.wait_for(102, &err);
  ASSERT_TRUE(done_b.has_value()) << err;
  EXPECT_EQ(done_b->result->state, "completed");
  const auto done_a = client.wait_for(101, &err);
  ASSERT_TRUE(done_a.has_value()) << err;
  EXPECT_EQ(done_a->result->state, "completed");
}

// --- waiter-thread reaping ----------------------------------------------------

/// Lines of /proc/self/maps: every live or exited-but-unjoined thread keeps
/// its stack (and guard page) mapped.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(Waiters, FinishedWaitsAreJoinedOnLongConnections) {
  ServerFixture fx;
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;
  const WireResult first = solve_over_wire(client, "fig9");
  ASSERT_EQ(first.state, "completed");

  WireRequest wait;
  wait.verb = "wait";
  wait.ticket = first.ticket;
  const std::size_t before = mapping_count();
  for (int i = 0; i < 512; ++i) {
    const auto done = client.call(wait, &err);
    ASSERT_TRUE(done.has_value()) << err;
    ASSERT_EQ(done->result->state, "completed");
  }
  // Unreaped, 512 finished waiters would add about two mappings each.
  EXPECT_LT(mapping_count(), before + 64);
}

// --- malformed peers ----------------------------------------------------------

/// Minimal raw TCP client for speaking deliberately broken bytes.
struct RawConn {
  int fd = -1;

  /// `rcvbuf` > 0 shrinks the receive buffer (set before connect, so the
  /// advertised window is small too).
  explicit RawConn(int port, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf > 0) ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void send_bytes(const std::string& bytes) const {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads one response frame off the raw socket; nullopt on EOF.
  std::optional<WireResponse> read_response() {
    std::string payload;
    while (!decoder.next(&payload)) {
      if (decoder.error() != FrameDecoder::Error::kNone) return std::nullopt;
      char buf[512];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      decoder.feed(buf, static_cast<std::size_t>(n));
    }
    std::string err;
    return decode_response(payload, &err);
  }

  /// True when the server closed its end (EOF).
  bool peer_closed() const {
    char buf[64];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    return n == 0;
  }

  FrameDecoder decoder;
};

TEST(MalformedPeer, BadVersionByteGetsErrorFrameThenClose) {
  ServerFixture fx;
  RawConn conn(fx.server.port());
  ASSERT_GE(conn.fd, 0);

  std::string frame = encode_frame(R"({"v":"partita-wire-v1","verb":"ping"})");
  frame[4] = 0x7f;  // corrupt the version byte
  conn.send_bytes(frame);

  const auto resp = conn.read_response();
  ASSERT_TRUE(resp.has_value()) << "expected one final error frame";
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->error.kind, kProtocolErrorKind);
  EXPECT_TRUE(conn.peer_closed()) << "framing error must close the connection";

  // The server itself survives: a fresh, well-behaved client still works.
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;
  WireRequest ping;
  ping.verb = "ping";
  const auto pong = client.call(ping, &err);
  ASSERT_TRUE(pong.has_value()) << err;
  EXPECT_TRUE(pong->ok);
  EXPECT_GE(fx.server.stats().protocol_errors, 1u);
}

TEST(MalformedPeer, OversizedLengthPrefixClosesConnection) {
  ServerFixture fx;
  RawConn conn(fx.server.port());
  ASSERT_GE(conn.fd, 0);
  // Claims a 2 GiB frame; the server must refuse from the header alone.
  const char header[4] = {0x7f, char(0xff), char(0xff), char(0xff)};
  conn.send_bytes(std::string(header, 4));
  const auto resp = conn.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->ok);
  EXPECT_TRUE(conn.peer_closed());
}

TEST(MalformedPeer, BadJsonKeepsConnectionAlive) {
  ServerFixture fx;
  RawConn conn(fx.server.port());
  ASSERT_GE(conn.fd, 0);

  conn.send_bytes(encode_frame("{definitely not json"));
  const auto err_resp = conn.read_response();
  ASSERT_TRUE(err_resp.has_value());
  EXPECT_FALSE(err_resp->ok);
  EXPECT_EQ(err_resp->error.kind, kProtocolErrorKind);

  // Same connection, now a well-formed ping: the JSON error was contained.
  conn.send_bytes(encode_frame(R"({"v":"partita-wire-v1","id":5,"verb":"ping"})"));
  const auto pong = conn.read_response();
  ASSERT_TRUE(pong.has_value()) << "connection must survive a JSON error";
  EXPECT_TRUE(pong->ok);
  EXPECT_EQ(pong->id, 5u);
}

TEST(MalformedPeer, UnknownVerbAndWorkloadAreContained) {
  ServerFixture fx;
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;

  WireRequest bad_verb;
  bad_verb.verb = "frobnicate";
  const auto r1 = client.call(bad_verb, &err);
  ASSERT_TRUE(r1.has_value()) << err;
  EXPECT_FALSE(r1->ok);
  EXPECT_EQ(r1->error.kind, kProtocolErrorKind);

  WireRequest bad_workload = submit_builtin("no_such_workload");
  const auto r2 = client.call(bad_workload, &err);
  ASSERT_TRUE(r2.has_value()) << err;
  EXPECT_FALSE(r2->ok);
  EXPECT_NE(r2->error.message.find("unknown workload"), std::string::npos);

  // Connection still healthy after both.
  WireRequest ping;
  ping.verb = "ping";
  const auto pong = client.call(ping, &err);
  ASSERT_TRUE(pong.has_value()) << err;
  EXPECT_TRUE(pong->ok);
}

// --- wait hooks ----------------------------------------------------------------

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

WireRequest wait_verb(std::uint64_t id, std::uint64_t ticket) {
  WireRequest w;
  w.id = id;
  w.verb = "wait";
  w.ticket = ticket;
  return w;
}

/// One round trip on `client`: every frame sent before it has been handled
/// by the server's reader once this returns.
void sync_ping(WireClient& client) {
  WireRequest ping;
  ping.verb = "ping";
  std::string err;
  const auto pong = client.call(ping, &err);
  ASSERT_TRUE(pong.has_value()) << err;
}

TEST(WaitHooks, InFlightWaitsAddNoThread) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  ServerFixture fx(cfg);
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;
  const auto submitted = client.call(submit_builtin("fig9"), &err);
  ASSERT_TRUE(submitted.has_value()) << err;
  ASSERT_EQ(submitted->state, "queued");
  const std::uint64_t ticket = submitted->tickets.front();

  const std::size_t before = thread_count();
  constexpr std::uint64_t kWaits = 64;
  for (std::uint64_t i = 1; i <= kWaits; ++i) {
    ASSERT_EQ(client.send(wait_verb(1000 + i, ticket), &err), 1000 + i) << err;
  }
  sync_ping(client);
  EXPECT_EQ(thread_count(), before) << "a pending wait must not hold a thread";

  fx.svc.resume();
  for (std::uint64_t i = 1; i <= kWaits; ++i) {
    const auto done = client.wait_for(1000 + i, &err);
    ASSERT_TRUE(done.has_value()) << err;
    ASSERT_TRUE(done->result.has_value());
    EXPECT_EQ(done->result->state, "completed");
  }
}

TEST(WaitHooks, DrainThenStopDeliversThePendingAnswerBeforeEof) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  ServerFixture fx(cfg);
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;
  const auto submitted = client.call(submit_builtin("fig9"), &err);
  ASSERT_TRUE(submitted.has_value()) << err;
  ASSERT_EQ(client.send(wait_verb(77, submitted->tickets.front()), &err), 77u) << err;
  sync_ping(client);  // the wait's hook is registered

  fx.svc.drain();  // returns after the hook wrote the answer
  fx.server.stop();

  const auto answer = client.recv(&err);
  ASSERT_TRUE(answer.has_value()) << "stop() cut the pending answer: " << err;
  EXPECT_EQ(answer->id, 77u);
  ASSERT_TRUE(answer->result.has_value());
  EXPECT_EQ(answer->result->state, "completed");
  EXPECT_FALSE(client.recv(&err).has_value()) << "expected EOF after stop()";
}

TEST(WaitHooks, PeerThatStopsReadingIsHungUpAndHoldsNoWorker) {
  service::ServiceConfig cfg;
  cfg.workers = 1;  // the one worker writes every wait answer
  cfg.start_paused = true;
  ServerFixture fx(cfg);
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;
  const auto stuck_job = client.call(submit_builtin("gsm_encoder"), &err);
  ASSERT_TRUE(stuck_job.has_value()) << err;
  ASSERT_EQ(stuck_job->state, "queued");

  // A peer with a tiny receive window piles up waits on the queued ticket
  // and never reads. The answers (~450 B each) overflow its window and the
  // server's send buffer -- which loopback TCP autotunes up to 4 MB, hence
  // this many -- so the worker writing them blocks until the send timeout.
  RawConn stuck(fx.server.port(), /*rcvbuf=*/2048);
  ASSERT_GE(stuck.fd, 0);
  constexpr std::uint64_t kWaits = 10000;
  const std::uint64_t frames_before = fx.server.stats().frames_in;
  std::string burst;
  for (std::uint64_t i = 1; i <= kWaits; ++i) {
    burst += encode_frame(encode_request(wait_verb(i, stuck_job->tickets.front())));
  }
  burst += encode_frame(R"({"v":"partita-wire-v1","id":999,"verb":"ping"})");
  stuck.send_bytes(burst);
  // The trailing ping is counted only after every wait before it was handled.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server.stats().frames_in < frames_before + kWaits + 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "waits never registered";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Another client's request, queued behind the stuck peer's ticket, still
  // completes soon: the 2 s send timeout, the two solves and encoding the
  // stuck peer's answers (with slack for sanitizer builds).
  const auto other = client.call(submit_builtin("fig9"), &err);
  ASSERT_TRUE(other.has_value()) << err;
  ASSERT_EQ(other->state, "queued");
  const auto t0 = std::chrono::steady_clock::now();
  fx.svc.resume();
  const auto done = client.call(wait_verb(0, other->tickets.front()), &err);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_TRUE(done.has_value()) << err;
  ASSERT_TRUE(done->result.has_value());
  EXPECT_EQ(done->result->state, "completed");
  EXPECT_LT(seconds, 10.0);

  // The stuck peer was hung up: draining what reached it ends in EOF.
  const timeval patience{10, 0};
  ::setsockopt(stuck.fd, SOL_SOCKET, SO_RCVTIMEO, &patience, sizeof patience);
  ssize_t n = 0;
  char buf[4096];
  while ((n = ::recv(stuck.fd, buf, sizeof buf, 0)) > 0) {
  }
  EXPECT_EQ(n, 0) << "the stuck peer was never hung up";
}

TEST(WaitHooks, HookOutlivesItsPeerAndItsServer) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  service::SolveService svc(cfg);
  auto server = std::make_unique<WireServer>(svc);
  std::string err;
  ASSERT_TRUE(server->start(&err)) << err;

  std::uint64_t ticket = 0;
  {
    WireClient client;
    ASSERT_TRUE(client.connect(server->endpoint(), &err)) << err;
    const auto submitted = client.call(submit_builtin("fig9"), &err);
    ASSERT_TRUE(submitted.has_value()) << err;
    ticket = submitted->tickets.front();
    ASSERT_NE(client.send(wait_verb(5, ticket), &err), 0u) << err;
    sync_ping(client);
  }  // the peer disconnects with its wait pending

  server->stop();
  server.reset();  // the pending hook now holds the session's last reference
  svc.resume();
  svc.drain();  // fires the hook into a shut-down socket
  const auto r = svc.poll(ticket);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->state, service::RequestState::kCompleted);
}

// --- stats verb ---------------------------------------------------------------

TEST(StatsVerb, ExposesServiceSchedulerAndNetCounters) {
  service::ServiceConfig cfg;
  cfg.policy = "priority";
  ServerFixture fx(cfg);
  WireClient client;
  std::string err;
  ASSERT_TRUE(client.connect(fx.server.endpoint(), &err)) << err;

  const WireResult r = solve_over_wire(client, "fig9");
  ASSERT_EQ(r.state, "completed");

  WireRequest stats;
  stats.verb = "stats";
  const auto resp = client.call(stats, &err);
  ASSERT_TRUE(resp.has_value()) << err;
  ASSERT_TRUE(resp->ok);
  EXPECT_EQ(resp->policy, "priority");
  EXPECT_GE(resp->stats.at("submitted"), 1.0);
  EXPECT_GE(resp->stats.at("completed"), 1.0);
  EXPECT_GE(resp->stats.at("sched_picked"), 1.0);
  EXPECT_GE(resp->stats.at("net_frames_in"), 1.0);
  EXPECT_GE(resp->stats.at("net_sessions_accepted"), 1.0);
}

}  // namespace
}  // namespace partita::net
