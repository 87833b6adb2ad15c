#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "support/result.hpp"

namespace partita::net {

namespace {

/// Per-frame send timeout on session sockets: workers write `wait` answers,
/// and a peer that stops reading must not hold one.
constexpr int kSendTimeoutSeconds = 2;

/// Writes the whole buffer; false when the peer is gone or the frame is not
/// out in time (SO_SNDTIMEO bounds a blocked send, the deadline a trickle of
/// partial ones). MSG_NOSIGNAL: a gone client must never SIGPIPE the server.
bool send_all(int fd, const std::string& bytes) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(kSendTimeoutSeconds);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
    if (off < bytes.size() && std::chrono::steady_clock::now() > deadline) return false;
  }
  return true;
}

WireResponse protocol_error(std::uint64_t id, const std::string& verb, std::string why) {
  WireResponse e;
  e.id = id;
  e.verb = verb;
  e.ok = false;
  e.error.kind = kProtocolErrorKind;
  e.error.message = std::move(why);
  return e;
}

}  // namespace

struct WireServer::Counters {
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> protocol_errors{0};
};

/// The fd closes with the last holder -- the reader's Connection or a
/// pending wait hook -- so a late hook writes to a shut-down socket, never
/// to a reused descriptor.
struct WireServer::Session {
  Session(int fd_in, std::shared_ptr<Counters> counters_in)
      : fd(fd_in), counters(std::move(counters_in)) {}
  ~Session() { ::close(fd); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const int fd;
  const std::shared_ptr<Counters> counters;
  std::mutex write_mu;
  std::atomic<bool> done{false};  // the reader returned; reap may join it
};

WireServer::WireServer(service::SolveService& svc, ServerConfig cfg)
    : svc_(svc), cfg_(std::move(cfg)), counters_(std::make_shared<Counters>()) {}

WireServer::~WireServer() { stop(); }

bool WireServer::start(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = why + " (" + std::strerror(errno) + ")";
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  };

  const std::string& spec = cfg_.listen;
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      if (error) *error = "listen spec needs tcp:HOST:PORT";
      return false;
    }
    const std::string host = rest.substr(0, colon);
    const int want_port = std::atoi(rest.c_str() + colon + 1);

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return fail("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(want_port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      if (error) *error = "bad listen host '" + host + "'";
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return fail("bind " + spec);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  } else if (spec.rfind("unix:", 0) == 0) {
    unix_path_ = spec.substr(5);
    sockaddr_un addr{};
    if (unix_path_.size() + 1 > sizeof addr.sun_path) {
      if (error) *error = "unix socket path too long";
      return false;
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return fail("socket");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, unix_path_.c_str(), sizeof addr.sun_path - 1);
    ::unlink(unix_path_.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return fail("bind " + spec);
    }
  } else {
    if (error) *error = "listen spec must be tcp:HOST:PORT or unix:PATH";
    return false;
  }

  if (::listen(listen_fd_, 64) != 0) return fail("listen");
  started_ = true;
  accept_thread_ = std::thread([this] { accept_main(); });
  return true;
}

std::string WireServer::endpoint() const {
  if (!unix_path_.empty()) return "unix:" + unix_path_;
  return "tcp:127.0.0.1:" + std::to_string(port_);
}

void WireServer::stop() {
  if (!started_ || stopping_.exchange(true)) {
    // Never started, or a previous stop already ran to completion.
    if (started_ && accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Wake the accept loop (shutdown on a listening socket unblocks accept on
  // Linux, which plain close does not reliably do), then join it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());

  // Kick every session's socket so its reader sees EOF, then join the
  // readers. Sessions with pending waits live on in their hooks.
  std::list<Connection> sessions;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (Connection& c : sessions) ::shutdown(c.session->fd, SHUT_RDWR);
  for (Connection& c : sessions) c.reader.join();
}

ServerStats WireServer::stats() const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  ServerStats s = stats_;
  s.frames_in = counters_->frames_in.load();
  s.frames_out = counters_->frames_out.load();
  s.protocol_errors = counters_->protocol_errors.load();
  s.active_sessions = sessions_.size();
  return s;
}

void WireServer::accept_main() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener is gone; nothing to accept on anymore
    }
    std::lock_guard<std::mutex> lk(sessions_mu_);
    reap_finished_locked();
    if (sessions_.size() >= cfg_.max_sessions) {
      ++stats_.sessions_refused;
      send_all(fd, encode_frame(encode_response(
                       protocol_error(0, "", "server session limit reached"))));
      ::close(fd);
      continue;
    }
    ++stats_.sessions_accepted;
    const timeval send_timeout{kSendTimeoutSeconds, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof send_timeout);
    auto session = std::make_shared<Session>(fd, counters_);
    sessions_.push_back({session, std::thread([this, session] { session_main(session); })});
  }
}

void WireServer::reap_finished_locked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->session->done.load()) {
      it->reader.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void WireServer::session_main(const std::shared_ptr<Session>& session) {
  FrameDecoder decoder;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(session->fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    decoder.feed(buf, static_cast<std::size_t>(n));
    std::string payload;
    while (decoder.next(&payload)) {
      ++counters_->frames_in;
      handle_payload(session, payload);
    }
    if (decoder.error() != FrameDecoder::Error::kNone) {
      // The stream is desynchronized: answer once, then hang up. Unlike a
      // JSON-level error, nothing after a framing error is trustworthy.
      ++counters_->protocol_errors;
      send_response(*session, protocol_error(0, "", decoder.error_message()));
      break;
    }
  }
  // Hang up so the peer sees EOF now: after a framing error the client may
  // still be blocked reading, and the fd itself closes with the last holder
  // of the session. Answers to this session's pending waits are dropped.
  ::shutdown(session->fd, SHUT_RDWR);
  session->done.store(true);
}

void WireServer::handle_payload(const std::shared_ptr<Session>& session,
                                const std::string& payload) {
  std::string why;
  std::optional<WireRequest> req = decode_request(payload, &why);
  if (!req) {
    // A JSON-level error answers and keeps the connection: the framing is
    // intact, so subsequent frames are still trustworthy.
    ++counters_->protocol_errors;
    send_response(*session, protocol_error(0, "", why));
    return;
  }

  if (req->verb == "wait") {
    // No thread waits for the ticket: whoever finalizes it writes the
    // answer, and the reader moves on to the next frame.
    svc_.on_terminal(req->ticket,
                     [session, id = req->id](const service::SolveResponse& r) {
                       WireResponse resp;
                       resp.id = id;
                       resp.verb = "wait";
                       resp.result = to_wire(r);
                       send_response(*session, resp);
                     });
    return;
  }

  send_response(*session, handle_inline(*req));
}

WireResponse WireServer::handle_inline(const WireRequest& req) {
  WireResponse resp;
  resp.id = req.id;
  resp.verb = req.verb;

  if (req.verb == "ping") {
    return resp;
  }
  if (req.verb == "submit") {
    service::SolveRequest sreq;
    std::string why;
    if (!to_service_request(req, &sreq, &why)) {
      return protocol_error(req.id, req.verb, why);
    }
    const service::SubmitOutcome outcome = svc_.submit(std::move(sreq));
    resp.tickets = outcome.tickets;
    resp.state = service::to_string(outcome.state);
    resp.retry_after_seconds = outcome.retry_after_seconds;
    resp.reject_reason = outcome.reject_reason;
    return resp;
  }
  if (req.verb == "cancel") {
    resp.cancelled = svc_.cancel(req.ticket);
    return resp;
  }
  if (req.verb == "drain") {
    svc_.drain();
    resp.state = "drained";
    return resp;
  }
  if (req.verb == "status") {
    std::optional<service::SolveResponse> r = svc_.poll(req.ticket);
    if (!r) {
      resp.ok = false;
      resp.error.kind = support::to_string(support::ErrorKind::kPermanent);
      resp.error.message = "unknown ticket";
      return resp;
    }
    resp.result = to_wire(*r);
    return resp;
  }
  if (req.verb == "stats") {
    const service::ServiceStats s = svc_.stats();
    const service::PolicyStats p = svc_.scheduler_stats();
    const ServerStats n = stats();
    auto& m = resp.stats;
    m["submitted"] = static_cast<double>(s.submitted);
    m["completed"] = static_cast<double>(s.completed);
    m["cancelled"] = static_cast<double>(s.cancelled);
    m["rejected"] = static_cast<double>(s.rejected);
    m["failed"] = static_cast<double>(s.failed);
    m["evicted"] = static_cast<double>(s.evicted);
    m["retries"] = static_cast<double>(s.retries);
    m["peak_queue_depth"] = static_cast<double>(s.peak_queue_depth);
    m["peak_admitted_memory_bytes"] = static_cast<double>(s.peak_admitted_memory_bytes);
    m["batches"] = static_cast<double>(s.batches);
    m["batch_items"] = static_cast<double>(s.batch_items);
    m["batch_amortized_hits"] = static_cast<double>(s.batch_amortized_hits);
    m["cache_lookups"] = static_cast<double>(s.cache_lookups);
    m["cache_hits"] = static_cast<double>(s.cache_hits);
    m["cache_misses"] = static_cast<double>(s.cache_misses);
    m["cache_neighbor_seeds"] = static_cast<double>(s.cache_neighbor_seeds);
    m["cache_insertions"] = static_cast<double>(s.cache_insertions);
    m["cache_evictions"] = static_cast<double>(s.cache_evictions);
    m["cache_stale"] = static_cast<double>(s.cache_stale);
    m["cache_seed_fallbacks"] = static_cast<double>(s.cache_seed_fallbacks);
    m["recovered_requests"] = static_cast<double>(s.recovered_requests);
    m["journal_rejects"] = static_cast<double>(s.journal_rejects);
    m["sched_admitted"] = static_cast<double>(p.admitted);
    m["sched_rejected"] = static_cast<double>(p.rejected);
    m["sched_evicted"] = static_cast<double>(p.evicted);
    m["sched_picked"] = static_cast<double>(p.picked);
    m["sched_backfills"] = static_cast<double>(p.backfills);
    m["sched_aged_promotions"] = static_cast<double>(p.aged_promotions);
    m["sched_queued"] = static_cast<double>(p.queued);
    m["net_sessions_accepted"] = static_cast<double>(n.sessions_accepted);
    m["net_sessions_refused"] = static_cast<double>(n.sessions_refused);
    m["net_frames_in"] = static_cast<double>(n.frames_in);
    m["net_frames_out"] = static_cast<double>(n.frames_out);
    m["net_protocol_errors"] = static_cast<double>(n.protocol_errors);
    m["net_active_sessions"] = static_cast<double>(n.active_sessions);
    resp.policy = svc_.policy_name();
    return resp;
  }

  return protocol_error(req.id, req.verb, "unknown verb '" + req.verb + "'");
}

void WireServer::send_response(Session& session, const WireResponse& resp) {
  const std::string frame = encode_frame(encode_response(resp));
  std::lock_guard<std::mutex> lk(session.write_mu);
  if (send_all(session.fd, frame)) {
    ++session.counters->frames_out;
    return;
  }
  // Gone, stuck past the send timeout, or cut mid-frame: the stream cannot
  // resume, so hang up. The reader sees EOF and ends the session; dropped
  // answers stay in the service for a later `status`.
  ::shutdown(session.fd, SHUT_RDWR);
}

}  // namespace partita::net
