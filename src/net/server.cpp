#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "support/result.hpp"

namespace partita::net {

namespace {

/// Writes the whole buffer; false when the peer is gone. MSG_NOSIGNAL: a
/// disconnected client must never SIGPIPE the server.
bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
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

WireServer::WireServer(service::SolveService& svc, ServerConfig cfg)
    : svc_(svc), cfg_(std::move(cfg)) {}

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

  // Kick every session's socket so its reader sees EOF, then join. The
  // reader joins its own waiters before returning, so after this loop no
  // thread of ours is alive.
  std::list<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) {
    ::shutdown(s->fd, SHUT_RDWR);
  }
  for (auto& s : sessions) {
    if (s->reader.joinable()) s->reader.join();
    ::close(s->fd);
  }
}

ServerStats WireServer::stats() const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  ServerStats s = stats_;
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
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    sessions_.push_back(std::move(session));
    raw->reader = std::thread([this, raw] { session_main(raw); });
  }
}

void WireServer::reap_finished_locked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      ::close((*it)->fd);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void WireServer::session_main(Session* session) {
  FrameDecoder decoder;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(session->fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    decoder.feed(buf, static_cast<std::size_t>(n));
    std::string payload;
    while (decoder.next(&payload)) {
      {
        std::lock_guard<std::mutex> lk(sessions_mu_);
        ++stats_.frames_in;
      }
      handle_payload(*session, payload);
    }
    if (decoder.error() != FrameDecoder::Error::kNone) {
      // The stream is desynchronized: answer once, then hang up. Unlike a
      // JSON-level error, nothing after a framing error is trustworthy.
      {
        std::lock_guard<std::mutex> lk(sessions_mu_);
        ++stats_.protocol_errors;
      }
      send_response(*session, protocol_error(0, "", decoder.error_message()));
      break;
    }
  }
  // Join in-flight waits before declaring the session finished; they own
  // references into this Session. Only this reader adds waiters.
  std::list<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lk(session->waiters_mu);
    waiters.swap(session->waiters);
  }
  for (Waiter& w : waiters) w.thread.join();
  // Hang up so the peer sees EOF now: after a framing error the client may
  // still be blocked reading, and the fd itself is only closed at reap/stop.
  ::shutdown(session->fd, SHUT_RDWR);
  session->done.store(true);
}

void WireServer::handle_payload(Session& session, const std::string& payload) {
  std::string why;
  std::optional<WireRequest> req = decode_request(payload, &why);
  if (!req) {
    // A JSON-level error answers and keeps the connection: the framing is
    // intact, so subsequent frames are still trustworthy.
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      ++stats_.protocol_errors;
    }
    send_response(session, protocol_error(0, "", why));
    return;
  }

  if (req->verb == "wait" || req->verb == "drain") {
    // Blocking verbs get their own thread: the reader stays free to serve
    // further frames on this connection (the point of id multiplexing).
    // Finished waiters are joined first, so a connection holds at most its
    // in-flight ones.
    std::lock_guard<std::mutex> lk(session.waiters_mu);
    session.waiters.remove_if([](Waiter& w) {
      if (!w.done.load()) return false;
      w.thread.join();
      return true;
    });
    Waiter& waiter = session.waiters.emplace_back();
    waiter.thread = std::thread([this, &session, &waiter, r = *req] {
      WireResponse resp;
      resp.id = r.id;
      resp.verb = r.verb;
      if (r.verb == "wait") {
        resp.result = to_wire(svc_.wait(r.ticket));
      } else {
        svc_.drain();
        resp.state = "drained";
      }
      send_response(session, resp);
      waiter.done.store(true);
    });
    return;
  }

  send_response(session, handle_immediate(*req));
}

WireResponse WireServer::handle_immediate(const WireRequest& req) {
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
    m["cache_memo_hits"] = static_cast<double>(s.cache_memo_hits);
    m["cache_memo_entries"] = static_cast<double>(s.cache_memo_entries);
    m["cache_gain_memo_entries"] = static_cast<double>(s.cache_gain_memo_entries);
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
  bool sent = false;
  {
    std::lock_guard<std::mutex> lk(session.write_mu);
    sent = send_all(session.fd, frame);
  }
  if (sent) {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    ++stats_.frames_out;
  }
  // A vanished client is not an error: its terminal states live on in the
  // service and the response is simply dropped.
}

}  // namespace partita::net
