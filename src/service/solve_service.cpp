#include "service/solve_service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "ilp/checkpoint.hpp"
#include "oracle/fixture.hpp"
#include "service/journal.hpp"
#include "support/assert.hpp"
#include "support/fault_injection.hpp"
#include "support/io.hpp"

namespace partita::service {

SolveService::SolveService(ServiceConfig config)
    : cfg_(std::move(config)),
      clock_(cfg_.clock ? *cfg_.clock : support::Clock::system()),
      drain_rate_(cfg_.retry_after_seconds) {
  PARTITA_ASSERT_MSG(cfg_.workers >= 1, "SolveService needs at least one worker");
  SchedulerLimits limits;
  limits.max_queue_depth = cfg_.max_queue_depth;
  limits.max_admitted_memory_bytes = cfg_.max_admitted_memory_bytes;
  limits.workers = cfg_.workers;
  policy_ = SchedulerPolicy::create(cfg_.policy, limits);
  if (!policy_) policy_ = SchedulerPolicy::create("fifo", limits);
  if (cfg_.cache_enabled) {
    SolutionCache::Config cc;
    cc.capacity = cfg_.cache_capacity;
    cc.max_bytes = cfg_.cache_max_bytes;
    cache_ = std::make_unique<SolutionCache>(cc);
  }
  if (!cfg_.checkpoint_dir.empty()) support::io::make_dirs(cfg_.checkpoint_dir);
  paused_ = cfg_.start_paused;
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

SolveService::~SolveService() { shutdown(); }

double SolveService::retry_after_hint_locked() const {
  return drain_rate_.retry_after_seconds(policy_->queued(), cfg_.workers);
}

SubmitOutcome SolveService::submit(SolveRequest request) {
  std::lock_guard<std::mutex> g(mu_);
  SubmitOutcome out;

  const bool batch = !request.required_gains.empty();
  const std::size_t n = batch ? request.required_gains.size() : 1;
  const std::string base =
      request.label.empty() ? request.workload.name : request.label;
  request.tenant = request.tenant.empty() ? "" : request.tenant;
  request.priority = clamp_priority(request.priority);

  out.tickets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ticket = ++next_ticket_;
    Entry& e = entries_[ticket];
    e.response.ticket = ticket;
    e.response.label = batch ? base + "#" + std::to_string(i) : base;
    e.response.recovered = request.recovered;
    e.tenant = request.tenant;
    out.tickets.push_back(ticket);
  }
  stats_.submitted += n;
  if (request.recovered) ++stats_.recovered_requests;

  // Admission. The memory charge is what the request *declared* it may
  // consume (its solver arena cap), or a conservative default: shedding
  // happens before the work starts, so an oversized instance is rejected
  // with a hint instead of starving every other request in the pool. The
  // queue-depth / memory / class decisions belong to the scheduler policy;
  // the service itself only vetoes drain and tenant quota.
  const std::size_t charge = request.options.ilp.budget.memory_limit_bytes != 0
                                 ? request.options.ilp.budget.memory_limit_bytes
                                 : ServiceConfig::kDefaultMemoryCharge;
  const std::int64_t now = clock_.now_micros();
  std::string reject;
  std::vector<std::uint64_t> evicted;
  if (draining_ || stopping_) {
    reject = "service is draining; request not admitted";
  } else if (cfg_.max_live_per_tenant != 0 &&
             live_per_tenant_[request.tenant] + n > cfg_.max_live_per_tenant) {
    reject = "tenant quota exceeded (" + std::to_string(cfg_.max_live_per_tenant) +
             " live requests for tenant '" + request.tenant + "')";
  } else {
    SchedEntry se;
    se.ticket = out.tickets.front();
    se.seq = se.ticket;  // tickets are handed out in admission order
    se.tenant = request.tenant;
    se.priority = request.priority;
    se.submit_micros = now;
    se.deadline_micros =
        request.deadline_seconds > 0
            ? now + static_cast<std::int64_t>(request.deadline_seconds * 1e6)
            : -1;
    se.memory_charge = charge;
    se.declared_time_seconds = request.options.ilp.budget.time_limit_seconds;
    se.items = n;
    SchedulerLoad load;
    load.running = running_count_;
    load.admitted_memory_bytes = admitted_memory_;
    AdmitDecision d = policy_->admit(se, load);
    if (!d.admitted) {
      reject = std::move(d.reject_reason);
    } else {
      evicted = std::move(d.evicted);
    }
  }

  if (!reject.empty()) {
    // Retry-after derives from the observed drain rate: a fast-draining
    // pool invites a quick retry, a slow one proportionally later.
    const double hint = retry_after_hint_locked();
    for (const std::uint64_t t : out.tickets) {
      Entry& e = entries_.at(t);
      e.response.retry_after_seconds = hint;
      e.response.error = support::Error::transient(reject);
      finalize_locked(e, RequestState::kRejected);
    }
    out.state = RequestState::kRejected;
    out.retry_after_seconds = hint;
    out.reject_reason = std::move(reject);
    return out;
  }

  // Rejecter-policy evictions: queued lower-class tickets shed to make room
  // for this arrival become terminal kRejected right now.
  for (const std::uint64_t victim : evicted) {
    shed_queued_locked(victim,
                       "evicted by a higher-priority arrival (rejecter policy)");
  }

  // Durability: append-before-acknowledge. The admit record must be on
  // stable storage before any ticket escapes this call; a failed append
  // (full disk, injected fault, crash) rejects the request instead -- the
  // caller never received an acknowledgment, so nothing acknowledged is
  // ever lost. Boot-recovery replays arrive with their original seq (their
  // admit record survived compaction) and must not be appended again.
  std::uint64_t jseq = request.journal_seq;
  if (cfg_.journal != nullptr && jseq == 0 && !request.journal_payload.empty()) {
    jseq = cfg_.journal->append_admit(request.journal_payload, n);
    if (jseq == 0) {
      ++stats_.journal_rejects;
      const double hint = retry_after_hint_locked();
      for (const std::uint64_t t : out.tickets) {
        Entry& e = entries_.at(t);
        e.response.retry_after_seconds = hint;
        e.response.error = support::Error::transient(
            "journal append failed; request was not acknowledged");
        finalize_locked(e, RequestState::kRejected);
      }
      // The policy already admitted the ticket; retract it.
      policy_->on_complete(out.tickets.front(), RequestState::kRejected,
                           clock_.now_micros());
      out.state = RequestState::kRejected;
      out.retry_after_seconds = hint;
      out.reject_reason = "journal append failed; request was not acknowledged";
      return out;
    }
  }

  const std::uint64_t leader = out.tickets.front();
  for (std::size_t i = 0; i < out.tickets.size(); ++i) {
    const std::uint64_t t = out.tickets[i];
    Entry& e = entries_.at(t);
    e.live = true;
    e.response.state = RequestState::kQueued;
    // The leader owns the admission charge (batch members carry none); an
    // individually-cancelled leader releases it early, which only makes
    // admission more permissive, never blocks it.
    e.memory_charge = t == leader ? charge : 0;
    e.batch_leader = batch ? leader : 0;
    e.journal_seq = jseq;
    e.journal_item = i;
    ++live_per_tenant_[e.tenant];
  }
  admitted_memory_ += charge;
  live_count_ += n;
  if (batch) {
    BatchJob job;
    job.workload = std::move(request.workload);
    job.options = std::move(request.options);
    job.gains = std::move(request.required_gains);
    job.tickets = out.tickets;
    jobs_.emplace(leader, std::move(job));
    ++stats_.batches;
    stats_.batch_items += n;
  } else {
    request.journal_seq = jseq;  // keys this request's checkpoint file
    entries_.at(leader).request = std::move(request);
  }
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, policy_->queued());
  stats_.peak_admitted_memory_bytes =
      std::max(stats_.peak_admitted_memory_bytes, admitted_memory_);
  work_cv_.notify_one();
  return out;
}

void SolveService::shed_queued_locked(std::uint64_t ticket, const std::string& why) {
  const double hint = retry_after_hint_locked();
  const auto shed_one = [&](Entry& e) {
    if (is_terminal(e.response.state)) return;
    e.response.retry_after_seconds = hint;
    e.response.error = support::Error::transient(why);
    ++stats_.evicted;
    finalize_locked(e, RequestState::kRejected);
  };
  const auto jit = jobs_.find(ticket);
  if (jit != jobs_.end()) {
    for (const std::uint64_t t : jit->second.tickets) shed_one(entries_.at(t));
    jobs_.erase(jit);
    return;
  }
  shed_one(entries_.at(ticket));
}

bool SolveService::cancel(std::uint64_t ticket) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = entries_.find(ticket);
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (is_terminal(e.response.state)) return false;
  if (e.response.state == RequestState::kQueued) {
    e.response.error = support::Error::cancelled("cancelled while queued");
    finalize_locked(e, RequestState::kCancelled);
    if (e.batch_leader == 0) {
      // Single request: drop it from the scheduler's pending set.
      policy_->on_complete(ticket, RequestState::kCancelled, clock_.now_micros());
      return true;
    }
    // Batch member: the scheduler holds the leader ticket as the job key,
    // which must survive until every member is terminal (the worker skips
    // already-cancelled members). Drop the job once the last one goes.
    const auto jit = jobs_.find(e.batch_leader);
    if (jit != jobs_.end()) {
      bool any_live = false;
      for (const std::uint64_t t : jit->second.tickets) {
        if (!is_terminal(entries_.at(t).response.state)) {
          any_live = true;
          break;
        }
      }
      if (!any_live) {
        jobs_.erase(jit);
        policy_->on_complete(e.batch_leader, RequestState::kCancelled,
                             clock_.now_micros());
      }
    }
    return true;
  }
  // Running: signal the token; the worker observes it at the next wave
  // boundary and finalizes the terminal state itself.
  e.cancel.cancel();
  return true;
}

SolveResponse SolveService::wait(std::uint64_t ticket) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = entries_.find(ticket);
  if (it == entries_.end()) {
    SolveResponse r;
    r.ticket = ticket;
    r.state = RequestState::kFailed;
    r.error = support::Error{"unknown ticket", {}};
    return r;
  }
  done_cv_.wait(lk, [&] { return is_terminal(it->second.response.state); });
  return it->second.response;
}

std::optional<SolveResponse> SolveService::poll(std::uint64_t ticket) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = entries_.find(ticket);
  if (it == entries_.end()) return std::nullopt;
  return it->second.response;
}

void SolveService::resume() {
  std::lock_guard<std::mutex> g(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

void SolveService::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  // Graceful: stop admission, then let the workers flush everything already
  // admitted to its natural terminal state. Callers wanting a fast abort
  // cancel their tickets first; solves are bounded by their own budgets, so
  // the flush terminates.
  draining_ = true;
  paused_ = false;  // parked queues must flush, not hang
  work_cv_.notify_all();
  done_cv_.wait(lk, [&] { return live_count_ == 0; });
  // Quiesced: every admit is paired with a terminal record, so compaction
  // collapses the journal to one empty segment for the next boot.
  if (cfg_.journal != nullptr && cfg_.journal->is_open()) cfg_.journal->compact();
}

void SolveService::shutdown() {
  drain();
  {
    std::lock_guard<std::mutex> g(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

ServiceStats SolveService::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  ServiceStats s = stats_;
  if (cache_ != nullptr) {
    const CacheStats cs = cache_->stats();
    s.cache_lookups = cs.lookups;
    s.cache_hits = cs.hits;
    s.cache_memo_hits = cs.memo_hits;
    s.cache_misses = cs.misses;
    s.cache_neighbor_seeds = cs.neighbor_hits;
    s.cache_insertions = cs.insertions;
    s.cache_evictions = cs.evictions;
    s.cache_stale = cs.stale;
    s.cache_memo_entries = cs.memo_entries;
    s.cache_gain_memo_entries = cs.gain_memo_entries;
  }
  s.cache_seed_fallbacks = cache_seed_fallbacks_.load();
  return s;
}

void SolveService::invalidate_cache() {
  if (cache_ != nullptr) cache_->invalidate_all();
}

std::string SolveService::export_cache_snapshot() const {
  return cache_ != nullptr ? cache_->export_snapshot() : std::string();
}

std::size_t SolveService::import_cache_snapshot(const std::string& data) {
  return cache_ != nullptr ? cache_->import_snapshot(data) : 0;
}

std::string SolveService::checkpoint_path(std::uint64_t journal_seq) const {
  return cfg_.checkpoint_dir + "/ckpt_" + std::to_string(journal_seq) + ".bin";
}

PolicyStats SolveService::scheduler_stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return policy_->stats();
}

const char* SolveService::policy_name() const {
  std::lock_guard<std::mutex> g(mu_);
  return policy_->name();
}

void SolveService::finalize_locked(Entry& e, RequestState state) {
  e.response.state = state;
  // Durability: the terminal record pairs with the admit and lets boot
  // compaction drop this entry. Best-effort -- a lost terminal record (fault
  // site journal.trim, crash) only means the admit replays on recovery, so
  // execution is at-least-once while acknowledgment stays exactly-once.
  if (e.journal_seq != 0 && cfg_.journal != nullptr) {
    JournalTerminal t;
    t.seq = e.journal_seq;
    t.item = e.journal_item;
    t.state = to_string(state);
    t.label = e.response.label;
    if (state == RequestState::kCompleted) {
      t.signature = select::solution_signature(e.response.selection);
    }
    cfg_.journal->append_terminal(t);
    if (!cfg_.checkpoint_dir.empty() && e.batch_leader == 0) {
      support::io::remove_file(checkpoint_path(e.journal_seq));
    }
  }
  switch (state) {
    case RequestState::kCompleted: ++stats_.completed; break;
    case RequestState::kCancelled: ++stats_.cancelled; break;
    case RequestState::kRejected: ++stats_.rejected; break;
    case RequestState::kFailed: ++stats_.failed; break;
    default: PARTITA_ASSERT_MSG(false, "finalize on a non-terminal state");
  }
  stats_.retries +=
      static_cast<std::uint64_t>(std::max(0, e.response.attempts - 1));
  if (e.live) {
    e.live = false;
    admitted_memory_ -= e.memory_charge;
    --live_count_;
    const auto tit = live_per_tenant_.find(e.tenant);
    if (tit != live_per_tenant_.end() && tit->second > 0) {
      if (--tit->second == 0) live_per_tenant_.erase(tit);
    }
    // Only admitted requests feed the drain-rate estimator: their terminal
    // transition frees capacity, which is exactly what the retry-after hint
    // is estimating.
    drain_rate_.record_terminal(clock_.now_micros());
  }
  e.request = SolveRequest();  // release the workload: terminal entries keep
                               // only their (small) response
  done_cv_.notify_all();
}

void SolveService::worker_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] {
      return stopping_ || (!paused_ && policy_->queued() > 0);
    });
    if (stopping_) return;
    const std::optional<std::uint64_t> picked =
        policy_->pick_next(clock_.now_micros());
    if (!picked.has_value()) continue;
    const std::uint64_t ticket = *picked;
    ++running_count_;
    const auto jit = jobs_.find(ticket);
    if (jit != jobs_.end()) {
      BatchJob job = std::move(jit->second);
      jobs_.erase(jit);
      run_batch(lk, std::move(job));
      --running_count_;
      policy_->on_complete(ticket, RequestState::kCompleted, clock_.now_micros());
      continue;
    }
    Entry& e = entries_.at(ticket);  // std::map: reference stable across inserts
    e.response.state = RequestState::kRunning;
    SolveResponse local = e.response;  // worker-private while running
    lk.unlock();
    // Outside the lock the worker reads e.request (mutated only at
    // finalize, which only this worker can now trigger) and writes `local`;
    // the shared response stays lock-protected for poll()/wait().
    const RequestState terminal = run_request(e.request, e.cancel, local);
    lk.lock();
    e.response = std::move(local);
    finalize_locked(e, terminal);
    --running_count_;
    policy_->on_complete(ticket, terminal, clock_.now_micros());
  }
}

void SolveService::run_batch(std::unique_lock<std::mutex>& lk, BatchJob job) {
  // Members cancelled while the batch sat in the queue are already terminal;
  // everything still live runs now, each under its own cancel token.
  std::vector<std::uint64_t> active;
  std::vector<support::CancelToken> tokens;
  std::vector<std::int64_t> gains;
  for (std::size_t i = 0; i < job.tickets.size(); ++i) {
    Entry& e = entries_.at(job.tickets[i]);
    if (is_terminal(e.response.state)) continue;
    e.response.state = RequestState::kRunning;
    active.push_back(job.tickets[i]);
    tokens.push_back(e.cancel.token());
    gains.push_back(job.gains[i]);
  }
  lk.unlock();

  // Crash isolation: like run_attempt, nothing a batch does may take the
  // worker down. Batch items share one attempt -- no retry ladder; a batch
  // failure marks every remaining item failed with the same error.
  std::vector<select::Selection> sels;
  support::Error batch_error;
  bool failed = false;
  if (!active.empty()) {
    try {
      if (support::fault_should_trip("service.transient")) {
        batch_error = support::Error::transient(
            "injected transient service fault (site service.transient)");
        failed = true;
      } else {
        auto flow_or =
            select::Flow::create(job.workload.module, job.workload.library);
        if (!flow_or.ok()) {
          batch_error = flow_or.error();
          failed = true;
        } else {
          select::Flow& flow = *flow_or.value();
          select::SelectOptions opt = job.options;
          opt.ilp.budget.clock = cfg_.clock;
          std::int64_t derived = -1;
          for (std::int64_t& g : gains) {
            if (g < 0) {
              if (derived < 0) derived = flow.max_feasible_gain(opt) / 2;
              g = derived;  // derived once, amortized across the batch
            }
          }
          sels = flow.selector().select_batch(
              gains, opt, [&](std::size_t item, ilp::IlpOptions& iopt) {
                iopt.budget.cancel = tokens[item];
              });
        }
      }
    } catch (const std::exception& ex) {
      batch_error =
          support::Error::transient(std::string("escaped exception: ") + ex.what());
      failed = true;
    } catch (...) {
      batch_error = support::Error::transient("escaped non-standard exception");
      failed = true;
    }
  }

  lk.lock();
  for (std::size_t i = 0; i < active.size(); ++i) {
    Entry& e = entries_.at(active[i]);
    e.response.attempts = 1;
    if (failed) {
      e.response.error = batch_error;
      finalize_locked(e, RequestState::kFailed);
      continue;
    }
    select::Selection& sel = sels[i];
    if (tokens[i].cancelled() ||
        sel.solver.termination == ilp::TerminationReason::kCancelled) {
      e.response.error = support::Error::cancelled("request cancelled mid-batch");
      finalize_locked(e, RequestState::kCancelled);
      continue;
    }
    stats_.batch_amortized_hits += static_cast<std::uint64_t>(sel.solver.batch_hits);
    e.response.selection = std::move(sel);
    finalize_locked(e, RequestState::kCompleted);
  }
}

RequestState SolveService::run_request(const SolveRequest& request,
                                       const support::CancelSource& cancel,
                                       SolveResponse& out) {
  // Per-request jitter seed: deterministic for a ticket, de-correlated
  // across concurrent retries.
  support::RetryPolicy policy = cfg_.retry;
  policy.jitter_seed ^= out.ticket;

  int attempt = 0;
  for (;;) {
    if (cancel.cancelled()) {
      out.error = support::Error::cancelled("request cancelled");
      return RequestState::kCancelled;
    }
    ++attempt;
    out.attempts = attempt;
    support::Result<select::Selection> r =
        run_attempt(request, cancel, attempt, out.cache);
    if (r.ok()) {
      out.selection = r.take();
      return RequestState::kCompleted;
    }
    const support::Error& err = r.error();
    if (err.kind == support::ErrorKind::kCancelled) {
      out.error = err;
      return RequestState::kCancelled;
    }
    if (policy.should_retry(err, attempt)) {
      clock_.sleep_micros(policy.backoff_micros(attempt));
      continue;
    }
    out.error = err;
    // Quarantine: spec-carrying requests leave a replayable fixture behind,
    // so the exact failing instance can be re-run offline with
    // `partita_fuzz --replay <fixture>`. Since the journal landed, the file
    // is one CRC-framed partita-journal-v1 quarantine record embedding the
    // partita-oracle-fixture-v1 document -- the same framing the WAL uses,
    // and the replayer accepts both this and the legacy bare-JSON form.
    if (request.spec.has_value() && !cfg_.quarantine_dir.empty()) {
      const std::string path = cfg_.quarantine_dir + "/quarantine_" +
                               std::to_string(out.ticket) + ".json";
      const std::uint64_t seq =
          request.journal_seq != 0 ? request.journal_seq : out.ticket;
      if (Journal::write_quarantine_file(path, seq,
                                         oracle::fixture_json(*request.spec))) {
        out.quarantine_fixture = path;
      }
    }
    return RequestState::kFailed;
  }
}

support::Result<select::Selection> SolveService::run_attempt(
    const SolveRequest& req, const support::CancelSource& cancel, int attempt,
    std::string& cache_marker) {
  // Crash isolation boundary: nothing a request does -- escaped exceptions,
  // injected faults, allocation failure -- may take a worker down. Every
  // failure becomes a structured Error for the retry/terminal machinery.
  try {
    cache_marker.clear();
    if (support::fault_should_trip("service.transient")) {
      return support::Error::transient(
          "injected transient service fault (site service.transient)");
    }

    select::SelectOptions opt = req.options;
    opt.ilp.budget.cancel = cancel.token();
    opt.ilp.budget.clock = cfg_.clock;
    // Durability: journaled solves snapshot their branch & bound frontier at
    // wave boundaries, and a boot-recovery replay resumes from the last
    // snapshot instead of re-exploring the tree. The solver re-checks
    // resume_compatible against the actual model, so a snapshot taken by a
    // different solve under this seq (e.g. the auxiliary gain probe)
    // silently starts cold. Answers are bit-identical either way
    // (canonical tie-breaking; checkpoint_resume_test proves it).
    ilp::SearchCheckpoint resume_cp;
    if (cfg_.checkpoint_every_waves > 0 && !cfg_.checkpoint_dir.empty() &&
        req.journal_seq != 0) {
      const std::string ckpt = checkpoint_path(req.journal_seq);
      opt.ilp.checkpoint_every_waves = cfg_.checkpoint_every_waves;
      opt.ilp.checkpoint_sink = [ckpt](const ilp::SearchCheckpoint& cp) {
        ilp::write_checkpoint_file(ckpt, cp);
      };
      if (req.recovered && attempt == 1 &&
          ilp::load_checkpoint_file(ckpt, &resume_cp, nullptr)) {
        opt.ilp.resume = &resume_cp;
      }
    }
    // Retries run on a lower degradation rung: each extra attempt shrinks
    // the node budget 16x, steering the ladder toward gap-bounded / greedy
    // answers so a recurring transient fault still converges to a terminal
    // response instead of re-burning the full search every time.
    for (int k = 1; k < attempt; ++k) {
      opt.ilp.max_nodes = std::max(1, opt.ilp.max_nodes / 16);
    }

    // imp_filter is an opaque callable: its effect IS materialized in the
    // model (forced-zero bounds), but the function itself may close over
    // anything, so filtered requests bypass the cache rather than trust it
    // to be pure.
    const bool cacheable = cache_ != nullptr && !req.options.imp_filter;
    SolutionCache::Key key;
    ilp::Fingerprint envelope;
    bool keyed = false;
    if (cacheable) {
      key.tenant = req.tenant;
      // The retry-shrunk max_nodes is digested too: retry answers on a lower
      // rung never collide with first-attempt entries.
      key.options_digest = ilp::digest_options(opt.ilp);
      key.gains = {req.required_gain};  // literal: -1 = "derived", itself a
                                        // pure function of (structure, options)
      // Fast path: an envelope seen before names its structure fingerprint,
      // so an exact repeat is answered without building a Flow. Whatever
      // the lookup says, the key is final: a miss is not probed again.
      envelope = envelope_digest(req.workload.module, req.workload.library, opt);
      if (std::optional<ilp::Fingerprint> structure = cache_->memo_structure(envelope)) {
        key.structure = *structure;
        keyed = true;
        if (std::optional<select::Selection> hit = cache_->lookup(key, true)) {
          cache_marker = "hit";
          return std::move(*hit);
        }
      }
    }

    auto flow_or = select::Flow::create(req.workload.module, req.workload.library);
    if (!flow_or.ok()) return flow_or.error();  // permanent: bad input
    select::Flow& flow = *flow_or.value();

    if (!cacheable) {
      if (cache_ != nullptr) cache_marker = "bypass";
      std::int64_t rg = req.required_gain;
      if (rg < 0) rg = flow.max_feasible_gain(opt) / 2;
      select::Selection sel = flow.select(rg, opt);
      if (cancel.cancelled() ||
          sel.solver.termination == ilp::TerminationReason::kCancelled) {
        return support::Error::cancelled("request cancelled mid-solve");
      }
      return sel;
    }

    // --- read-through solution cache ------------------------------------
    const select::Selector& selector = flow.selector();
    if (!keyed) {
      key.structure = structure_fingerprint(selector, opt);
      cache_->remember_structure(envelope, key.structure);
      if (std::optional<select::Selection> hit = cache_->lookup(key)) {
        cache_marker = "hit";
        return std::move(*hit);
      }
    }
    cache_marker = "miss";

    std::int64_t rg = req.required_gain;
    bool derived = false;
    if (rg < 0) {
      derived = true;
      // Group-level memo: same structure + options => same derived gain, so
      // a near-miss skips the auxiliary max_feasible_gain ILP entirely.
      if (std::optional<std::int64_t> memo = cache_->derived_gain(key)) {
        rg = *memo;
      } else {
        rg = flow.max_feasible_gain(opt) / 2;
      }
    }
    const std::vector<std::int64_t> gains(selector.path_count(), rg);

    ilp::BatchContext ctx;
    ctx.carry_search_state = true;
    bool seeded = false;
    if (cfg_.cache_neighbor_seeding) {
      CacheSeed seed = cache_->nearest(key, gains);
      if (seed.valid) {
        ctx = std::move(seed.artifacts);
        seeded = true;
      }
    }
    select::Selection sel = selector.select_seeded(gains, opt, &ctx);
    if (seeded && sel.truncated &&
        sel.solver.termination != ilp::TerminationReason::kCancelled) {
      // Answer safety: imported artifacts are answer-neutral only for
      // COMPLETED searches -- a truncated seeded search may have explored a
      // different prefix of the tree than a cold one would. Redo cold (fresh
      // context) so the served answer is bit-identical to a cold solve.
      cache_seed_fallbacks_.fetch_add(1);
      ilp::BatchContext cold_ctx;
      cold_ctx.carry_search_state = true;
      sel = selector.select_seeded(gains, opt, &cold_ctx);
      ctx = std::move(cold_ctx);
      seeded = false;
    }
    if (cancel.cancelled() ||
        sel.solver.termination == ilp::TerminationReason::kCancelled) {
      // Ordered before the insert: a cancelled solve never populates the
      // cache, even when its search happened to complete under the wire.
      return support::Error::cancelled("request cancelled mid-solve");
    }
    if (seeded) cache_marker = "neighbor";
    if (!sel.truncated &&
        sel.solver.termination == ilp::TerminationReason::kCompleted) {
      // Only proven answers (optimal or proven-infeasible) are cacheable;
      // truncated rungs depend on the budget that struck and stay uncached.
      cache_->insert(key, sel, std::move(ctx), gains,
                     derived ? std::optional<std::int64_t>(rg) : std::nullopt);
    }
    return sel;
  } catch (const std::exception& ex) {
    return support::Error::transient(std::string("escaped exception: ") + ex.what());
  } catch (...) {
    return support::Error::transient("escaped non-standard exception");
  }
}

}  // namespace partita::service
