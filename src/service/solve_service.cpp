#include "service/solve_service.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <utility>

#include "oracle/fixture.hpp"
#include "service/journal.hpp"
#include "support/assert.hpp"
#include "support/fault_injection.hpp"

namespace partita::service {

SolveService::SolveService(ServiceConfig config)
    : cfg_(std::move(config)),
      clock_(cfg_.clock ? *cfg_.clock : support::Clock::system()) {
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
  std::unique_lock<std::mutex> lk(mu_);
  SubmitOutcome out = submit_locked(std::move(request));
  run_hooks(lk);  // tickets the rejecter evicted for this arrival
  return out;
}

SubmitOutcome SolveService::submit_locked(SolveRequest request) {
  SubmitOutcome out;

  if (request.required_gains.empty()) request.required_gains.push_back(-1);
  const std::size_t n = request.required_gains.size();
  const std::string base =
      request.label.empty() ? request.workload.name : request.label;
  request.priority = clamp_priority(request.priority);

  out.tickets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ticket = ++next_ticket_;
    Entry& e = entries_[ticket];
    e.response.ticket = ticket;
    e.response.label = n > 1 ? base + "#" + std::to_string(i) : base;
    e.response.recovered = request.recovered;
    e.tenant = request.tenant;
    out.tickets.push_back(ticket);
  }
  stats_.submitted += n;
  if (request.recovered) ++stats_.recovered_requests;
  // A refused submit turns every ticket terminal at once. Retry-after
  // derives from the observed drain rate: a fast-draining pool invites a
  // quick retry, a slow one proportionally later.
  const auto reject_all = [&](std::string why) {
    const double hint = retry_after_hint_locked();
    for (const std::uint64_t t : out.tickets) {
      Entry& e = entries_.at(t);
      e.response.retry_after_seconds = hint;
      e.response.error = support::Error::transient(why);
      finalize_locked(e, RequestState::kRejected);
    }
    out.state = RequestState::kRejected;
    out.retry_after_seconds = hint;
    out.reject_reason = std::move(why);
    return out;
  };

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

  if (!reject.empty()) return reject_all(std::move(reject));

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
      reject_all("journal append failed; request was not acknowledged");
      // The policy already admitted the ticket; retract it.
      policy_->on_complete(out.tickets.front(), RequestState::kRejected,
                           clock_.now_micros());
      return out;
    }
  }

  const std::uint64_t job = out.tickets.front();
  for (const std::uint64_t t : out.tickets) {
    Entry& e = entries_.at(t);
    e.live = true;
    e.response.state = RequestState::kQueued;
    // The first ticket owns the admission charge (later items carry none);
    // an individually-cancelled first item releases it early, which only
    // makes admission more permissive, never blocks it.
    e.memory_charge = t == job ? charge : 0;
    e.job = job;
    e.journal_seq = jseq;
    ++live_per_tenant_[e.tenant];
  }
  admitted_memory_ += charge;
  live_count_ += n;
  if (n > 1) {
    ++stats_.batches;
    stats_.batch_items += n;
  }
  request.journal_seq = jseq;  // names the job's quarantine record
  request.journal_payload.clear();
  jobs_.emplace(job, std::move(request));
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, policy_->queued());
  stats_.peak_admitted_memory_bytes =
      std::max(stats_.peak_admitted_memory_bytes, admitted_memory_);
  work_cv_.notify_one();
  return out;
}

void SolveService::shed_queued_locked(std::uint64_t job, const std::string& why) {
  const double hint = retry_after_hint_locked();
  const auto jit = jobs_.find(job);
  if (jit == jobs_.end()) return;
  for (std::uint64_t t = job; t < job + jit->second.required_gains.size(); ++t) {
    Entry& e = entries_.at(t);
    if (is_terminal(e.response.state)) continue;
    e.response.retry_after_seconds = hint;
    e.response.error = support::Error::transient(why);
    ++stats_.evicted;
    finalize_locked(e, RequestState::kRejected);
  }
  jobs_.erase(jit);
}

bool SolveService::cancel(std::uint64_t ticket) {
  std::unique_lock<std::mutex> lk(mu_);
  const bool cancelled = cancel_locked(ticket);
  run_hooks(lk);
  return cancelled;
}

bool SolveService::cancel_locked(std::uint64_t ticket) {
  auto it = entries_.find(ticket);
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (is_terminal(e.response.state)) return false;
  if (e.response.state == RequestState::kRunning) {
    // Signal the token; the worker observes it at the next wave boundary
    // and finalizes the terminal state itself.
    e.cancel.cancel();
    return true;
  }
  e.response.error = support::Error::cancelled("cancelled while queued");
  finalize_locked(e, RequestState::kCancelled);
  // The scheduler holds the job's first ticket as its key, which must
  // survive until every item is terminal (the worker skips cancelled
  // items). Drop the job once the last one goes.
  const auto jit = jobs_.find(e.job);
  if (jit == jobs_.end()) return true;
  for (std::uint64_t t = e.job; t < e.job + jit->second.required_gains.size(); ++t) {
    if (!is_terminal(entries_.at(t).response.state)) return true;
  }
  jobs_.erase(jit);
  policy_->on_complete(e.job, RequestState::kCancelled, clock_.now_micros());
  return true;
}

void SolveService::on_terminal(std::uint64_t ticket, TerminalHook hook) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = entries_.find(ticket);
  if (it != entries_.end() && !is_terminal(it->second.response.state)) {
    it->second.hooks.push_back(std::move(hook));
    return;
  }
  SolveResponse r;
  if (it != entries_.end()) {
    r = it->second.response;
  } else {
    r.ticket = ticket;
    r.state = RequestState::kFailed;
    r.error = support::Error{"unknown ticket", {}};
  }
  lk.unlock();
  hook(r);
}

SolveResponse SolveService::wait(std::uint64_t ticket) {
  // Shared with the hook: the finalizing thread may still hold it after
  // get() has returned here.
  const auto answer = std::make_shared<std::promise<SolveResponse>>();
  std::future<SolveResponse> done = answer->get_future();
  on_terminal(ticket, [answer](const SolveResponse& r) { answer->set_value(r); });
  return done.get();
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
  done_cv_.wait(lk, [&] { return live_count_ == 0 && hooks_running_ == 0; });
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
    s.cache_misses = cs.misses;
    s.cache_neighbor_seeds = cs.neighbor_hits;
    s.cache_insertions = cs.insertions;
    s.cache_evictions = cs.evictions;
    s.cache_stale = cs.stale;
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
    t.item = e.response.ticket - e.job;  // position in the job's ladder
    t.state = to_string(state);
    t.label = e.response.label;
    if (state == RequestState::kCompleted) {
      t.signature = select::solution_signature(e.response.selection);
    }
    cfg_.journal->append_terminal(t);
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
  if (!e.hooks.empty()) {
    fired_.push_back({std::move(e.hooks), e.response});
    e.hooks.clear();
  }
  if (e.live) {
    e.live = false;
    admitted_memory_ -= e.memory_charge;
    if (--live_count_ == 0) done_cv_.notify_all();
    const auto tit = live_per_tenant_.find(e.tenant);
    if (tit != live_per_tenant_.end() && tit->second > 0) {
      if (--tit->second == 0) live_per_tenant_.erase(tit);
    }
    // Only admitted requests feed the drain-rate estimator: their terminal
    // transition frees capacity, which is exactly what the retry-after hint
    // is estimating.
    drain_rate_.record_terminal(clock_.now_micros());
  }
}

void SolveService::run_hooks(std::unique_lock<std::mutex>& lk) {
  if (fired_.empty()) return;
  std::vector<FiredHooks> fired;
  fired.swap(fired_);
  ++hooks_running_;
  lk.unlock();
  for (FiredHooks& f : fired) {
    for (const TerminalHook& hook : f.hooks) hook(f.response);
  }
  fired.clear();  // what the hooks captured is released outside mu_ too
  lk.lock();
  if (--hooks_running_ == 0) done_cv_.notify_all();
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
    const auto jit = jobs_.find(*picked);
    PARTITA_ASSERT_MSG(jit != jobs_.end(), "scheduler picked an unknown job");
    SolveRequest request = std::move(jit->second);
    jobs_.erase(jit);
    ++running_count_;
    run_job(lk, *picked, std::move(request));
    --running_count_;
    policy_->on_complete(*picked, RequestState::kCompleted, clock_.now_micros());
    run_hooks(lk);
  }
}

void SolveService::run_job(std::unique_lock<std::mutex>& lk, std::uint64_t job,
                           SolveRequest request) {
  // A running item: worker-local until it is merged back under mu_, so the
  // shared Entry::response is never written without the lock and poll()
  // snapshots stay race-free.
  struct LiveItem {
    Entry* entry;  // std::map: reference stable across inserts
    SolveResponse response;
    support::CancelToken token;
    std::int64_t gain;
  };
  // Items cancelled while the job sat in the queue are already terminal;
  // everything still live runs now, each under its own cancel token.
  const std::size_t n = request.required_gains.size();
  std::vector<LiveItem> items;
  for (std::size_t i = 0; i < n; ++i) {
    Entry& e = entries_.at(job + i);
    if (is_terminal(e.response.state)) continue;
    e.response.state = RequestState::kRunning;
    items.push_back({&e, e.response, e.cancel.token(), request.required_gains[i]});
  }
  lk.unlock();

  // Per-job jitter seed: deterministic for a ticket, de-correlated across
  // concurrent retries.
  support::RetryPolicy policy = cfg_.retry;
  policy.jitter_seed ^= job;
  for (int attempt = 1;; ++attempt) {
    std::vector<LiveItem*> live;
    std::vector<std::int64_t> gains;
    std::vector<support::CancelToken> tokens;
    for (LiveItem& it : items) {
      if (it.response.state != RequestState::kRunning) continue;
      if (it.token.cancelled()) {
        it.response.error = support::Error::cancelled("request cancelled");
        it.response.state = RequestState::kCancelled;
        continue;
      }
      it.response.attempts = attempt;
      live.push_back(&it);
      gains.push_back(it.gain);
      tokens.push_back(it.token);
    }
    if (live.empty()) break;
    std::string marker;
    support::Result<std::vector<select::Selection>> r =
        run_attempt(request, std::move(gains), tokens, attempt, marker);
    for (LiveItem* it : live) it->response.cache = marker;
    if (r.ok()) {
      for (std::size_t k = 0; k < live.size(); ++k) {
        LiveItem& it = *live[k];
        select::Selection& sel = r.value()[k];
        if (it.token.cancelled() ||
            sel.solver.termination == ilp::TerminationReason::kCancelled) {
          it.response.error = support::Error::cancelled("request cancelled mid-solve");
          it.response.state = RequestState::kCancelled;
        } else {
          it.response.selection = std::move(sel);
          it.response.state = RequestState::kCompleted;
        }
      }
      break;
    }
    const support::Error& err = r.error();
    if (policy.should_retry(err, attempt)) {
      clock_.sleep_micros(policy.backoff_micros(attempt));
      continue;
    }
    // Quarantine: a spec-carrying job leaves one replayable fixture behind,
    // so the exact failing instance can be re-run offline with
    // `partita_fuzz --replay <fixture>`. The file is one CRC-framed
    // partita-journal-v1 quarantine record embedding the
    // partita-oracle-fixture-v1 document -- the same framing the WAL uses,
    // and the replayer accepts both this and the bare-JSON form that
    // partita_fuzz writes for its own repros.
    std::string fixture;
    if (request.spec.has_value() && !cfg_.quarantine_dir.empty()) {
      const std::uint64_t ticket = live.front()->response.ticket;
      const std::string path =
          cfg_.quarantine_dir + "/quarantine_" + std::to_string(ticket) + ".json";
      const std::uint64_t seq = request.journal_seq != 0 ? request.journal_seq : ticket;
      if (Journal::write_quarantine_file(path, seq,
                                         oracle::fixture_json(*request.spec))) {
        fixture = path;
      }
    }
    for (LiveItem* it : live) {
      it->response.error = err;
      it->response.quarantine_fixture = fixture;
      it->response.state = RequestState::kFailed;
    }
    break;
  }

  lk.lock();
  for (LiveItem& it : items) {
    const RequestState state = it.response.state;
    if (n > 1 && state == RequestState::kCompleted) {
      stats_.batch_amortized_hits +=
          static_cast<std::uint64_t>(it.response.selection.solver.batch_hits);
    }
    it.entry->response = std::move(it.response);
    finalize_locked(*it.entry, state);
  }
}

support::Result<std::vector<select::Selection>> SolveService::run_attempt(
    const SolveRequest& req, std::vector<std::int64_t> gains,
    const std::vector<support::CancelToken>& tokens, int attempt,
    std::string& cache_marker) {
  // Crash isolation boundary: nothing a job does -- escaped exceptions,
  // injected faults, allocation failure -- may take a worker down. Every
  // failure becomes a structured Error for the retry/terminal machinery.
  try {
    if (support::fault_should_trip("service.transient")) {
      return support::Error::transient(
          "injected transient service fault (site service.transient)");
    }

    const bool one_item = req.required_gains.size() == 1;
    select::SelectOptions opt = req.options;
    opt.ilp.budget.clock = cfg_.clock;
    // A one-item job's token also stops the derived-gain probe; ladder
    // items get theirs through the per-item hook below.
    if (one_item) opt.ilp.budget.cancel = tokens.front();
    // Retries run on a lower degradation rung: each extra attempt shrinks
    // the node budget 16x, steering the ladder toward gap-bounded / greedy
    // answers so a recurring transient fault still converges to a terminal
    // response instead of re-burning the full search every time.
    for (int k = 1; k < attempt; ++k) {
      opt.ilp.max_nodes = std::max(1, opt.ilp.max_nodes / 16);
    }

    // Only one-item jobs are cached. imp_filter is an opaque callable: its
    // effect IS materialized in the model (forced-zero bounds), but the
    // function itself may close over anything, so filtered requests bypass
    // the cache rather than trust it to be pure.
    const bool cacheable = cache_ != nullptr && one_item && !req.options.imp_filter;
    if (cache_ != nullptr && one_item && !cacheable) cache_marker = "bypass";
    // The key is formed from the request alone, so an exact repeat is
    // answered without building a Flow.
    SolutionCache::Key key;
    if (cacheable) {
      key.tenant = req.tenant;
      key.envelope = envelope_digest(req.workload.module, req.workload.library, opt);
      // The retry-shrunk max_nodes is digested too: retry answers on a lower
      // rung never collide with first-attempt entries.
      key.options_digest = ilp::digest_options(opt.ilp);
      key.gain = gains.front();  // literal: -1 = "derived", itself a pure
                                 // function of (envelope, options)
      if (std::optional<select::Selection> hit = cache_->lookup(key)) {
        cache_marker = "hit";
        return std::vector<select::Selection>{std::move(*hit)};
      }
    }

    auto flow_or = select::Flow::create(req.workload.module, req.workload.library);
    if (!flow_or.ok()) return flow_or.error();  // permanent: bad input
    const select::Selector& selector = flow_or.value()->selector();

    // A negative gain is derived once for the whole job.
    std::optional<std::int64_t> derived;
    for (std::int64_t& g : gains) {
      if (g >= 0) continue;
      if (!derived) derived = selector.max_feasible_gain(opt) / 2;
      g = *derived;
    }

    if (!cacheable) {
      return selector.select_batch(gains, opt, [&](std::size_t i, ilp::IlpOptions& iopt) {
        iopt.budget.cancel = tokens[i];
      });
    }

    // Cache miss: a one-item ladder, started from the nearest cached
    // neighbour's solver artifacts when there is one.
    cache_marker = "miss";
    const std::vector<std::int64_t> uniform(selector.path_count(), gains.front());
    CacheSeed seed;
    if (cfg_.cache_neighbor_seeding) seed = cache_->nearest(key, gains.front());
    ilp::BatchContext ctx = std::move(seed.artifacts);
    ctx.carry_search_state = true;
    bool redone_cold = false;
    select::Selection sel = selector.select_seeded(uniform, opt, &ctx, &redone_cold);
    if (redone_cold) cache_seed_fallbacks_.fetch_add(1);
    // Ordered before the insert: a cancelled solve never populates the
    // cache, even when its search happened to complete under the wire.
    const bool cancelled = tokens.front().cancelled() ||
                           sel.solver.termination == ilp::TerminationReason::kCancelled;
    if (seed.valid && !redone_cold && !cancelled) cache_marker = "neighbor";
    if (!cancelled && !sel.truncated &&
        sel.solver.termination == ilp::TerminationReason::kCompleted) {
      // Only proven answers (optimal or proven-infeasible) are cacheable;
      // truncated rungs depend on the budget that struck and stay uncached.
      cache_->insert(key, sel, std::move(ctx), gains.front());
    }
    return std::vector<select::Selection>{std::move(sel)};
  } catch (const std::exception& ex) {
    return support::Error::transient(std::string("escaped exception: ") + ex.what());
  } catch (...) {
    return support::Error::transient("escaped non-standard exception");
  }
}

}  // namespace partita::service
