#include "support/fault_injection.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

namespace partita::support {

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(std::string_view site, std::uint64_t trip_at, bool sticky,
                        bool crash) {
  auto fresh = std::make_shared<Site>();
  fresh->trip_at = trip_at == 0 ? 1 : trip_at;
  fresh->sticky = sticky;
  fresh->crash = crash;
  std::lock_guard<std::mutex> g(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    sites_.emplace(std::string(site), std::move(fresh));
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  } else {
    it->second = std::move(fresh);  // re-arm: fresh counters
  }
}

FaultSpec arm_fault_spec(std::string_view spec) {
  constexpr std::string_view kCrash = ":crash";
  FaultSpec out;
  if (spec.size() > kCrash.size() && spec.ends_with(kCrash)) {
    out.crash = true;
    spec.remove_suffix(kCrash.size());
  }
  if (const std::size_t colon = spec.rfind(':');
      colon != std::string_view::npos && colon + 1 < spec.size() &&
      spec.find_first_not_of("0123456789", colon + 1) == std::string_view::npos) {
    out.trip_at = std::max<std::uint64_t>(
        1, std::strtoull(std::string(spec.substr(colon + 1)).c_str(), nullptr, 10));
    spec = spec.substr(0, colon);
  }
  out.site = std::string(spec);
  FaultInjector::instance().arm(out.site, out.trip_at, /*sticky=*/true, out.crash);
  return out;
}

void FaultInjector::disarm(std::string_view site) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return;
  sites_.erase(it);
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> g(mu_);
  sites_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::should_trip(std::string_view site) {
  std::shared_ptr<Site> s;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return false;
    s = it->second;
  }
  // Every check is counted -- hits() reports true traffic even after a
  // sticky trip, and concurrent calls never lose a hit (single fetch_add).
  const std::uint64_t n = s->hits.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (s->tripped.load(std::memory_order_acquire)) return true;
  if (n == s->trip_at) {
    // Exactly one thread performs this transition.
    if (s->sticky) s->tripped.store(true, std::memory_order_release);
    if (s->crash) {
      // Simulated power loss: no flushing, no destructors, no exit codes.
      ::kill(::getpid(), SIGKILL);
    }
    return true;
  }
  if (n > s->trip_at) return s->sticky;
  return false;
}

std::uint64_t FaultInjector::hits(std::string_view site) const {
  std::shared_ptr<Site> s;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return 0;
    s = it->second;
  }
  return s->hits.load(std::memory_order_acquire);
}

}  // namespace partita::support
