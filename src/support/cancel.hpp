// Cooperative cancellation.
//
// A CancelSource owns a shared flag; every CancelToken handed out from it
// observes cancel() immediately (release/acquire). The token is threaded into
// ilp::ResourceBudget and consulted only at branch & bound *wave boundaries*,
// so cancelling a running solve never interrupts a node LP: the request
// terminates within one wave of the cancel becoming visible, which bounds
// cancellation latency by one node LP of `ilp::kMaxLpIterations` pivots.
//
// Tokens are cheap value types (one shared_ptr); a default-constructed token
// can never be cancelled, so budget checks cost one branch when no caller
// asked for cancellability.
#pragma once

#include <atomic>
#include <memory>

namespace partita::support {

class CancelSource;

class CancelToken {
 public:
  /// A token that can never be cancelled (the disengaged default).
  CancelToken() = default;

  bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancelToken token() const { return CancelToken(flag_); }

  /// Sticky: once cancelled, every token stays cancelled forever.
  void cancel() { flag_->store(true, std::memory_order_release); }

  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace partita::support
