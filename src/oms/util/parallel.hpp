/// \file parallel.hpp
/// \brief Thread-count helpers (hardware thread discovery, the "0 = all
///        hardware threads" convention) plus the bounded blocking queue that
///        carries batches between the stream producer and the consumers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "oms/util/assert.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/io_error.hpp"

namespace oms {

/// Number of hardware threads (>= 1).
[[nodiscard]] inline int hardware_threads() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

/// Clamp a requested thread count: 0 means "all hardware threads".
[[nodiscard]] inline int resolve_threads(int requested) noexcept {
  if (requested <= 0) {
    return hardware_threads();
  }
  return requested;
}

/// Bounded blocking FIFO for producer/consumer pipelines (SPSC through MPMC;
/// every operation is mutex-guarded). Backpressure is built in: push() blocks
/// while the queue holds \p capacity elements, so a fast disk reader cannot
/// run arbitrarily far ahead of slow consumers.
///
/// Shutdown protocol: close() wakes every blocked thread. A push() on a
/// closed queue returns false and leaves the value untouched; pop() keeps
/// draining buffered elements and returns false only once the queue is both
/// closed and empty. This lets a failing side unblock the other without
/// losing in-flight work, and is what the streaming pipeline relies on to
/// surface an IoError raised mid-stream instead of deadlocking.
///
/// abort() is the error-path variant of close(): it additionally discards the
/// buffered elements, so a consumer that failed mid-batch does not leave
/// siblings chewing through stale work before they notice the shutdown.
///
/// A watchdog (set_watchdog) bounds every blocking wait: if the peer side is
/// dead — a producer that crashed without closing, a consumer stuck in a
/// syscall — the wait times out and throws IoError instead of deadlocking the
/// process forever. Disabled (0) by default; the pipeline arms it from
/// PipelineConfig.
template <typename T>
class BoundedQueue {
public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    OMS_ASSERT_MSG(capacity > 0, "BoundedQueue needs capacity >= 1");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Bound every subsequent blocking wait to \p timeout; 0 disables (plain
  /// untimed waits). Call before the producer/consumer threads start.
  void set_watchdog(std::chrono::milliseconds timeout) {
    const std::lock_guard<std::mutex> lock(mutex_);
    watchdog_ = timeout;
  }

  /// Blocks while full; false (value untouched) if the queue is closed.
  /// Throws IoError if the watchdog expires while waiting.
  [[nodiscard]] bool push(T&& value) {
    std::unique_lock<std::mutex> lock(mutex_);
    wait_guarded(lock, not_full_,
                 [this] { return items_.size() < capacity_ || closed_; },
                 "push (consumers stalled?)");
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty; false once the queue is closed *and* drained.
  /// Throws IoError if the watchdog expires while waiting.
  [[nodiscard]] bool pop(T& out) {
    fault_sleep(FaultSite::kQueueDelay);
    std::unique_lock<std::mutex> lock(mutex_);
    wait_guarded(lock, not_empty_,
                 [this] { return !items_.empty() || closed_; },
                 "pop (producer stalled?)");
    if (items_.empty()) {
      return false;
    }
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Irreversible; wakes every blocked push() and pop().
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// close() plus discard of all buffered elements: the error-path shutdown.
  /// Every blocked push()/pop() returns false immediately (nothing left to
  /// drain), so sibling workers stop at their next queue operation.
  void abort() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      items_.clear();
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
  /// Wait for \p ready under \p lock, bounded by the watchdog when armed.
  /// Spurious progress (any state change) rearms the timeout, so only a
  /// genuinely dead peer trips it.
  template <typename Pred>
  void wait_guarded(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                    Pred ready, const char* what) {
    if (watchdog_.count() == 0) {
      cv.wait(lock, ready);
      return;
    }
    if (!cv.wait_for(lock, watchdog_, ready)) {
      closed_ = true;
      items_.clear();
      not_empty_.notify_all();
      not_full_.notify_all();
      throw IoError(std::string("BoundedQueue watchdog timeout in ") + what);
    }
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::chrono::milliseconds watchdog_{0};
  bool closed_ = false;
};

} // namespace oms
