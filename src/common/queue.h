// Bounded concurrent FIFO queue.
//
// The paper's pipeline synchronizes I/O threads with compute threads
// "through concurrent bounded queues implemented with Pthread condition
// variables" (§4.1). This is the C++ equivalent: a mutex + two condition
// variables, blocking push/pop, plus a close() protocol so consumers drain
// and exit cleanly at end-of-stream.
//
// Shutdown protocol (see DESIGN.md "Shutdown protocol"): close() is
// idempotent and unblocks every waiter; after close(), push fails and pop
// drains the backlog before signalling end-of-stream with nullopt. A stage
// that stops consuming a queue early MUST close it, or an upstream
// producer blocked on a full queue never wakes.
//
// Thread-safety discipline: `items_`/`closed_` are SARBP_GUARDED_BY the
// queue mutex and every wait is an explicit while-loop over that guarded
// state, so Clang's -Wthread-safety verifies the locking at compile time
// (DESIGN.md §10). Push results are [[nodiscard]]: a dropped item on
// close/timeout is a branch every caller must handle.
//
// Constructing with a name registers depth/watermark gauges and
// pushed/popped/blocked/close counters under "queue.<name>.*" in the
// global obs registry; unnamed queues carry no instrumentation cost.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace sarbp {

template <class T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity, const char* name = nullptr,
                        obs::Registry* metrics = nullptr)
      : capacity_(capacity) {
    ensure(capacity > 0, "BoundedQueue capacity must be positive");
    if constexpr (obs::kEnabled) {
      if (name != nullptr) {
        const std::string prefix = std::string("queue.") + name + ".";
        auto& reg = metrics != nullptr ? *metrics : obs::registry();
        depth_ = &reg.gauge(prefix + "depth");
        pushed_ = &reg.counter(prefix + "pushed");
        popped_ = &reg.counter(prefix + "popped");
        blocked_push_ = &reg.counter(prefix + "blocked_push");
        blocked_pop_ = &reg.counter(prefix + "blocked_pop");
        close_events_ = &reg.counter(prefix + "close");
      }
    }
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false if the queue was closed (item dropped).
  [[nodiscard]] bool push(T item) {
    MutexLock lock(mutex_);
    if (items_.size() >= capacity_ && !closed_) {
      if (blocked_push_) blocked_push_->add();
      while (items_.size() >= capacity_ && !closed_) not_full_.wait(lock);
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    if (depth_) depth_->set(static_cast<std::int64_t>(items_.size()));
    if (pushed_) pushed_->add();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Deadline-aware push: waits up to `timeout` for space. Returns false on
  /// timeout (item dropped, queue still full) or once the queue is closed —
  /// whichever comes first. A close() during the wait wins over the
  /// deadline: the call returns false immediately, like push().
  template <class Rep, class Period>
  [[nodiscard]] bool try_push_for(T item,
                                  std::chrono::duration<Rep, Period> timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mutex_);
    if (items_.size() >= capacity_ && !closed_) {
      if (blocked_push_) blocked_push_->add();
      while (items_.size() >= capacity_ && !closed_) {
        // timeout: the caller's try_push_for budget.
        if (not_full_.wait_until(lock, deadline) == std::cv_status::timeout &&
            items_.size() >= capacity_ && !closed_) {
          return false;  // deadline passed, still full
        }
      }
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    if (depth_) depth_->set(static_cast<std::int64_t>(items_.size()));
    if (pushed_) pushed_->add();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false when full or closed.
  [[nodiscard]] bool try_push(T item) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (depth_) depth_->set(static_cast<std::int64_t>(items_.size()));
      if (pushed_) pushed_->add();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Returns nullopt once the queue is closed *and*
  /// drained — the end-of-stream signal for consumers.
  std::optional<T> pop() {
    MutexLock lock(mutex_);
    if (items_.empty() && !closed_) {
      if (blocked_pop_) blocked_pop_->add();
      while (items_.empty() && !closed_) not_empty_.wait(lock);
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    if (depth_) depth_->set(static_cast<std::int64_t>(items_.size()));
    if (popped_) popped_->add();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Deadline-aware pop: waits up to `timeout` for an item. Returns nullopt
  /// on timeout *or* end-of-stream (closed and drained); callers that need
  /// to tell the two apart check closed() && size() == 0. Backlog items are
  /// still delivered after close(), exactly like pop().
  template <class Rep, class Period>
  std::optional<T> try_pop_for(std::chrono::duration<Rep, Period> timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mutex_);
    if (items_.empty() && !closed_) {
      if (blocked_pop_) blocked_pop_->add();
      while (items_.empty() && !closed_) {
        // timeout: the caller's try_pop_for budget.
        if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout &&
            items_.empty() && !closed_) {
          return std::nullopt;  // deadline passed, still empty
        }
      }
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    if (depth_) depth_->set(static_cast<std::int64_t>(items_.size()));
    if (popped_) popped_->add();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::optional<T> out;
    {
      MutexLock lock(mutex_);
      if (items_.empty()) return std::nullopt;
      out = std::move(items_.front());
      items_.pop_front();
      if (depth_) depth_->set(static_cast<std::int64_t>(items_.size()));
      if (popped_) popped_->add();
    }
    not_full_.notify_one();
    return out;
  }

  /// Signals end-of-stream: unblocks every waiter; subsequent pushes fail,
  /// pops drain remaining items then return nullopt. Idempotent.
  void close() {
    {
      MutexLock lock(mutex_);
      if (closed_) return;
      closed_ = true;
      if (close_events_) close_events_->add();
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_{SARBP_LOCK_LEVEL("common.queue")};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ SARBP_GUARDED_BY(mutex_);
  bool closed_ SARBP_GUARDED_BY(mutex_) = false;

  // Optional instrumentation (null when unnamed or compiled out). The
  // registry owns the metric objects; these stay valid for process life.
  obs::Gauge* depth_ = nullptr;
  obs::Counter* pushed_ = nullptr;
  obs::Counter* popped_ = nullptr;
  obs::Counter* blocked_push_ = nullptr;
  obs::Counter* blocked_pop_ = nullptr;
  obs::Counter* close_events_ = nullptr;
};

}  // namespace sarbp
