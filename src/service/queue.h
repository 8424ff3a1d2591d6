// A bounded MPMC work queue for the admission pipeline. Producers block
// while the queue is full — backpressure, never drop — and consumers block
// while it is empty. Close() lets consumers drain the backlog and then
// observe shutdown. Condition-variable based: an admission request is tens
// of microseconds of work (perfbench admit-mixed, traced, on a shared
// 4-vCPU host: prepass p50 ~50 us, verify p50 ~17 us), so one lock and one
// notify per request stay a small share of it, and correctness under TSan
// is what matters.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "src/xbase/types.h"

namespace service {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(xbase::usize capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while full. Returns false (item dropped) only after Close().
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    if (items_.size() > peak_depth_) {
      peak_depth_ = items_.size();
    }
    // Notify after unlocking, so the woken consumer does not go straight
    // back to sleep on mu_.
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty; std::nullopt once closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  xbase::usize depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  xbase::usize peak_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_depth_;
  }

  xbase::usize capacity() const { return capacity_; }

 private:
  const xbase::usize capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  xbase::usize peak_depth_ = 0;
};

}  // namespace service
