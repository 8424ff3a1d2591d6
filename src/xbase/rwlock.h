// A striped reader-writer lock for read-mostly tables on the SMP fire path.
//
// A std::shared_mutex shared by every CPU turns each read into two atomic
// read-modify-writes on one cache line that all readers write, so readers
// on different CPUs serialize on the line even though none of them excludes
// another. Here a reader locks only its own stripe — one 64-byte-aligned
// word chosen once per thread — so readers on different threads write
// different lines. A writer locks every stripe, in index order, and so
// excludes every reader; two writers cannot deadlock because they take the
// stripes in the same order. Once a writer holds the lock, no reader that
// began before it is still inside: taking the writer side is a grace
// period.
//
// A stripe is one word: a writer bit, a waiting bit and a reader count. A
// writer sets the writer bit, which turns new readers of the stripe away,
// then waits for the readers inside to leave; a turned-away reader sets the
// waiting bit and waits for the writer bit to clear, so an unlock wakes
// only stripes someone sleeps on. Waits spin briefly, then sleep on the
// word (std::atomic::wait). Writers are preferred, so a reader must not
// re-enter a stripe it already holds: with a writer waiting in between,
// that would deadlock.
//
// Writer acquisitions are counted with relaxed counters on the writer path;
// the reader path counts nothing. StripedCounter, below, applies the same
// per-thread striping to counters bumped on every fire.
#pragma once

#include <array>
#include <atomic>
#include <chrono>

#include "src/xbase/types.h"

namespace xbase {

struct RwLockStats {
  u64 writer_acquires = 0;
  u64 writer_contended = 0;  // acquisitions that waited for a stripe
  u64 writer_wait_ns = 0;    // host time those acquisitions waited
};

inline constexpr usize kThreadStripes = 16;

// The calling thread's stripe in [0, kThreadStripes): threads take stripes
// round-robin on first use, so up to kThreadStripes threads never share
// one. Also indexes other per-thread cells (counters) for the same reason.
inline usize ThisThreadStripe() {
  static std::atomic<usize> next{0};
  thread_local const usize stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kThreadStripes;
  return stripe;
}

// A counter each thread bumps on its own stripe's cache line, so counting
// from many CPUs writes no shared line; reading sums the stripes.
class StripedCounter {
 public:
  void Add(u64 n = 1) {
    cells_[ThisThreadStripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  u64 Sum() const {
    u64 total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<u64> value{0};
  };
  std::array<Cell, kThreadStripes> cells_;
};

class StripedRwLock {
 public:
  StripedRwLock() = default;
  StripedRwLock(const StripedRwLock&) = delete;
  StripedRwLock& operator=(const StripedRwLock&) = delete;

  // Writer side (BasicLockable, so std::lock_guard / std::unique_lock work).
  void lock() {
    bool contended = false;
    std::chrono::steady_clock::time_point start;
    for (Stripe& stripe : stripes_) {
      u32 state = 0;
      // Fast path: no writer and no reader on the stripe.
      if (stripe.state.compare_exchange_strong(state, kWriter,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed)) {
        continue;
      }
      if (!contended) {
        contended = true;
        start = std::chrono::steady_clock::now();
      }
      // Take the writer bit once no other writer holds it...
      for (;;) {
        if ((state & kWriter) != 0) {
          WaitForNoWriter(stripe.state);
          state = stripe.state.load(std::memory_order_relaxed);
          continue;
        }
        if (stripe.state.compare_exchange_weak(state, state | kWriter,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed)) {
          break;
        }
      }
      // ...then wait for the readers already inside to leave.
      for (state = stripe.state.load(std::memory_order_acquire);
           (state & kReaders) != 0;
           state = stripe.state.load(std::memory_order_acquire)) {
        stripe.state.wait(state, std::memory_order_acquire);
      }
    }
    writer_acquires_.fetch_add(1, std::memory_order_relaxed);
    if (contended) {
      writer_contended_.fetch_add(1, std::memory_order_relaxed);
      writer_wait_ns_.fetch_add(
          static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - start)
                               .count()),
          std::memory_order_relaxed);
    }
  }
  void unlock() {
    for (usize i = kThreadStripes; i-- > 0;) {
      if ((stripes_[i].state.fetch_and(kReaders, std::memory_order_release) &
           kWaiting) != 0) {
        stripes_[i].state.notify_all();
      }
    }
  }

  RwLockStats stats() const {
    return {writer_acquires_.load(std::memory_order_relaxed),
            writer_contended_.load(std::memory_order_relaxed),
            writer_wait_ns_.load(std::memory_order_relaxed)};
  }

  // Reader RAII. `armed` false makes it a no-op: tables that only become
  // shared once worker threads start pay just an untaken branch before
  // then.
  class ReadGuard {
   public:
    explicit ReadGuard(const StripedRwLock& lock, bool armed = true)
        : state_(armed ? &lock.stripes_[ThisThreadStripe()].state
                       : nullptr) {
      if (state_ != nullptr) {
        LockShared(*state_);
      }
    }
    ~ReadGuard() {
      if (state_ != nullptr) {
        LeaveShared(*state_, std::memory_order_release);
      }
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    std::atomic<u32>* state_;
  };

 private:
  static constexpr u32 kWriter = 1u << 31;
  static constexpr u32 kWaiting = 1u << 30;  // someone sleeps until unlock
  static constexpr u32 kReaders = kWaiting - 1;

  struct alignas(64) Stripe {
    std::atomic<u32> state{0};  // kWriter | kWaiting | readers inside
  };

  static void LockShared(std::atomic<u32>& state) {
    for (;;) {
      if ((state.fetch_add(1, std::memory_order_acquire) & kWriter) == 0) {
        return;
      }
      // A writer holds the stripe or is draining it: step back out. The
      // writer may be waiting on the count this thread just raised.
      LeaveShared(state, std::memory_order_relaxed);
      WaitForNoWriter(state);
    }
  }
  static void LeaveShared(std::atomic<u32>& state, std::memory_order order) {
    // The last reader out wakes a writer draining the stripe.
    const u32 before = state.fetch_sub(1, order);
    if ((before & kWriter) != 0 && (before & kReaders) == 1) {
      state.notify_all();
    }
  }
  static void WaitForNoWriter(std::atomic<u32>& state) {
    u32 seen = state.load(std::memory_order_relaxed);
    while ((seen & kWriter) != 0) {
      // Flag the sleep so the writer's unlock knows to wake the stripe.
      if ((seen & kWaiting) == 0 &&
          !state.compare_exchange_weak(seen, seen | kWaiting,
                                       std::memory_order_relaxed)) {
        continue;
      }
      state.wait(seen | kWaiting, std::memory_order_relaxed);
      seen = state.load(std::memory_order_relaxed);
    }
  }

  mutable std::array<Stripe, kThreadStripes> stripes_;
  std::atomic<u64> writer_acquires_{0};
  std::atomic<u64> writer_contended_{0};
  std::atomic<u64> writer_wait_ns_{0};
};

}  // namespace xbase
