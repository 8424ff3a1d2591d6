// Extension supervisor: per-attachment health tracking and crash
// containment. The paper's §3 mechanisms (watchdog, stack guard, cleanup
// registry) stop a misbehaving extension *once*; this layer decides what a
// production kernel does with it *afterwards*. Every failure — safex panic,
// watchdog kill, stack overflow, an oops raised while the extension was
// on-CPU, or a resource leak found by the post-invocation audit — is
// attributed to the offending attachment and charged against a sliding
// simulated-time crash budget. Exhausting the budget trips a circuit
// breaker into quarantine with exponential backoff; re-admission goes
// through half-open probation trials; repeated trips evict permanently.
//
// The supervisor is deliberately framework-blind: verified eBPF programs
// and signed safex extensions are supervised identically, which is the
// paper's availability-layer point — a load-time verifier verdict buys no
// runtime availability.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "src/simkern/clock.h"
#include "src/xbase/rwlock.h"
#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace safex {

enum class FailureKind : xbase::u8 {
  kPanic,          // crate violation / explicit Ctx::Panic
  kWatchdog,       // invocation budget exceeded
  kStackOverflow,  // frame-depth guard
  kOops,           // kernel oops raised while the attachment was on-CPU
  kResourceLeak,   // refcount/lock leak found by the post-invocation audit
  kRuntimeError,   // foreign exception or other abnormal termination
  kDeadlineMiss,   // scheduler pick exceeded its armed watchdog deadline
  kInvalidPick,    // scheduler returned a dead/non-runnable/double pick
  kStarvation,     // a runnable task went unscheduled past the bound
};
inline constexpr xbase::usize kFailureKindCount = 9;

enum class ExtHealth : xbase::u8 {
  kHealthy,      // breaker closed, invocations flow
  kQuarantined,  // breaker open until quarantined_until_ns
  kProbation,    // breaker half-open: trial invocations admitted
  kEvicted,      // permanently removed from service
};

std::string_view ExtHealthName(ExtHealth health);

// Failures inside the sliding window that trip the breaker.
inline constexpr xbase::u32 kCrashBudget = 3;

struct SupervisorConfig {
  // The sliding simulated-time window kCrashBudget failures must fall in.
  xbase::u64 window_ns = 100 * simkern::kNsPerMs;
  // Quarantine duration: base * 2^(trips-1), capped.
  xbase::u64 base_backoff_ns = 10 * simkern::kNsPerMs;
  xbase::u64 max_backoff_ns = 10 * simkern::kNsPerSec;
  // Consecutive half-open successes required to close the breaker again.
  xbase::u32 probation_successes = 3;
  // Lifetime trips after which the attachment is permanently evicted.
  xbase::u32 max_trips = 4;
};

struct FailureEvent {
  xbase::u64 at_ns = 0;
  FailureKind kind = FailureKind::kPanic;
  std::string detail;
};

struct ExtRecord {
  // Written under the supervisor's mutex, read without it: `health` by
  // anyone, `quiet` by the fire path, which needs no lock while the record
  // is healthy with an empty failure window (quiet == true).
  std::atomic<ExtHealth> health{ExtHealth::kHealthy};
  std::atomic<bool> quiet{true};
  std::deque<FailureEvent> window;  // failures inside the sliding window
  xbase::u64 quarantined_until_ns = 0;
  xbase::u32 trips = 0;            // lifetime breaker trips
  xbase::u32 probation_left = 0;   // successes still needed to close
  xbase::u64 skips = 0;            // invocations refused by the breaker
  xbase::u64 failures_total = 0;
  xbase::u64 failures_by_kind[kFailureKindCount] = {};
  FailureEvent last_failure;

  // Admitted invocations, counted per thread stripe so fires on different
  // CPUs never write one cache line.
  xbase::StripedCounter invocations;
};

struct AdmitDecision {
  bool allow = true;
  bool probation_trial = false;  // this invocation is a half-open trial
  ExtHealth health = ExtHealth::kHealthy;
};

class Supervisor {
 public:
  explicit Supervisor(const SupervisorConfig& config = {})
      : config_(config) {}

  // Creates the health record for `attachment_id` (or returns the live
  // one). The reference is the attachment's handle for the calls below and
  // stays valid until Forget(attachment_id).
  ExtRecord& Track(xbase::u32 attachment_id);

  // Gate an invocation at simulated time `now_ns`. Quarantine whose backoff
  // has expired transitions to probation here. A healthy record with an
  // empty failure window is admitted without taking the lock.
  AdmitDecision Admit(ExtRecord& record, xbase::u64 now_ns);
  // Report the outcome of an admitted invocation; returns the health after
  // it. Success on a healthy record with an empty window takes no lock.
  ExtHealth RecordSuccess(ExtRecord& record, xbase::u64 now_ns);
  ExtHealth RecordFailure(ExtRecord& record, FailureKind kind,
                          std::string detail, xbase::u64 now_ns);

  // The same, keyed by attachment id and always under the lock. Admit and
  // RecordFailure create a missing record; RecordSuccess ignores one.
  AdmitDecision Admit(xbase::u32 attachment_id, xbase::u64 now_ns);
  void RecordSuccess(xbase::u32 attachment_id, xbase::u64 now_ns);
  void RecordFailure(xbase::u32 attachment_id, FailureKind kind,
                     std::string detail, xbase::u64 now_ns);

  // Drop all state for a detached attachment.
  void Forget(xbase::u32 attachment_id);

  ExtHealth HealthOf(xbase::u32 attachment_id) const;
  // Control-plane/test use only: the pointer is into the record map and is
  // not protected against a concurrent RecordFailure on another CPU. Read
  // it only at quiescent points (after Drain barriers).
  const ExtRecord* Find(xbase::u32 attachment_id) const;

  // Aggregate counters (across all attachments, lifetime).
  xbase::u64 trips() const {
    std::lock_guard<std::mutex> lock(mu_);
    return trips_;
  }
  xbase::u64 evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }
  xbase::u64 readmissions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return readmissions_;
  }
  xbase::u64 failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }
  xbase::u64 skips() const {
    std::lock_guard<std::mutex> lock(mu_);
    return skips_;
  }
  xbase::usize tracked() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  const SupervisorConfig& config() const { return config_; }

  // Structural invariant audit, run by the chaos harness after every step:
  // every record's health, backoff deadline, probation counter, trip count
  // and window ordering must be mutually consistent.
  xbase::Status CheckConsistent(xbase::u64 now_ns) const;

 private:
  // Called with mu_ held.
  AdmitDecision AdmitLocked(ExtRecord& record, xbase::u64 now_ns);
  void RecordSuccessLocked(ExtRecord& record, xbase::u64 now_ns);
  void RecordFailureLocked(ExtRecord& record, FailureKind kind,
                           std::string detail, xbase::u64 now_ns);
  void Trip(ExtRecord& record, xbase::u64 now_ns);
  void PruneWindow(ExtRecord& record, xbase::u64 now_ns);
  xbase::u64 BackoffFor(xbase::u32 trips) const;
  // Republishes `quiet` after a change to the record's health or window.
  static void Publish(ExtRecord& record);

  // Guards the record map, every record's non-atomic fields, every write
  // of `health` and `quiet`, and the aggregate counters: attachments fire —
  // and fail — concurrently from all simulated CPUs.
  mutable std::mutex mu_;
  SupervisorConfig config_;
  std::map<xbase::u32, ExtRecord> records_;
  xbase::u64 trips_ = 0;
  xbase::u64 evictions_ = 0;
  xbase::u64 readmissions_ = 0;
  xbase::u64 failures_ = 0;
  xbase::u64 skips_ = 0;
  // Lifetime counts carried by records since dropped via Forget, so the
  // aggregate counters stay reconcilable against the live records.
  xbase::u64 forgotten_failures_ = 0;
  xbase::u64 forgotten_skips_ = 0;
};

}  // namespace safex
