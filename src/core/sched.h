// Scheduler core: the dispatch loop that delegates its pick-next decision
// to attached extensions (sched_ext-style) and survives every way that
// delegation can go wrong. This is the hook family whose failure mode is
// qualitatively worse than a packet or tracing hook — a bad pick policy
// doesn't drop one event, it takes the CPU away from every task — so the
// supervised loop wraps each pick in four independent defences:
//
//   1. a watchdog deadline armed around the extension pick (a stalling
//      policy is charged kDeadlineMiss, and the tick still dispatches);
//   2. validation of the returned pid (dead pid, non-runnable pid and
//      double-pick are contained and charged kInvalidPick);
//   3. a starvation detector over the real runqueue — not the extension's
//      view of it — that charges kStarvation to the deciding attachment
//      when a runnable task goes unscheduled past the bound;
//   4. fail-over to the built-in round-robin scheduler whenever the
//      extension's verdict cannot stand (and wholesale, once the
//      supervisor quarantines the extension).
//
// The unsupervised loop trusts the extension verbatim: a bad pick stalls
// the tick, a hidden task starves forever. The gap between the two is the
// bench/sched_availability measurement.
#pragma once

#include "src/core/hooks.h"
#include "src/core/watchdog.h"
#include "src/simkern/kernel.h"

namespace safex {

struct SchedConfig {
  // A runnable task waiting longer than this is starving.
  xbase::u64 starvation_bound_ns = 50 * simkern::kNsPerMs;
  // Supervised: contain/charge/fail-over (the four defences above).
  // Unsupervised: trust the extension verbatim.
  bool supervised = true;
};

// What one scheduling cycle did.
struct SchedTickOutcome {
  xbase::u32 ran_pid = 0;        // 0 = nothing dispatched this tick
  bool idle = false;             // runqueue was empty
  bool from_extension = false;   // an extension pick stood
  bool fell_back = false;        // default policy stood in for the extension
  bool deadline_missed = false;  // the pick exceeded its watchdog deadline
  bool invalid_pick = false;     // dead / non-runnable / double-picked pid
  bool yielded = false;          // the extension voluntarily handed off
  bool stalled = false;          // unsupervised only: bad pick, no dispatch
  xbase::u32 newly_starved = 0;  // tasks the detector flagged this tick
};

struct SchedStats {
  xbase::u64 ticks = 0;
  xbase::u64 dispatches = 0;        // ticks that put a task on the CPU
  xbase::u64 ext_picks = 0;         // dispatches decided by an extension
  xbase::u64 default_picks = 0;     // dispatches with no extension attached
  xbase::u64 fallback_picks = 0;    // dispatches rescued by fail-over
  xbase::u64 yields = 0;
  xbase::u64 deadline_misses = 0;
  xbase::u64 invalid_picks = 0;
  xbase::u64 starvation_events = 0;
  xbase::u64 idle_ticks = 0;
  xbase::u64 stalls = 0;            // unsupervised ticks that ran nothing
};

class SchedCore {
 public:
  SchedCore(simkern::Kernel& kernel, HookRegistry& hooks,
            const SchedConfig& config = {})
      : kernel_(kernel), hooks_(hooks), config_(config) {}

  // Maps the scheduler context block extensions read their picks from.
  xbase::Status Init();

  // One scheduling cycle: publish the context, obtain a pick (extension or
  // default policy), validate, dispatch, advance the timeslice, scan for
  // starvation. Total simulated time per tick ~= pick cost + timeslice.
  SchedTickOutcome Tick();

  const SchedStats& stats() const { return stats_; }
  simkern::Addr ctx_addr() const { return ctx_addr_; }
  const SchedConfig& config() const { return config_; }

 private:
  // Publishes now/nr_runnable/prev_pid/tick into the context block.
  void WriteCtx();
  // Puts `pid` on the CPU for one timeslice and re-enqueues it at the tail.
  void Dispatch(xbase::u32 pid, SchedTickOutcome& outcome);
  // Supervised repair: every live task must be on the runqueue at tick end
  // (a double-picked or maliciously dequeued task is re-admitted *after*
  // validation has already charged the extension for losing it).
  void ReclaimLostTasks();
  // Charges the deadline miss to the attachment that consumed the most
  // simulated time among this fire's successful verdicts (the failed ones
  // were already charged by the hook layer for their own failure).
  void ChargeDeadlineMiss(xbase::u64 now_ns);

  simkern::Kernel& kernel_;
  HookRegistry& hooks_;
  SchedConfig config_;
  simkern::Addr ctx_addr_ = 0;
  Watchdog watchdog_;
  HookFireReport report_;  // reused across ticks (zero-alloc steady state)
  SchedStats stats_;
  xbase::u64 tick_ = 0;
  xbase::u32 prev_pid_ = 0;
};

}  // namespace safex
