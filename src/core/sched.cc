#include "src/core/sched.h"

#include <vector>

#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace safex {

using simkern::RunQueue;
using simkern::SchedCtxLayout;

namespace {
// Watchdog budget for one extension pick. Two orders of magnitude above an
// honest policy's cost (a handful of helper calls at ~20ns each) and one
// below the timeslice it is deciding about.
constexpr xbase::u64 kPickBudgetNs = 100'000;
// Simulated time a dispatched task holds the CPU.
constexpr xbase::u64 kTimesliceNs = simkern::kNsPerMs;
}  // namespace

xbase::Status SchedCore::Init() {
  XB_ASSIGN_OR_RETURN(
      ctx_addr_,
      kernel_.mem().Map(SchedCtxLayout::kSize, simkern::MemPerm::kReadWrite,
                        simkern::RegionKind::kKernelData, "sched_ctx"));
  return xbase::Status::Ok();
}

void SchedCore::WriteCtx() {
  u8 buf[SchedCtxLayout::kSize] = {};
  xbase::StoreLe64(buf + SchedCtxLayout::kNowNs, kernel_.clock().now_ns());
  xbase::StoreLe32(buf + SchedCtxLayout::kNrRunnable,
                   static_cast<xbase::u32>(
                       kernel_.runqueue().runnable_count()));
  xbase::StoreLe32(buf + SchedCtxLayout::kPrevPid, prev_pid_);
  xbase::StoreLe64(buf + SchedCtxLayout::kTick, tick_);
  (void)kernel_.mem().Write(ctx_addr_, buf);
}

void SchedCore::Dispatch(xbase::u32 pid, SchedTickOutcome& outcome) {
  RunQueue& rq = kernel_.runqueue();
  (void)rq.MarkRan(pid, kernel_.clock().now_ns());
  (void)kernel_.tasks().SetCurrent(kernel_.current_cpu(), pid);
  kernel_.clock().Advance(kTimesliceNs);
  // The timeslice is over; the task is runnable again at the tail, which
  // is what makes the default head pick plain round-robin.
  (void)rq.Enqueue(pid, kernel_.clock().now_ns());
  prev_pid_ = pid;
  outcome.ran_pid = pid;
  ++stats_.dispatches;
}

void SchedCore::ReclaimLostTasks() {
  RunQueue& rq = kernel_.runqueue();
  for (xbase::u32 pid : kernel_.tasks().Pids()) {
    if (!rq.Contains(pid)) {
      (void)rq.Enqueue(pid, kernel_.clock().now_ns());
    }
  }
}

void SchedCore::ChargeDeadlineMiss(xbase::u64 now_ns) {
  Supervisor* supervisor = hooks_.supervisor();
  if (supervisor == nullptr) {
    return;
  }
  const HookVerdict* worst = nullptr;
  for (const HookVerdict& verdict : report_.verdicts) {
    if (verdict.skipped || !verdict.status.ok()) {
      continue;  // failures were already charged by the hook layer
    }
    if (worst == nullptr || verdict.cost_ns > worst->cost_ns) {
      worst = &verdict;
    }
  }
  if (worst == nullptr) {
    return;
  }
  supervisor->RecordFailure(
      worst->attachment_id, FailureKind::kDeadlineMiss,
      xbase::StrFormat("pick consumed %llu ns (budget %llu ns)",
                       static_cast<unsigned long long>(worst->cost_ns),
                       static_cast<unsigned long long>(kPickBudgetNs)),
      now_ns);
}

SchedTickOutcome SchedCore::Tick() {
  SchedTickOutcome outcome;
  ++stats_.ticks;
  ++tick_;
  RunQueue& rq = kernel_.runqueue();
  Supervisor* supervisor = hooks_.supervisor();

  if (config_.supervised) {
    // Repair before deciding: every live task is runnable in this kernel,
    // so a task missing from the queue was lost to a double pick or a
    // hostile dequeue last tick (which validation already charged). Doing
    // this first also means a policy that dequeued *everything* cannot
    // wedge the supervised scheduler into permanent idle.
    ReclaimLostTasks();
  }

  if (rq.runnable_count() == 0) {
    outcome.idle = true;
    ++stats_.idle_ticks;
    kernel_.clock().Advance(kTimesliceNs);
    return outcome;
  }

  WriteCtx();

  const bool have_ext = hooks_.AttachedCount(HookPoint::kSchedPickNext) > 0;
  xbase::u32 pick = 0;
  xbase::u32 decider = 0;
  bool pick_ok = false;

  if (have_ext) {
    watchdog_.Arm(kernel_.clock(), kPickBudgetNs);
    hooks_.FireInto(HookPoint::kSchedPickNext, ctx_addr_, report_);
    const xbase::u64 now = kernel_.clock().now_ns();
    outcome.yielded = rq.ConsumeYield();
    pick = static_cast<xbase::u32>(report_.verdict);
    decider = report_.decider;

    if (watchdog_.Expired(kernel_.clock())) {
      outcome.deadline_missed = true;
      ++stats_.deadline_misses;
      if (config_.supervised) {
        ChargeDeadlineMiss(now);
      }
    } else if (outcome.yielded || (decider != 0 && pick == 0)) {
      // Voluntary hand-off to the default policy; not a failure.
      outcome.yielded = true;
      ++stats_.yields;
    } else if (decider != 0) {
      if (!kernel_.tasks().FindByPid(pick).ok()) {
        outcome.invalid_pick = true;
        ++stats_.invalid_picks;
        if (config_.supervised && supervisor != nullptr) {
          supervisor->RecordFailure(
              decider, FailureKind::kInvalidPick,
              xbase::StrFormat("picked dead pid %u", pick), now);
        }
      } else if (!rq.Contains(pick)) {
        outcome.invalid_pick = true;
        ++stats_.invalid_picks;
        if (config_.supervised && supervisor != nullptr) {
          supervisor->RecordFailure(
              decider, FailureKind::kInvalidPick,
              xbase::StrFormat("picked non-runnable pid %u (double pick?)",
                               pick),
              now);
        }
      } else {
        pick_ok = true;
      }
    }
    watchdog_.Disarm();
  }

  if (!have_ext) {
    // No extension: the built-in round-robin policy is *the* policy.
    auto head = rq.PickDefault();
    if (head.ok()) {
      Dispatch(head.value(), outcome);
      ++stats_.default_picks;
    }
  } else if (pick_ok) {
    // A deadline miss leaves pick_ok false even if the pid checks out: a
    // policy that blows its budget loses the decision on principle (a 10ms
    // "pick" is a stall whatever pid it eventually names).
    Dispatch(pick, outcome);
    outcome.from_extension = true;
    ++stats_.ext_picks;
  } else if (config_.supervised || outcome.yielded) {
    // The family's fixed fallback: the built-in round-robin stands in, so
    // the tick still dispatches. A voluntary yield, honoured even without
    // supervision, takes the same path but is not counted as a rescue.
    auto head = rq.PickDefault();
    if (head.ok()) {
      Dispatch(head.value(), outcome);
      if (!outcome.yielded) {
        outcome.fell_back = true;
        ++stats_.fallback_picks;
      }
    }
  } else {
    // Unsupervised: the extension's word is law. A verdict naming a dead
    // or vanished pid dispatches nothing — the CPU burns the slice and
    // every runnable task just waits (the paper's availability gap).
    outcome.stalled = true;
    ++stats_.stalls;
    kernel_.clock().Advance(kTimesliceNs);
  }

  // Starvation scan over the *real* queue. Supervised mode charges the
  // attachment that decided *this* tick — charging a past decider would
  // blame a quarantined extension for waits that accrued while the
  // fallback (or nobody) was steering, re-tripping it on its first
  // probation trial. Unsupervised mode only counts (there is nobody to
  // act on the attribution).
  const xbase::u64 scan_now = kernel_.clock().now_ns();
  const std::vector<xbase::u32> starved =
      rq.ScanStarved(config_.starvation_bound_ns, scan_now);
  outcome.newly_starved = static_cast<xbase::u32>(starved.size());
  stats_.starvation_events += starved.size();
  if (config_.supervised && supervisor != nullptr && decider != 0) {
    for (xbase::u32 pid : starved) {
      supervisor->RecordFailure(
          decider, FailureKind::kStarvation,
          xbase::StrFormat("pid %u runnable but unscheduled for %llu ns",
                           pid,
                           static_cast<unsigned long long>(
                               config_.starvation_bound_ns)),
          scan_now);
    }
  }

  return outcome;
}

}  // namespace safex
