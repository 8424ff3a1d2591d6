#include "src/analysis/schedstorm.h"

#include <memory>
#include <set>

#include "src/analysis/storm.h"
#include "src/analysis/workloads.h"
#include "src/core/sched.h"
#include "src/xbase/rand.h"
#include "src/xbase/strfmt.h"

namespace analysis {
namespace {

using safex::Ctx;
using xbase::u32;
using xbase::u64;
using xbase::usize;

// ---- safex scheduler policies (the cross-framework corpus) ----------------

// Signed extension that always yields to the default policy.
class YieldExt : public safex::Extension {
 public:
  xbase::Result<u64> Run(Ctx&) override { return u64{0}; }
};

// Signed extension that panics on every pick.
class PanicPickExt : public safex::Extension {
 public:
  xbase::Result<u64> Run(Ctx& ctx) override {
    ctx.Panic("schedstorm: deliberate pick panic");
    return u64{0};
  }
};

// ---- the rig --------------------------------------------------------------

// Starvation bound handed to every SchedCore under test.
constexpr u64 kStarvationBoundNs = 10 * simkern::kNsPerMs;
// Liveness invariant: no runnable task may ever wait longer than this.
// Generous (200x the bound) because a runnable-filter defect legitimately
// starves the hidden task for a few breaker trips before eviction — the
// invariant is that the wait is *bounded*, unlike the unsupervised loop
// where it grows without limit.
constexpr u64 kMaxWaitNs = 2 * simkern::kNsPerSec;

// The storm rig plus one SchedCore per simulated CPU (Linux-style per-CPU
// runqueues: the kernel's runqueue() accessor resolves to the executing
// CPU's queue), all sharing the kernel, hook registry and supervisor.
struct SchedRig : storm::Rig {
  explicit SchedRig(u32 cpus = 1) : storm::Rig(simkern::kV6_12, cpus) {
    safex::SchedConfig sched_config;
    sched_config.starvation_bound_ns = kStarvationBoundNs;
    for (u32 cpu = 0; sched_ok && Rig::ok() && cpu < kernel.num_cpus();
         ++cpu) {
      cores.push_back(
          std::make_unique<safex::SchedCore>(kernel, *hooks, sched_config));
      sched_ok = cores.back()->Init().ok();
    }
  }

  bool ok() const { return Rig::ok() && sched_ok; }
  safex::SchedCore& sched() { return *cores.front(); }

  // Loads and attaches a sched_ext policy; 0 on failure.
  u32 AttachPolicy(xbase::Result<ebpf::Program> prog) {
    if (!prog.ok()) {
      return 0;
    }
    auto prog_id = loader.Load(prog.value());
    if (!prog_id.ok()) {
      return 0;
    }
    auto id = hooks->AttachProgram(safex::HookPoint::kSchedPickNext,
                                   prog_id.value());
    return id.ok() ? id.value() : 0;
  }

  bool sched_ok = true;
  std::vector<std::unique_ptr<safex::SchedCore>> cores;
};

}  // namespace

SchedStormReport RunSchedStorm(const SchedStormConfig& config) {
  SchedStormReport report;

  xbase::Rng rng(config.seed);
  SchedRig rig(config.cpus);
  if (!rig.ok()) {
    report.failure = "rig construction failed";
    return report;
  }

  // --- policy corpus: loaded once, attached/detached by the dice ---------
  struct CorpusEntry {
    std::string name;
    bool is_safex = false;
    u32 target_id = 0;  // prog id or ext id
  };
  std::vector<CorpusEntry> corpus;
  auto add_prog = [&](const char* name, xbase::Result<ebpf::Program> prog) {
    if (!prog.ok()) {
      return;
    }
    auto id = rig.loader.Load(prog.value());
    if (id.ok()) {
      corpus.push_back(CorpusEntry{name, false, id.value()});
    }
  };
  add_prog("pick_first", BuildSchedPickFirst());
  add_prog("pick_via_default", BuildSchedPickViaDefault());
  add_prog("pick_longest_waiting", BuildSchedPickLongestWaiting());
  add_prog("double_pick", BuildSchedDoublePick());
  add_prog("pick_dead_constant", BuildSchedPickConstant(999999));
  add_prog("yield", BuildSchedYield());

  auto add_ext = [&](const char* name, safex::ExtensionFactory factory) {
    auto artifact = storm::SignArtifact(name, std::move(factory));
    if (!artifact.ok()) {
      return;
    }
    auto id = rig.ext_loader->Load(artifact.value());
    if (id.ok()) {
      corpus.push_back(CorpusEntry{name, true, id.value()});
    }
  };
  add_ext("storm-yield", []() { return std::make_unique<YieldExt>(); });
  add_ext("storm-panic-pick",
          []() { return std::make_unique<PanicPickExt>(); });
  if (corpus.size() < 8) {
    report.failure = "corpus setup failed";
    return report;
  }

  struct LiveAttachment {
    u32 attachment_id;
    usize corpus_index;
  };
  std::vector<LiveAttachment> attachments;
  storm::FaultToggler toggler(
      rig.bpf.faults(),
      {ebpf::kFaultSchedStallLoop, ebpf::kFaultSchedPickInvalidPid,
       ebpf::kFaultSchedRunnableFilter, ebpf::kFaultSchedCrashOnPick},
      report.stats);
  u32 next_pid = 50000;

  // The scheduling invariants, after every op and on every CPU: each
  // runqueue against that CPU's clock. RunOps adds the survival check.
  // Only called once a burst has drained.
  auto check_sched = [&](bool ticked, usize runnable_before,
                         const safex::SchedTickOutcome& outcome)
      -> std::string {
    for (u32 cpu = 0; cpu < rig.kernel.num_cpus(); ++cpu) {
      // Every queued pid must name a live task, exactly once per queue (a
      // task is legitimately on several CPUs' queues: each per-CPU core
      // schedules the full task set, like chaos tenants spanning CPUs).
      const simkern::RunQueue& rq = rig.kernel.runqueue(cpu);
      std::set<u32> seen;
      for (usize i = 0; i < rq.runnable_count(); ++i) {
        const u32 pid = rq.PidAt(i).value();
        if (!rig.kernel.tasks().FindByPid(pid).ok()) {
          return xbase::StrFormat("dead pid %u on cpu%u's runqueue", pid,
                                  cpu);
        }
        if (!seen.insert(pid).second) {
          return xbase::StrFormat("pid %u queued twice on cpu%u", pid, cpu);
        }
      }
      // Bounded waits: the whole point of the containment ladder. Each
      // queue's entries are stamped with its own CPU's clock.
      const u64 max_wait = rq.MaxWaitNs(rig.kernel.clock().now_ns(cpu));
      if (max_wait > report.stats.max_wait_seen_ns) {
        report.stats.max_wait_seen_ns = max_wait;
      }
      if (max_wait > kMaxWaitNs) {
        return xbase::StrFormat(
            "runnable task on cpu%u waiting %llu ns (bound %llu)", cpu,
            static_cast<unsigned long long>(max_wait),
            static_cast<unsigned long long>(kMaxWaitNs));
      }
    }
    // Liveness: a supervised tick with runnable tasks must dispatch one —
    // no pick policy, however hostile, may take the CPU away.
    if (ticked && runnable_before > 0 && outcome.ran_pid == 0) {
      return "supervised tick with runnable tasks dispatched nothing";
    }
    return "";
  };

  const auto step = [&](std::string& op_desc) -> std::string {
    bool ticked = false;
    usize runnable_before = 0;
    safex::SchedTickOutcome outcome;

    const u64 dice = rng.NextBelow(100);
    if (dice < 55) {
      // One scheduling cycle. Reclaim runs inside Tick, so count what is
      // *about to be* runnable — every live task.
      runnable_before = rig.kernel.tasks().size();
      ticked = true;
      if (simkern::CpuPool* pool = rig.kernel.cpus(); pool != nullptr) {
        // Cross-CPU burst: every core ticks concurrently on its own
        // CPU-bound thread, against its own runqueue and clock, through
        // the shared hook registry and supervisor. A fault toggle races
        // the in-flight picks (the registry is atomic), so a defect can
        // switch on mid-burst — exactly the interleaving a real SMP
        // machine produces.
        op_desc = "tick burst";
        std::vector<safex::SchedTickOutcome> outcomes(rig.cores.size());
        for (u32 cpu = 0; cpu < rig.cores.size(); ++cpu) {
          safex::SchedCore* core = rig.cores[cpu].get();
          safex::SchedTickOutcome* slot = &outcomes[cpu];
          pool->Submit(cpu, [core, slot] { *slot = core->Tick(); });
        }
        if (config.toggle_faults && rng.NextBelow(4) == 0) {
          (void)toggler.Toggle();
        }
        pool->Drain();
        // Surface the worst outcome of the burst for the liveness check.
        outcome = outcomes[0];
        for (const safex::SchedTickOutcome& o : outcomes) {
          if (o.ran_pid == 0) {
            outcome = o;
          }
        }
        report.stats.ticks += rig.cores.size();
      } else {
        op_desc = "tick";
        outcome = rig.sched().Tick();
        ++report.stats.ticks;
      }
    } else if (dice < 65) {
      // Keep the per-CPU clocks loosely in step: the storm advances the
      // whole machine, as a global timer interrupt would.
      rig.AdvanceClocks(rng.NextBelow(5 * simkern::kNsPerMs));
      op_desc = "advance clock";
    } else if (dice < 75) {
      // Attach a random corpus policy (duplicates are AlreadyExists no-ops).
      const usize index = rng.NextBelow(corpus.size());
      const CorpusEntry& entry = corpus[index];
      op_desc = "attach " + entry.name;
      if (attachments.size() < 4) {
        auto id = entry.is_safex
                      ? rig.hooks->AttachExtension(
                            safex::HookPoint::kSchedPickNext, entry.target_id)
                      : rig.hooks->AttachProgram(
                            safex::HookPoint::kSchedPickNext, entry.target_id);
        if (id.ok()) {
          attachments.push_back(LiveAttachment{id.value(), index});
          ++report.stats.attaches;
        }
      }
    } else if (dice < 83) {
      if (!attachments.empty()) {
        const usize index = rng.NextBelow(attachments.size());
        op_desc = xbase::StrFormat("detach %u",
                                   attachments[index].attachment_id);
        (void)rig.hooks->Detach(attachments[index].attachment_id);
        attachments.erase(attachments.begin() +
                          static_cast<std::ptrdiff_t>(index));
        ++report.stats.detaches;
      } else {
        op_desc = "detach (none)";
      }
    } else if (dice < 90 && config.toggle_faults) {
      op_desc = toggler.Toggle();
    } else if (dice < 95) {
      const u32 pid = next_pid++;
      op_desc = xbase::StrFormat("create task %u", pid);
      if (rig.kernel.tasks()
              .Create(rig.kernel.mem(), rig.kernel.objects(), pid, pid,
                      "storm")
              .ok()) {
        // Runnable immediately; the reclaim pass would admit it next tick
        // anyway, enqueueing here just stamps the honest arrival time.
        // SMP: land it on a round-robin home CPU, stamped with that CPU's
        // clock (each queue's waits are measured against its own clock).
        const u32 home = pid % rig.kernel.num_cpus();
        (void)rig.kernel.runqueue(home).Enqueue(
            pid, rig.kernel.clock().now_ns(home));
        ++report.stats.task_creates;
        // The new task's reference is the storm's, not a leak.
        rig.Rebaseline();
      }
    } else {
      // Task exit — keep at least two runnable tasks so ticks stay
      // meaningful.
      const std::vector<u32> pids = rig.kernel.tasks().Pids();
      if (pids.size() > 2) {
        const u32 pid = pids[rng.NextBelow(pids.size())];
        op_desc = xbase::StrFormat("exit task %u", pid);
        if (rig.kernel.RemoveTask(pid).ok()) {
          ++report.stats.task_exits;
        }
      } else {
        op_desc = "exit task (too few)";
      }
    }
    return check_sched(ticked, runnable_before, outcome);
  };
  report.failure = rig.RunOps(config.ops, report.stats, step);

  for (const auto& core : rig.cores) {
    const safex::SchedStats& sched_stats = core->stats();
    report.stats.dispatches += sched_stats.dispatches;
    report.stats.ext_picks += sched_stats.ext_picks;
    report.stats.default_picks += sched_stats.default_picks;
    report.stats.fallback_picks += sched_stats.fallback_picks;
    report.stats.yields += sched_stats.yields;
    report.stats.deadline_misses += sched_stats.deadline_misses;
    report.stats.invalid_picks += sched_stats.invalid_picks;
    report.stats.starvation_events += sched_stats.starvation_events;
  }
  report.ok = report.failure.empty();
  return report;
}

// ---- --check-faults: detection & containment per fault class --------------

namespace {

u64 KindCount(const SchedRig& rig, u32 attachment, safex::FailureKind kind) {
  const safex::ExtRecord* record = rig.supervisor->Find(attachment);
  if (record == nullptr) {
    return 0;
  }
  return record->failures_by_kind[static_cast<usize>(kind)];
}

SchedFaultCheck Check(const char* name, bool passed,
                      const std::string& detail) {
  SchedFaultCheck check;
  check.name = name;
  check.passed = passed;
  check.detail = passed ? "" : detail;
  return check;
}

}  // namespace

std::vector<SchedFaultCheck> RunSchedFaultChecks() {
  std::vector<SchedFaultCheck> checks;

  // stall-loop: the pick blows its watchdog deadline; the supervised tick
  // must still dispatch, and the deadline miss must be charged.
  {
    SchedRig rig;
    rig.bpf.faults().Inject(ebpf::kFaultSchedStallLoop);
    const u32 attachment = rig.AttachPolicy(BuildSchedPickViaDefault());
    for (int i = 0; i < 40; ++i) {
      (void)rig.sched().Tick();
    }
    const safex::SchedStats& stats = rig.sched().stats();
    checks.push_back(Check(
        "sched.helper_stall_loop",
        attachment != 0 && stats.deadline_misses > 0 &&
            stats.dispatches == stats.ticks && rig.supervisor->trips() > 0 &&
            KindCount(rig, attachment, safex::FailureKind::kDeadlineMiss) > 0,
        xbase::StrFormat(
            "expected deadline misses charged and every tick dispatched; "
            "got misses=%llu dispatches=%llu/%llu trips=%llu",
            static_cast<unsigned long long>(stats.deadline_misses),
            static_cast<unsigned long long>(stats.dispatches),
            static_cast<unsigned long long>(stats.ticks),
            static_cast<unsigned long long>(rig.supervisor->trips()))));
  }

  // invalid-pid: the buggy peek serves a dead pid; validation must refuse
  // it, charge kInvalidPick, and fail over.
  {
    SchedRig rig;
    rig.bpf.faults().Inject(ebpf::kFaultSchedPickInvalidPid);
    const u32 attachment = rig.AttachPolicy(BuildSchedPickFirst());
    for (int i = 0; i < 20; ++i) {
      (void)rig.sched().Tick();
    }
    const safex::SchedStats& stats = rig.sched().stats();
    checks.push_back(Check(
        "sched.helper_pick_invalid_pid",
        attachment != 0 && stats.invalid_picks > 0 &&
            stats.dispatches == stats.ticks &&
            KindCount(rig, attachment, safex::FailureKind::kInvalidPick) > 0,
        xbase::StrFormat(
            "expected invalid picks contained; got invalid=%llu "
            "dispatches=%llu/%llu",
            static_cast<unsigned long long>(stats.invalid_picks),
            static_cast<unsigned long long>(stats.dispatches),
            static_cast<unsigned long long>(stats.ticks))));
  }

  // runnable-filter: the hidden task must be flagged starving, the charge
  // must land, and quarantine fail-over must rescue it.
  {
    SchedRig rig;
    rig.bpf.faults().Inject(ebpf::kFaultSchedRunnableFilter);
    const u32 attachment = rig.AttachPolicy(BuildSchedPickLongestWaiting());
    const std::vector<u32> pids = rig.kernel.tasks().Pids();
    const u32 hidden = pids.back();
    for (int i = 0; i < 250; ++i) {
      (void)rig.sched().Tick();
    }
    const safex::SchedStats& stats = rig.sched().stats();
    const u64 hidden_runs = rig.kernel.runqueue().StatsOf(hidden).runs;
    checks.push_back(Check(
        "sched.helper_runnable_filter",
        attachment != 0 && stats.starvation_events > 0 &&
            stats.dispatches == stats.ticks && hidden_runs > 0 &&
            KindCount(rig, attachment, safex::FailureKind::kStarvation) > 0,
        xbase::StrFormat(
            "expected starvation detected and hidden pid %u rescued; got "
            "events=%llu hidden_runs=%llu",
            hidden, static_cast<unsigned long long>(stats.starvation_events),
            static_cast<unsigned long long>(hidden_runs))));
  }

  // crash-on-pick: the helper oopses mid-pick; the oops must be contained,
  // attributed to the extension, and the tick must still dispatch.
  {
    SchedRig rig;
    rig.bpf.faults().Inject(ebpf::kFaultSchedCrashOnPick);
    const u32 attachment = rig.AttachPolicy(BuildSchedPickLongestWaiting());
    for (int i = 0; i < 20; ++i) {
      (void)rig.sched().Tick();
    }
    const safex::SchedStats& stats = rig.sched().stats();
    const bool attributed =
        !rig.kernel.oopses().empty() &&
        rig.kernel.oopses().front().attribution.rfind("bpf:", 0) == 0;
    checks.push_back(Check(
        "sched.helper_crash_on_pick",
        attachment != 0 &&
            rig.kernel.state() == simkern::KernelState::kRunning &&
            attributed && stats.dispatches == stats.ticks &&
            KindCount(rig, attachment, safex::FailureKind::kOops) > 0,
        xbase::StrFormat(
            "expected contained attributed oops; kernel %s, %zu oops(es), "
            "dispatches=%llu/%llu",
            rig.kernel.state() == simkern::KernelState::kRunning ? "alive"
                                                                 : "dead",
            rig.kernel.oopses().size(),
            static_cast<unsigned long long>(stats.dispatches),
            static_cast<unsigned long long>(stats.ticks))));
  }

  // double-pick: a policy-level attack (no helper defect) — the dequeued
  // victim must be detected as a non-runnable pick and reclaimed.
  {
    SchedRig rig;
    const u32 attachment = rig.AttachPolicy(BuildSchedDoublePick());
    for (int i = 0; i < 20; ++i) {
      (void)rig.sched().Tick();
    }
    const safex::SchedStats& stats = rig.sched().stats();
    bool all_runnable = true;
    for (u32 pid : rig.kernel.tasks().Pids()) {
      all_runnable = all_runnable && rig.kernel.runqueue().Contains(pid);
    }
    checks.push_back(Check(
        "policy.double_pick",
        attachment != 0 && stats.invalid_picks > 0 &&
            stats.dispatches == stats.ticks && all_runnable,
        xbase::StrFormat(
            "expected double pick contained and victims reclaimed; got "
            "invalid=%llu dispatches=%llu/%llu",
            static_cast<unsigned long long>(stats.invalid_picks),
            static_cast<unsigned long long>(stats.dispatches),
            static_cast<unsigned long long>(stats.ticks))));
  }

  // Clean baselines: with no defect injected, the honest policies must run
  // charge-free — the detectors may not cry wolf.
  struct CleanLeg {
    const char* name;
    xbase::Result<ebpf::Program> (*builder)();
  };
  const CleanLeg clean_legs[] = {
      {"clean.pick_first", BuildSchedPickFirst},
      {"clean.pick_via_default", BuildSchedPickViaDefault},
      {"clean.pick_longest_waiting", BuildSchedPickLongestWaiting},
      {"clean.yield", BuildSchedYield},
  };
  for (const CleanLeg& leg : clean_legs) {
    SchedRig rig;
    const u32 attachment = rig.AttachPolicy(leg.builder());
    for (int i = 0; i < 60; ++i) {
      (void)rig.sched().Tick();
    }
    const safex::SchedStats& stats = rig.sched().stats();
    checks.push_back(Check(
        leg.name,
        attachment != 0 && rig.supervisor->failures() == 0 &&
            stats.deadline_misses == 0 && stats.invalid_picks == 0 &&
            stats.starvation_events == 0 &&
            stats.dispatches == stats.ticks,
        xbase::StrFormat(
            "false positive: failures=%llu misses=%llu invalid=%llu "
            "starved=%llu",
            static_cast<unsigned long long>(rig.supervisor->failures()),
            static_cast<unsigned long long>(stats.deadline_misses),
            static_cast<unsigned long long>(stats.invalid_picks),
            static_cast<unsigned long long>(stats.starvation_events))));
  }

  return checks;
}

}  // namespace analysis
