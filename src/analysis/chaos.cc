#include "src/analysis/chaos.h"

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>

#include "src/analysis/workloads.h"
#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/ebpf/interp.h"
#include "src/xbase/rand.h"
#include "src/xbase/strfmt.h"

namespace analysis {
namespace {

using safex::Ctx;
using xbase::u32;
using xbase::u64;
using xbase::usize;

// ---- hostile safex corpus ------------------------------------------------

// Well-behaved control: returns a fixed verdict.
class ConstExt : public safex::Extension {
 public:
  explicit ConstExt(u64 verdict) : verdict_(verdict) {}
  xbase::Result<u64> Run(Ctx&) override { return verdict_; }

 private:
  u64 verdict_;
};

// Panics on every invocation (crate-violation analogue).
class PanickerExt : public safex::Extension {
 public:
  xbase::Result<u64> Run(Ctx& ctx) override {
    ctx.Panic("chaos: deliberate panic");
    return u64{0};
  }
};

// Panics every `period`-th invocation; healthy otherwise. Exercises the
// probation/readmission path: it can earn its way back after quarantine.
class FlakyExt : public safex::Extension {
 public:
  explicit FlakyExt(u32 period) : period_(period) {}
  xbase::Result<u64> Run(Ctx& ctx) override {
    // One instance is fired from every simulated CPU in --cpus mode.
    if ((calls_.fetch_add(1, std::memory_order_relaxed) + 1) % period_ == 0) {
      ctx.Panic("chaos: periodic fault");
    }
    return u64{0};
  }

 private:
  u32 period_;
  std::atomic<u64> calls_{0};
};

// Burns simulated time until the watchdog kills it.
class WatchdogHogExt : public safex::Extension {
 public:
  xbase::Result<u64> Run(Ctx& ctx) override {
    for (;;) {
      XB_RETURN_IF_ERROR(ctx.Charge(50'000));  // 50 µs per spin
    }
  }
};

// Recurses past the frame-depth guard.
class StackHogExt : public safex::Extension {
 public:
  xbase::Result<u64> Run(Ctx& ctx) override {
    return Recurse(ctx, 0);
  }

 private:
  xbase::Result<u64> Recurse(Ctx& ctx, u32 depth) {
    XB_RETURN_IF_ERROR(ctx.EnterFrame());
    XB_ASSIGN_OR_RETURN(const u64 below, Recurse(ctx, depth + 1));
    ctx.LeaveFrame();
    return below + 1;
  }
};

// Throws a foreign (non-TerminationSignal) exception out of the body.
class ThrowerExt : public safex::Extension {
 public:
  xbase::Result<u64> Run(Ctx&) override {
    throw std::runtime_error("chaos: foreign exception");
  }
};

// ---- the rig -------------------------------------------------------------

struct CorpusProgram {
  std::string name;
  ebpf::Program prog;
};

simkern::KernelConfig ChaosKernelConfig(u32 cpus) {
  simkern::KernelConfig config;
  config.unprivileged_bpf_disabled = false;
  if (cpus > 1) {
    config.num_cpus = cpus;
  }
  return config;
}

int MustMap(safex::System& rig, ebpf::MapType type, const char* name,
            u32 value_size, u32 entries) {
  ebpf::MapSpec spec;
  spec.type = type;
  spec.key_size = 4;
  spec.value_size = value_size;
  spec.max_entries = entries;
  spec.name = name;
  auto fd = rig.bpf.maps().Create(spec);
  return fd.ok() ? fd.value() : -1;
}

struct LiveAttachment {
  u32 attachment_id;
  bool is_safex;
  u32 target_id;
  safex::HookPoint hook;
};

// One CPU's share of a fire op: the last fire's report and what every fire
// it ran reported. Only the thread bound to that CPU writes it.
struct FireTally {
  safex::HookFireReport report;
  u64 fires = 0;
  u64 served = 0;
  u64 failed = 0;
  u64 skipped = 0;
};

constexpr safex::HookPoint kHooks[] = {safex::HookPoint::kXdpIngress,
                                       safex::HookPoint::kSyscallEnter,
                                       safex::HookPoint::kSchedSwitch};

}  // namespace

ChaosReport RunChaos(const ChaosConfig& config) {
  ChaosReport report;
  report.seed = config.seed;
  report.stats.fault_catalog_size = ebpf::FaultRegistry::Catalog().size();

  xbase::Rng rng(config.seed);
  safex::System rig(ChaosKernelConfig(config.cpus),
                    safex::SupervisorConfig{});
  if (!rig.ok()) {
    report.failure = "rig construction failed";
    return report;
  }
  rig.hooks->config().exec_options.engine = config.engine;
  const bool smp = config.cpus > 1;
  if (smp) {
    rig.kernel.StartCpus();
  }

  // --- fixed substrate: maps, one skb, one ctx block ---------------------
  const int arr_fd = MustMap(rig, ebpf::MapType::kArray, "chaos-arr", 8, 4);
  const int wide_fd =
      MustMap(rig, ebpf::MapType::kArray, "chaos-wide", 64, 4);
  const int lock_fd =
      MustMap(rig, ebpf::MapType::kArray, "chaos-lock", 16, 1);
  const int tstor_fd =
      MustMap(rig, ebpf::MapType::kTaskStorage, "chaos-tstor", 16, 16);
  if (arr_fd < 0 || wide_fd < 0 || lock_fd < 0 || tstor_fd < 0) {
    report.failure = "map setup failed";
    return report;
  }
  xbase::u8 payload[48] = {0xde, 0xad, 0xbe, 0xef};
  auto skb = rig.kernel.net().CreateSkBuff(rig.kernel.mem(), payload);
  auto ctx_block = rig.kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                        simkern::RegionKind::kKernelData,
                                        "chaos-ctx");
  if (!skb.ok() || !ctx_block.ok()) {
    report.failure = "context setup failed";
    return report;
  }

  // --- program corpus: verifier-approved and fault-gated exploits --------
  std::vector<CorpusProgram> programs;
  auto add_prog = [&programs](const char* name,
                              xbase::Result<ebpf::Program> prog) {
    if (prog.ok()) {
      programs.push_back(CorpusProgram{name, std::move(prog).value()});
    }
  };
  add_prog("straight_line", BuildStraightLine(16));
  add_prog("packet_counter", BuildPacketCounter(arr_fd));
  add_prog("sys_bpf_null", BuildSysBpfNullCrash());
  add_prog("sk_lookup_ok", BuildSkLookupWithRelease());
  add_prog("sk_lookup_leak", BuildSkLookupNoRelease());
  add_prog("double_spin_lock", BuildDoubleSpinLock(lock_fd));
  add_prog("arbitrary_read", BuildArbitraryReadExploit(arr_fd, 4096));
  add_prog("jmp32_oob", BuildJmp32BoundsExploit(wide_fd));
  add_prog("tstor_null_owner", BuildTaskStorageNullOwner(tstor_fd));
  add_prog("task_stack_leak", BuildGetTaskStackErrorPath());

  // --- signed extension corpus -------------------------------------------
  safex::Toolchain toolchain(safex::System::VendorKey());
  std::vector<safex::SignedArtifact> artifacts;
  auto add_ext = [&](const char* name, safex::ExtensionFactory factory) {
    safex::ExtensionManifest manifest;
    manifest.name = name;
    manifest.version = "1";
    auto artifact = toolchain.Build(manifest, std::move(factory),
                                    std::span<const xbase::u8>());
    if (artifact.ok()) {
      artifacts.push_back(std::move(artifact).value());
    }
  };
  add_ext("chaos-const",
          []() { return std::make_unique<ConstExt>(0); });
  add_ext("chaos-panicker",
          []() { return std::make_unique<PanickerExt>(); });
  add_ext("chaos-flaky",
          []() { return std::make_unique<FlakyExt>(5); });
  add_ext("chaos-watchdog-hog",
          []() { return std::make_unique<WatchdogHogExt>(); });
  add_ext("chaos-stack-hog",
          []() { return std::make_unique<StackHogExt>(); });
  add_ext("chaos-thrower",
          []() { return std::make_unique<ThrowerExt>(); });
  if (programs.size() < 10 || artifacts.size() < 6) {
    report.failure = "corpus setup failed";
    return report;
  }

  std::vector<u32> loaded_progs;
  std::vector<u32> loaded_exts;
  std::vector<LiveAttachment> attachments;
  std::set<std::string> faults_ever;
  usize fault_cursor = 0;
  const auto& catalog = ebpf::FaultRegistry::Catalog();

  // Baseline for the leaked-refcount invariant: nothing an op does may
  // leave a net refcount above this snapshot.
  const simkern::RefcountSnapshot baseline = rig.kernel.objects().Snapshot();

  // Survival invariants, checked after every op. Every check is
  // machine-wide: any CPU's leaked reader, held lock or drifted record
  // breaks the run (the op loop quiesces SMP bursts before checking).
  auto check_invariants = [&]() -> std::string {
    if (rig.kernel.state() != simkern::KernelState::kRunning) {
      return "kernel not running (oopsed/panicked)";
    }
    if (rig.kernel.rcu().AnyReader()) {
      return "RCU read-side critical section leaked";
    }
    if (!rig.kernel.rcu().stalls().empty()) {
      return "RCU stall recorded";
    }
    if (rig.kernel.locks().held_count_total() != 0) {
      return xbase::StrFormat("%d lock(s) still held",
                              rig.kernel.locks().held_count_total());
    }
    const auto leaks = rig.kernel.objects().DiffSince(baseline);
    if (!leaks.empty()) {
      return xbase::StrFormat("%zu refcount leak(s), first: %s",
                              leaks.size(), leaks.front().name.c_str());
    }
    const xbase::Status supervisor_state =
        rig.supervisor->CheckConsistent(rig.kernel.clock().max_now_ns());
    if (!supervisor_state.ok()) {
      return supervisor_state.message();
    }
    return "";
  };

  u64 ops_done = 0;
  std::string op_desc;
  std::vector<FireTally> tallies;
  for (u64 op = 0; op < config.ops; ++op) {
    const u64 dice = rng.NextBelow(100);
    std::string fire_failure;  // a fire op that lost an attachment run
    if (dice < 8) {
      // Load an eBPF program or a safex extension.
      if (rng.NextBool() || artifacts.empty()) {
        const auto& entry = programs[rng.NextBelow(programs.size())];
        op_desc = "load bpf " + entry.name;
        auto id = rig.loader.Load(entry.prog);
        if (id.ok()) {
          loaded_progs.push_back(id.value());
          ++report.stats.loads_ok;
        } else {
          ++report.stats.loads_rejected;
        }
      } else {
        const auto& artifact =
            artifacts[rng.NextBelow(artifacts.size())];
        op_desc = "load ext " + artifact.manifest.name;
        auto id = rig.ext_loader->Load(artifact);
        if (id.ok()) {
          loaded_exts.push_back(id.value());
          ++report.stats.loads_ok;
        } else {
          ++report.stats.loads_rejected;
        }
      }
    } else if (dice < 12) {
      // Unload a random target (detaching its attachments first).
      const bool pick_ext = rng.NextBool();
      auto& pool = pick_ext ? loaded_exts : loaded_progs;
      if (!pool.empty()) {
        const usize index = rng.NextBelow(pool.size());
        const u32 target = pool[index];
        op_desc = xbase::StrFormat("unload %s %u",
                                   pick_ext ? "ext" : "bpf", target);
        for (usize i = attachments.size(); i-- > 0;) {
          if (attachments[i].is_safex == pick_ext &&
              attachments[i].target_id == target) {
            (void)rig.hooks->Detach(attachments[i].attachment_id);
            attachments.erase(attachments.begin() +
                              static_cast<std::ptrdiff_t>(i));
            ++report.stats.detaches;
          }
        }
        if (pick_ext) {
          (void)rig.ext_loader->Unload(target);
        } else {
          (void)rig.loader.Unload(target);
        }
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(index));
        ++report.stats.unloads;
      } else {
        op_desc = "unload (nothing loaded)";
      }
    } else if (dice < 24) {
      // Attach a random loaded target to a random hook.
      const bool pick_ext = rng.NextBool();
      auto& pool = pick_ext ? loaded_exts : loaded_progs;
      const safex::HookPoint hook = kHooks[rng.NextBelow(3)];
      if (!pool.empty() && rig.hooks->AttachedCountTotal() < 24) {
        const u32 target = pool[rng.NextBelow(pool.size())];
        op_desc = xbase::StrFormat("attach %s %u",
                                   pick_ext ? "ext" : "bpf", target);
        auto id = pick_ext ? rig.hooks->AttachExtension(hook, target)
                           : rig.hooks->AttachProgram(hook, target);
        if (id.ok()) {
          attachments.push_back(
              LiveAttachment{id.value(), pick_ext, target, hook});
          ++report.stats.attaches;
        }
      } else {
        op_desc = "attach (no target)";
      }
    } else if (dice < 32) {
      // Detach a random attachment (quarantined ones included).
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
    } else if (dice < 40 && config.toggle_faults) {
      // Round-robin fault toggle: first pass injects every catalog defect.
      const ebpf::FaultInfo& fault =
          catalog[fault_cursor++ % catalog.size()];
      if (rig.bpf.faults().IsActive(fault.id)) {
        rig.bpf.faults().Clear(fault.id);
        op_desc = "fault clear " + fault.id;
      } else {
        rig.bpf.faults().Inject(fault.id);
        faults_ever.insert(fault.id);
        op_desc = "fault inject " + fault.id;
      }
      ++report.stats.fault_toggles;
    } else if (dice < 50) {
      // Let simulated time pass (backoffs expire, windows slide) — on
      // every CPU, so per-CPU quarantine deadlines all move.
      const u64 delta = rng.NextBelow(20 * simkern::kNsPerMs);
      for (u32 cpu = 0; cpu < rig.kernel.num_cpus(); ++cpu) {
        rig.kernel.clock().Advance(cpu, delta);
      }
      op_desc = "advance clock";
      ++report.stats.clock_advances;
    } else {
      // Fire a hook.
      const safex::HookPoint hook = kHooks[rng.NextBelow(3)];
      const simkern::Addr ctx_addr = safex::FamilyOf(hook).skb_ctx
                                         ? skb.value().meta_addr
                                         : ctx_block.value();
      op_desc = std::string("fire ") + std::string(HookPointName(hook));
      // Each fire tallies into its executing CPU's slot, so SMP fires
      // need no lock; the tallies are read once every fire has finished.
      tallies.assign(rig.kernel.num_cpus(), FireTally{});
      const auto fire = [&rig, &tallies, hook, ctx_addr] {
        FireTally& tally = tallies[rig.kernel.current_cpu()];
        rig.hooks->FireInto(hook, ctx_addr, tally.report);
        ++tally.fires;
        tally.served += tally.report.served;
        tally.failed += tally.report.failed;
        tally.skipped += tally.report.skipped;
      };
      u64 fires = 1;
      if (smp && rig.kernel.cpus() != nullptr) {
        // Cross-CPU burst: two fires per CPU run concurrently on the pool
        // (each on the CPU it is submitted to), with a fault toggle racing
        // the in-flight fires. Invariants are asserted after the Drain
        // barrier.
        simkern::CpuPool& pool = *rig.kernel.cpus();
        fires = 2ULL * config.cpus;
        for (u32 i = 0; i < config.cpus; ++i) {
          pool.Submit(i % rig.kernel.num_cpus(), fire);
          pool.Submit(i % rig.kernel.num_cpus(), fire);
        }
        if (config.toggle_faults && !catalog.empty()) {
          // Deliberately concurrent with the burst: the registry is
          // atomic, and fires must survive faults flipping mid-flight.
          const ebpf::FaultInfo& fault =
              catalog[fault_cursor++ % catalog.size()];
          if (rig.bpf.faults().IsActive(fault.id)) {
            rig.bpf.faults().Clear(fault.id);
          } else {
            rig.bpf.faults().Inject(fault.id);
            faults_ever.insert(fault.id);
          }
          ++report.stats.fault_toggles;
        }
        pool.Drain();
      } else {
        fire();
      }
      u64 fired = 0;
      u64 walked = 0;
      for (const FireTally& tally : tallies) {
        fired += tally.fires;
        report.stats.attachments_served += tally.served;
        report.stats.attachments_failed += tally.failed;
        report.stats.attachments_skipped += tally.skipped;
        walked += tally.served + tally.failed + tally.skipped;
      }
      report.stats.fires += fired;
      // Every submitted fire runs and tallies once. Attach and detach never
      // run during a fire op, so every fire walks the whole table and
      // reports each attachment exactly once.
      const u64 expected = fires * rig.hooks->AttachedCount(hook);
      if (fired != fires) {
        fire_failure = xbase::StrFormat(
            "%llu fire(s) submitted, %llu tallied",
            static_cast<unsigned long long>(fires),
            static_cast<unsigned long long>(fired));
      } else if (walked != expected) {
        fire_failure = xbase::StrFormat(
            "%llu fire(s) reported %llu attachment runs, expected %llu",
            static_cast<unsigned long long>(fires),
            static_cast<unsigned long long>(walked),
            static_cast<unsigned long long>(expected));
      }
    }

    ++ops_done;
    const std::string violated =
        fire_failure.empty() ? check_invariants() : fire_failure;
    if (!violated.empty()) {
      report.failure = xbase::StrFormat(
          "op %llu (%s): %s", static_cast<unsigned long long>(op),
          op_desc.c_str(), violated.c_str());
      report.failed_at_op = op;
      break;
    }
  }

  if (smp) {
    rig.kernel.StopCpus();
  }
  report.stats.ops_executed = ops_done;
  report.stats.faults_ever_injected = faults_ever.size();
  report.stats.final_sim_time_ns = rig.kernel.clock().max_now_ns();
  report.stats.supervisor_failures = rig.supervisor->failures();
  report.stats.supervisor_trips = rig.supervisor->trips();
  report.stats.supervisor_evictions = rig.supervisor->evictions();
  report.stats.supervisor_readmissions = rig.supervisor->readmissions();
  for (const simkern::OopsRecord& oops : rig.kernel.oopses()) {
    if (oops.recovered) {
      ++report.stats.oopses_contained;
    }
  }
  report.ok = report.failure.empty();
  return report;
}

}  // namespace analysis
