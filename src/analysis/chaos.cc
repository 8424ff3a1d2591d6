#include "src/analysis/chaos.h"

#include <atomic>
#include <memory>
#include <stdexcept>

#include "src/analysis/storm.h"
#include "src/analysis/workloads.h"
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

// ---- the storm -----------------------------------------------------------

struct CorpusProgram {
  std::string name;
  ebpf::Program prog;
};

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
  report.stats.fault_catalog_size = ebpf::FaultRegistry::Catalog().size();

  xbase::Rng rng(config.seed);
  storm::Rig rig(simkern::kV5_18, config.cpus);
  if (!rig.ok()) {
    report.failure = "rig construction failed";
    return report;
  }
  rig.hooks->config().exec_options.engine = config.engine;

  // --- fixed substrate: maps, one skb, one ctx block ---------------------
  const int arr_fd =
      storm::MustMap(rig, ebpf::MapType::kArray, "chaos-arr", 8, 4);
  const int wide_fd =
      storm::MustMap(rig, ebpf::MapType::kArray, "chaos-wide", 64, 4);
  const int lock_fd =
      storm::MustMap(rig, ebpf::MapType::kArray, "chaos-lock", 16, 1);
  const int tstor_fd =
      storm::MustMap(rig, ebpf::MapType::kTaskStorage, "chaos-tstor", 16, 16);
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
  std::vector<safex::SignedArtifact> artifacts;
  auto add_ext = [&artifacts](const char* name,
                              safex::ExtensionFactory factory) {
    auto artifact = storm::SignArtifact(name, std::move(factory));
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
  std::vector<std::string_view> fault_ids;
  for (const ebpf::FaultInfo& fault : ebpf::FaultRegistry::Catalog()) {
    fault_ids.push_back(fault.id);
  }
  storm::FaultToggler toggler(rig.bpf.faults(), std::move(fault_ids),
                              report.stats);
  std::vector<FireTally> tallies;

  // One op. RunOps checks survival after it, machine-wide: an SMP burst
  // has drained by the time the step returns.
  const auto step = [&](std::string& op_desc) -> std::string {
    const u64 dice = rng.NextBelow(100);
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
      op_desc = toggler.Toggle();
    } else if (dice < 50) {
      // Let simulated time pass (backoffs expire, windows slide) — on
      // every CPU, so per-CPU quarantine deadlines all move.
      rig.AdvanceClocks(rng.NextBelow(20 * simkern::kNsPerMs));
      op_desc = "advance clock";
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
      if (simkern::CpuPool* pool = rig.kernel.cpus(); pool != nullptr) {
        // Cross-CPU burst: two fires per CPU run concurrently on the pool
        // (each on the CPU it is submitted to), with a fault toggle racing
        // the in-flight fires — the registry is atomic, and fires must
        // survive faults flipping mid-flight.
        fires = 2ULL * rig.kernel.num_cpus();
        for (u32 cpu = 0; cpu < rig.kernel.num_cpus(); ++cpu) {
          pool->Submit(cpu, fire);
          pool->Submit(cpu, fire);
        }
        if (config.toggle_faults) {
          (void)toggler.Toggle();
        }
        pool->Drain();
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
        return xbase::StrFormat("%llu fire(s) submitted, %llu tallied",
                                static_cast<unsigned long long>(fires),
                                static_cast<unsigned long long>(fired));
      }
      if (walked != expected) {
        return xbase::StrFormat(
            "%llu fire(s) reported %llu attachment runs, expected %llu",
            static_cast<unsigned long long>(fires),
            static_cast<unsigned long long>(walked),
            static_cast<unsigned long long>(expected));
      }
    }
    return "";
  };
  report.failure = rig.RunOps(config.ops, report.stats, step);
  report.ok = report.failure.empty();
  return report;
}

}  // namespace analysis
