// Hook registry tests: attach/detach, per-hook verdict aggregation, and
// mixed eBPF/safex dispatch over one event stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/ebpf/asm.h"

namespace safex {
namespace {

class ConstExt : public Extension {
 public:
  explicit ConstExt(xbase::u64 verdict) : verdict_(verdict) {}
  xbase::Result<xbase::u64> Run(Ctx&) override { return verdict_; }

 private:
  xbase::u64 verdict_;
};

// Counts runs begun and ended in host atomics the test reads while CPUs
// fire, and stays inside each run long enough that a Detach which did not
// wait for in-flight fires would return mid-run.
class SlowCountingExt : public Extension {
 public:
  SlowCountingExt(std::atomic<xbase::u64>* begun,
                  std::atomic<xbase::u64>* ended)
      : begun_(begun), ended_(ended) {}
  xbase::Result<xbase::u64> Run(Ctx&) override {
    begun_->fetch_add(1);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(50);
    while (std::chrono::steady_clock::now() < until) {
    }
    ended_->fetch_add(1);
    return xbase::u64{0};
  }

 private:
  std::atomic<xbase::u64>* begun_;
  std::atomic<xbase::u64>* ended_;
};

class HooksTest : public ::testing::Test {
 protected:
  HooksTest() {
    EXPECT_TRUE(sys_.ok());
    ctx_ = kernel_.mem()
               .Map(64, simkern::MemPerm::kReadWrite,
                    simkern::RegionKind::kKernelData, "hookctx")
               .value();
  }

  HookFireReport Fire(HookPoint hook, simkern::Addr ctx) {
    HookFireReport report;
    hooks_->FireInto(hook, ctx, report);
    return report;
  }

  xbase::u32 LoadConstProg(xbase::u64 verdict) {
    ebpf::ProgramBuilder b("const", ebpf::ProgType::kSyscall);
    b.Ins(ebpf::Mov64Imm(ebpf::R0, static_cast<xbase::s32>(verdict)))
        .Ins(ebpf::Exit());
    return bpf_loader_.Load(b.Build().value()).value();
  }

  xbase::u32 LoadConstExt(xbase::u64 verdict) {
    return LoadExt("const-ext", std::to_string(verdict), [verdict]() {
      return std::make_unique<ConstExt>(verdict);
    });
  }

  xbase::u32 LoadExt(const std::string& name, const std::string& version,
                     ExtensionFactory factory) {
    Toolchain toolchain(System::VendorKey());
    ExtensionManifest manifest;
    manifest.name = name;
    manifest.version = version;
    auto artifact = toolchain.Build(manifest, std::move(factory),
                                    std::span<const xbase::u8>());
    return ext_loader_->Load(artifact.value()).value();
  }

  System sys_;
  simkern::Kernel& kernel_ = sys_.kernel;
  ebpf::Loader& bpf_loader_ = sys_.loader;
  Runtime* runtime_ = sys_.runtime.get();
  ExtLoader* ext_loader_ = sys_.ext_loader.get();
  HookRegistry* hooks_ = sys_.hooks.get();
  simkern::Addr ctx_ = 0;
};

TEST_F(HooksTest, AttachRequiresLoadedTargets) {
  EXPECT_FALSE(hooks_->AttachProgram(HookPoint::kSyscallEnter, 99).ok());
  EXPECT_FALSE(hooks_->AttachExtension(HookPoint::kSyscallEnter, 99).ok());
}

TEST_F(HooksTest, FireRunsAttachmentsInOrder) {
  (void)hooks_->AttachProgram(HookPoint::kSyscallEnter, LoadConstProg(0));
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter, LoadConstExt(0));
  auto report = Fire(HookPoint::kSyscallEnter, ctx_);
  ASSERT_EQ(report.verdicts.size(), 2u);
  EXPECT_FALSE(report.verdicts[0].from_safex);
  EXPECT_TRUE(report.verdicts[1].from_safex);
  EXPECT_FALSE(report.denied);
}

TEST_F(HooksTest, SyscallDenyAggregation) {
  (void)hooks_->AttachProgram(HookPoint::kSyscallEnter, LoadConstProg(0));
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter, LoadConstExt(13));
  auto report = Fire(HookPoint::kSyscallEnter, ctx_);
  EXPECT_TRUE(report.denied);
  EXPECT_EQ(report.verdict, 13u);
}

TEST_F(HooksTest, XdpDropWins) {
  (void)hooks_->AttachExtension(HookPoint::kXdpIngress, LoadConstExt(2));
  (void)hooks_->AttachExtension(HookPoint::kXdpIngress, LoadConstExt(1));
  xbase::u8 payload[32] = {};
  auto skb = kernel_.net().CreateSkBuff(kernel_.mem(), payload).value();
  auto report = Fire(HookPoint::kXdpIngress, skb.meta_addr);
  EXPECT_EQ(report.verdict, 1u) << "any DROP wins";
}

TEST_F(HooksTest, DetachStopsDispatch) {
  auto id = hooks_->AttachProgram(HookPoint::kSyscallEnter,
                                  LoadConstProg(7));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(hooks_->AttachedCount(HookPoint::kSyscallEnter), 1u);
  ASSERT_TRUE(hooks_->Detach(id.value()).ok());
  EXPECT_EQ(hooks_->AttachedCount(HookPoint::kSyscallEnter), 0u);
  EXPECT_FALSE(hooks_->Detach(id.value()).ok());
  auto report = Fire(HookPoint::kSyscallEnter, ctx_);
  EXPECT_TRUE(report.verdicts.empty());
}

TEST_F(HooksTest, FailedAttachmentFailsOpenWithStatus) {
  // An extension that panics contributes no verdict but its status shows.
  Toolchain toolchain(System::VendorKey());
  ExtensionManifest manifest;
  manifest.name = "panicker";
  manifest.version = "1";
  class Panicker : public Extension {
   public:
    xbase::Result<xbase::u64> Run(Ctx& ctx) override {
      ctx.Panic("boom");
      return xbase::u64{1};
    }
  };
  auto artifact = toolchain.Build(
      manifest, []() { return std::make_unique<Panicker>(); },
      std::span<const xbase::u8>());
  const auto ext_id = ext_loader_->Load(artifact.value()).value();
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter, ext_id);

  auto report = Fire(HookPoint::kSyscallEnter, ctx_);
  EXPECT_FALSE(report.denied) << "a dead policy cannot deny";
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_FALSE(report.verdicts[0].status.ok());
  EXPECT_FALSE(kernel_.crashed());
}

TEST_F(HooksTest, ForeignExceptionCannotAbortRemainingAttachments) {
  // Regression: an extension body throwing a non-TerminationSignal
  // exception used to unwind through Runtime::Invoke — skipping the
  // cleanup registry and the RCU read-side unlock — and abort the hook
  // walk, so attachments after it were silently never fired.
  class Thrower : public Extension {
   public:
    xbase::Result<xbase::u64> Run(Ctx&) override {
      throw std::runtime_error("rogue exception");
    }
  };
  Toolchain toolchain(System::VendorKey());
  ExtensionManifest manifest;
  manifest.name = "thrower";
  manifest.version = "1";
  auto artifact = toolchain.Build(
      manifest, []() { return std::make_unique<Thrower>(); },
      std::span<const xbase::u8>());
  const auto thrower_id = ext_loader_->Load(artifact.value()).value();
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter, thrower_id);
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter, LoadConstExt(13));

  auto report = Fire(HookPoint::kSyscallEnter, ctx_);
  ASSERT_EQ(report.verdicts.size(), 2u)
      << "the attachment after the thrower must still fire";
  EXPECT_FALSE(report.verdicts[0].status.ok());
  EXPECT_TRUE(report.verdicts[1].status.ok());
  EXPECT_TRUE(report.denied) << "the healthy policy still denies";
  EXPECT_EQ(report.verdict, 13u);
  EXPECT_EQ(runtime_->foreign_exceptions(), 1u);
  EXPECT_EQ(kernel_.rcu().depth(), 0)
      << "the contained exception must not leak the RCU read lock";
  EXPECT_FALSE(kernel_.crashed());
}

TEST_F(HooksTest, DuplicateAttachmentRejected) {
  const xbase::u32 prog = LoadConstProg(0);
  ASSERT_TRUE(hooks_->AttachProgram(HookPoint::kSyscallEnter, prog).ok());
  auto again = hooks_->AttachProgram(HookPoint::kSyscallEnter, prog);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), xbase::Code::kAlreadyExists);
  EXPECT_TRUE(hooks_->AttachProgram(HookPoint::kXdpIngress, prog).ok());
}

TEST_F(HooksTest, AttachProgramFollowsTheOwnerColumn) {
  // Every program type on every hook: an owned hook takes only its owner,
  // and an owning type attaches nowhere else.
  for (const ebpf::ProgType type : ebpf::kAllProgTypes) {
    ebpf::ProgramBuilder b("typed", type);
    b.Ins(ebpf::Mov64Imm(ebpf::R0, 0)).Ins(ebpf::Exit());
    auto prog = bpf_loader_.Load(b.Build().value());
    ASSERT_TRUE(prog.ok()) << ebpf::ProgTypeName(type) << ": "
                           << prog.status().ToString();
    const bool type_owns_a_hook =
        std::any_of(kHookFamilies.begin(), kHookFamilies.end(),
                    [type](const HookFamily& family) {
                      return family.owner == type;
                    });
    for (const HookFamily& family : kHookFamilies) {
      const bool expected =
          family.owner ? *family.owner == type : !type_owns_a_hook;
      auto attached = hooks_->AttachProgram(family.hook, prog.value());
      EXPECT_EQ(attached.ok(), expected)
          << ebpf::ProgTypeName(type) << " on " << family.name << ": "
          << attached.status().ToString();
      if (!expected && !attached.ok()) {
        EXPECT_EQ(attached.status().code(), xbase::Code::kFailedPrecondition);
      }
      if (attached.ok()) {
        EXPECT_TRUE(hooks_->Detach(attached.value()).ok());
      }
    }
    // A refused attach drops the pin it took: the program still unloads.
    EXPECT_TRUE(bpf_loader_.Unload(prog.value()).ok())
        << ebpf::ProgTypeName(type);
  }
  // The two decision-maker rows, spelled out.
  EXPECT_EQ(FamilyOf(HookPoint::kSchedPickNext).owner,
            ebpf::ProgType::kSchedExt);
  EXPECT_EQ(FamilyOf(HookPoint::kLsmFileOpen).owner, ebpf::ProgType::kLsm);
}

TEST_F(HooksTest, DetachUnderSmpFireWaitsOutInFlightFires) {
  // One attachment stays; an eBPF program and a safex extension are
  // detached and unloaded at once while 4 CPUs keep firing the hook.
  const xbase::u32 kept_prog = LoadConstProg(0);
  const xbase::u32 gone_prog = LoadConstProg(0);
  std::atomic<xbase::u64> begun{0};
  std::atomic<xbase::u64> ended{0};
  const xbase::u32 gone_ext = LoadExt("slow-counting", "1", [&]() {
    return std::make_unique<SlowCountingExt>(&begun, &ended);
  });
  const auto kept =
      hooks_->AttachProgram(HookPoint::kSyscallEnter, kept_prog);
  const auto gone_bpf =
      hooks_->AttachProgram(HookPoint::kSyscallEnter, gone_prog);
  const auto gone_safex =
      hooks_->AttachExtension(HookPoint::kSyscallEnter, gone_ext);
  ASSERT_TRUE(kept.ok() && gone_bpf.ok() && gone_safex.ok());

  kernel_.StartCpus();
  simkern::CpuPool& pool = *kernel_.cpus();
  const xbase::u32 cpus = kernel_.num_cpus();
  // One report slot per CPU; a fire runs on the CPU it was submitted to.
  std::vector<HookFireReport> reports(cpus);
  auto fire = [this, &reports] {
    hooks_->FireInto(HookPoint::kSyscallEnter, ctx_,
                     reports[kernel_.current_cpu()]);
  };
  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    for (xbase::u32 i = 0; !stop.load(); ++i) {
      pool.Submit(i % cpus, fire);
      if (i % 8 == 7) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ended.load() < 100 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(ended.load(), 100u) << "the CPUs never fired the extension";

  // Detach returns only once no fire can still run the attachment: no run
  // is left half done, none begins afterwards, and the target unloads
  // straight away.
  ASSERT_TRUE(hooks_->Detach(gone_safex.value()).ok());
  const xbase::u64 ended_at_detach = ended.load();
  const xbase::u64 begun_at_detach = begun.load();
  EXPECT_EQ(begun_at_detach, ended_at_detach) << "Detach returned mid-run";
  EXPECT_TRUE(ext_loader_->Unload(gone_ext).ok());
  ASSERT_TRUE(hooks_->Detach(gone_bpf.value()).ok());
  EXPECT_TRUE(bpf_loader_.Unload(gone_prog).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  feeder.join();
  pool.Drain();
  EXPECT_EQ(begun.load(), begun_at_detach) << "a fire ran after Detach";

  // One more round, into fresh slots, so every report below comes from a
  // fire after Detach; each fire also counts what it served.
  std::vector<HookFireReport> after(cpus);
  std::vector<xbase::u32> served(cpus);
  for (xbase::u32 cpu = 0; cpu < cpus; ++cpu) {
    pool.Submit(cpu, [this, &after, &served] {
      const xbase::u32 self = kernel_.current_cpu();
      hooks_->FireInto(HookPoint::kSyscallEnter, ctx_, after[self]);
      served[self] += after[self].served;
    });
  }
  pool.Drain();
  xbase::u32 served_total = 0;
  for (xbase::u32 cpu = 0; cpu < cpus; ++cpu) {
    served_total += served[cpu];
    EXPECT_EQ(served[cpu], 1u) << "cpu " << cpu;
    ASSERT_EQ(after[cpu].verdicts.size(), 1u) << "cpu " << cpu;
    EXPECT_EQ(after[cpu].verdicts[0].attachment_id, kept.value());
  }
  EXPECT_EQ(served_total, cpus) << "every fire serves the kept attachment";
  EXPECT_EQ(hooks_->AttachedCountTotal(), 1u);
  kernel_.StopCpus();
}

}  // namespace
}  // namespace safex
