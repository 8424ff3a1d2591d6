// Integration tests binding the paper's headline §2.2 results into the test
// suite: the verified-program kernel crash, the RCU-stall termination
// failure, their safex counterparts, and cross-framework behavioural parity
// on a shared workload.
#include <gtest/gtest.h>

#include "src/analysis/workloads.h"
#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/ebpf/interp.h"
#include "src/xbase/bytes.h"

namespace {

using xbase::u64;
using xbase::u8;

TEST(Sec22Test, VerifiedProgramCrashesKernelThroughSysBpf) {
  safex::System rig;
  auto prog = analysis::BuildSysBpfNullCrash();
  auto id = rig.loader.Load(prog.value());
  ASSERT_TRUE(id.ok()) << "the verifier must accept it: "
                       << id.status().ToString();
  auto loaded = rig.loader.Find(id.value());
  auto ctx = rig.kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                  simkern::RegionKind::kKernelData, "ctx");
  auto result =
      ebpf::Execute(rig.bpf, *loaded.value(), ctx.value(), {}, &rig.loader);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(rig.kernel.crashed());
  ASSERT_FALSE(rig.kernel.oopses().empty());
  EXPECT_NE(rig.kernel.oopses()[0].message.find("null-deref"),
            std::string::npos);
}

TEST(Sec22Test, SafexWrapperCannotCrashAndStillWorks) {
  safex::System rig;
  class Probe : public safex::Extension {
   public:
    xbase::Result<u64> Run(safex::Ctx& ctx) override {
      safex::Slice dead;
      if (ctx.SysBpfProgLoad(dead).ok()) {
        return u64{1};  // must not happen
      }
      auto insns = ctx.Alloc(16);
      XB_RETURN_IF_ERROR(insns.status());
      XB_RETURN_IF_ERROR(ctx.SysBpfProgLoad(insns.value()).status());
      return u64{0};
    }
  } probe;
  const auto outcome = rig.runtime->Invoke(
      probe, {safex::Capability::kSysBpf, safex::Capability::kDynAlloc}, {});
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.ret, 0u);
  EXPECT_FALSE(rig.kernel.crashed());
}

TEST(Sec22Test, NestedLoopRuntimeScalesLinearlyWithIters) {
  safex::System rig;
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kArray;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 4;
  spec.name = "loop";
  const int fd = rig.bpf.maps().Create(spec).value();
  auto ctx = rig.kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                  simkern::RegionKind::kKernelData, "ctx");

  u64 prev_time = 0;
  for (const xbase::u32 iters : {32u, 64u, 128u}) {
    auto prog = analysis::BuildNestedLoopStall(fd, 2, iters);
    auto id = rig.loader.Load(prog.value());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    auto loaded = rig.loader.Find(id.value());
    auto result = ebpf::Execute(rig.bpf, *loaded.value(), ctx.value(), {},
                                &rig.loader);
    ASSERT_TRUE(result.ok());
    const u64 elapsed = result.value().stats.sim_time_charged_ns;
    if (prev_time != 0) {
      // Doubling iters at nesting 2 roughly quadruples runtime.
      EXPECT_NEAR(static_cast<double>(elapsed) /
                      static_cast<double>(prev_time),
                  4.0, 0.8);
    }
    prev_time = elapsed;
  }
}

TEST(Sec22Test, RcuStallReproducesUnderEbpf) {
  safex::System rig;
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kArray;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 4;
  spec.name = "loop";
  const int fd = rig.bpf.maps().Create(spec).value();
  auto prog = analysis::BuildNestedLoopStall(fd, 3, 256);
  auto id = rig.loader.Load(prog.value());
  ASSERT_TRUE(id.ok());
  auto loaded = rig.loader.Find(id.value());
  auto ctx = rig.kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                  simkern::RegionKind::kKernelData, "ctx");
  ebpf::ExecOptions opts;
  opts.cost_multiplier = 1000;  // documented time compression
  opts.max_insns = 10'000'000;
  (void)ebpf::Execute(rig.bpf, *loaded.value(), ctx.value(), opts,
                      &rig.loader);
  ASSERT_FALSE(rig.kernel.rcu().stalls().empty());
  EXPECT_GE(rig.kernel.rcu().stalls()[0].held_for_ns,
            simkern::kRcuStallTimeoutNs);
}

TEST(Sec22Test, SafexWatchdogPreventsTheStall) {
  safex::System rig;
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kArray;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 4;
  spec.name = "loop";
  const int fd = rig.bpf.maps().Create(spec).value();
  class Spinner : public safex::Extension {
   public:
    explicit Spinner(int fd) : fd_(fd) {}
    xbase::Result<u64> Run(safex::Ctx& ctx) override {
      auto map = ctx.Map(fd_);
      XB_RETURN_IF_ERROR(map.status());
      u8 value[8] = {};
      for (;;) {
        XB_RETURN_IF_ERROR(map.value().UpdateIndex(0, value));
      }
    }

   private:
    int fd_;
  } spinner(fd);
  const auto outcome =
      rig.runtime->Invoke(spinner, {safex::Capability::kMapAccess}, {});
  EXPECT_TRUE(outcome.panicked);
  EXPECT_TRUE(rig.kernel.rcu().stalls().empty());
  EXPECT_LE(outcome.sim_time_ns, 2 * safex::kDefaultWatchdogBudgetNs);
  EXPECT_FALSE(rig.kernel.rcu().InCriticalSection());
}

// Cross-framework parity: the packet-counter policy must produce identical
// verdicts and identical map contents in both frameworks for a shared
// packet stream.
TEST(Sec22Test, FrameworkParityOnPacketWorkload) {
  safex::System rig;
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kArray;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 4;
  spec.name = "ebpf-side";
  const int ebpf_fd = rig.bpf.maps().Create(spec).value();
  spec.name = "safex-side";
  const int safex_fd = rig.bpf.maps().Create(spec).value();

  auto prog_id =
      rig.loader.Load(analysis::BuildPacketCounter(ebpf_fd).value());
  ASSERT_TRUE(prog_id.ok());
  auto loaded = rig.loader.Find(prog_id.value());

  class Filter : public safex::Extension {
   public:
    explicit Filter(int fd) : fd_(fd) {}
    xbase::Result<u64> Run(safex::Ctx& ctx) override {
      auto packet = ctx.Packet();
      XB_RETURN_IF_ERROR(packet.status());
      if (packet.value().size() < 14) {
        return u64{1};
      }
      auto proto = packet.value().ReadU8(12);
      XB_RETURN_IF_ERROR(proto.status());
      const xbase::u32 klass = proto.value() & 3;
      auto map = ctx.Map(fd_);
      XB_RETURN_IF_ERROR(map.status());
      auto slot = map.value().LookupIndex(klass);
      XB_RETURN_IF_ERROR(slot.status());
      auto count = slot.value().ReadU64(0);
      XB_RETURN_IF_ERROR(count.status());
      XB_RETURN_IF_ERROR(slot.value().WriteU64(0, count.value() + 1));
      return klass == 3 ? u64{1} : u64{2};
    }

   private:
    int fd_;
  } filter(safex_fd);

  for (int i = 0; i < 32; ++i) {
    u8 payload[20] = {};
    payload[12] = static_cast<u8>(i);
    auto skb = rig.kernel.net().CreateSkBuff(rig.kernel.mem(), payload);
    auto ebpf_result = ebpf::Execute(rig.bpf, *loaded.value(),
                                     skb.value().meta_addr, {}, &rig.loader);
    safex::InvokeOptions opts;
    opts.skb_meta = skb.value().meta_addr;
    auto safex_outcome = rig.runtime->Invoke(
        filter,
        {safex::Capability::kPacketAccess, safex::Capability::kMapAccess},
        opts);
    ASSERT_TRUE(ebpf_result.ok());
    ASSERT_TRUE(safex_outcome.status.ok());
    EXPECT_EQ(ebpf_result.value().r0, safex_outcome.ret)
        << "verdict parity at packet " << i;
  }

  // Map contents identical.
  for (xbase::u32 klass = 0; klass < 4; ++klass) {
    u8 keybuf[4];
    xbase::StoreLe32(keybuf, klass);
    auto a = rig.bpf.maps().Find(ebpf_fd).value()->LookupAddr(rig.kernel,
                                                              keybuf);
    auto b = rig.bpf.maps().Find(safex_fd).value()->LookupAddr(rig.kernel,
                                                               keybuf);
    EXPECT_EQ(rig.kernel.mem().ReadU64(a.value()).value(),
              rig.kernel.mem().ReadU64(b.value()).value())
        << "class " << klass;
  }
}

}  // namespace
