// Helper implementation tests: direct invocation of each helper family
// against the simulated kernel, including error paths and the behaviours
// the §2.2 and Table 1 experiments rely on.
#include <gtest/gtest.h>

#include "src/ebpf/bpf.h"
#include "src/ebpf/runtime.h"
#include "src/xbase/bytes.h"

namespace ebpf {
namespace {

class HelpersTest : public ::testing::Test {
 protected:
  HelpersTest() : bpf_(kernel_) {
    EXPECT_TRUE(kernel_.BootstrapWorkload().ok());
  }

  // Invokes a helper directly (no program, no hooks).
  xbase::Result<u64> Call(u32 id, HelperArgs args) {
    auto fn = bpf_.helpers().FindFn(id);
    if (!fn.ok()) {
      return fn.status();
    }
    HelperCtx ctx = bpf_.MakeHelperCtx(nullptr);
    return (*fn.value())(ctx, args);
  }

  simkern::Addr MapBuffer(xbase::usize size, const std::string& name) {
    return kernel_.mem()
        .Map(size, simkern::MemPerm::kReadWrite,
             simkern::RegionKind::kKernelData, name)
        .value();
  }

  int CreateArrayMap(u32 value_size, u32 entries) {
    MapSpec spec;
    spec.type = MapType::kArray;
    spec.key_size = 4;
    spec.value_size = value_size;
    spec.max_entries = entries;
    spec.name = "h";
    return bpf_.maps().Create(spec).value();
  }

  simkern::Kernel kernel_;
  Bpf bpf_;
};

TEST_F(HelpersTest, RegistryHasFullSuite) {
  EXPECT_GE(bpf_.helpers().AllSpecs().size(), 75u);
  // Real Linux helper ids resolve.
  EXPECT_TRUE(bpf_.helpers().FindSpec(kHelperMapLookupElem).ok());
  EXPECT_TRUE(bpf_.helpers().FindSpec(kHelperSysBpf).ok());
  EXPECT_FALSE(bpf_.helpers().FindSpec(9999).ok());
}

TEST_F(HelpersTest, CensusGrowsMonotonically) {
  xbase::usize prev = 0;
  for (const auto version : simkern::kPlottedVersions) {
    const xbase::usize count = bpf_.helpers().CountAtVersion(version);
    EXPECT_GE(count, prev);
    prev = count;
  }
  EXPECT_EQ(bpf_.helpers().CountAtVersion(simkern::kV3_18), 3u);
}

TEST_F(HelpersTest, EveryHelperEntryIsInTheCallGraph) {
  for (const HelperSpec* spec : bpf_.helpers().AllSpecs()) {
    EXPECT_TRUE(kernel_.callgraph().Contains(spec->entry_func))
        << spec->name;
  }
}

TEST_F(HelpersTest, KtimeReturnsSimulatedClock) {
  kernel_.clock().Advance(12345);
  EXPECT_EQ(Call(kHelperKtimeGetNs, {}).value(), 12345u);
}

TEST_F(HelpersTest, PidTgidPacksBothHalves) {
  const u64 result = Call(kHelperGetCurrentPidTgid, {}).value();
  EXPECT_EQ(result & 0xffffffff, 1234u);   // pid
  EXPECT_EQ(result >> 32, 1200u);          // tgid
}

TEST_F(HelpersTest, GetCurrentCommCopiesName) {
  const simkern::Addr buf = MapBuffer(16, "comm");
  ASSERT_TRUE(Call(kHelperGetCurrentComm, {buf, 16, 0, 0, 0}).ok());
  xbase::u8 bytes[16];
  ASSERT_TRUE(kernel_.mem().Read(buf, bytes).ok());
  EXPECT_STREQ(reinterpret_cast<const char*>(bytes), "memcached");
}

TEST_F(HelpersTest, ProbeReadToleratesBadAddresses) {
  const simkern::Addr dst = MapBuffer(8, "dst");
  // Reading NULL returns -EFAULT, does not oops.
  EXPECT_EQ(Call(kHelperProbeRead, {dst, 8, 0, 0, 0}).value(),
            NegErrno(kEFault));
  EXPECT_FALSE(kernel_.crashed());
  // Valid source works.
  const simkern::Addr src = MapBuffer(8, "src");
  ASSERT_TRUE(kernel_.mem().WriteU64(src, 0x77).ok());
  EXPECT_EQ(Call(kHelperProbeRead, {dst, 8, src, 0, 0}).value(), 0u);
  EXPECT_EQ(kernel_.mem().ReadU64(dst).value(), 0x77u);
}

TEST_F(HelpersTest, ProbeReadStrStopsAtNul) {
  const simkern::Addr src = MapBuffer(16, "s");
  const xbase::u8 text[] = {'h', 'i', 0, 'x'};
  ASSERT_TRUE(kernel_.mem().Write(src, text).ok());
  const simkern::Addr dst = MapBuffer(16, "d");
  EXPECT_EQ(Call(kHelperProbeReadStr, {dst, 16, src, 0, 0}).value(), 3u);
}

TEST_F(HelpersTest, StrtolParsesAndRejects) {
  const simkern::Addr text = MapBuffer(16, "text");
  const simkern::Addr out = MapBuffer(8, "out");
  const xbase::u8 digits[] = {'-', '4', '2', 0};
  ASSERT_TRUE(kernel_.mem().Write(text, digits).ok());
  EXPECT_EQ(Call(kHelperStrtol, {text, 3, 0, out, 0}).value(), 3u);
  EXPECT_EQ(static_cast<xbase::s64>(kernel_.mem().ReadU64(out).value()),
            -42);
  const xbase::u8 junk[] = {'x', 'y', 0};
  ASSERT_TRUE(kernel_.mem().Write(text, junk).ok());
  EXPECT_EQ(Call(kHelperStrtol, {text, 2, 0, out, 0}).value(),
            NegErrno(kEInval));
}

TEST_F(HelpersTest, StrncmpComparesBytes) {
  const simkern::Addr a = MapBuffer(8, "a");
  const simkern::Addr b = MapBuffer(8, "b");
  const xbase::u8 s1[] = {'a', 'b', 'c', 0};
  const xbase::u8 s2[] = {'a', 'b', 'd', 0};
  ASSERT_TRUE(kernel_.mem().Write(a, s1).ok());
  ASSERT_TRUE(kernel_.mem().Write(b, s2).ok());
  EXPECT_EQ(Call(kHelperStrncmp, {a, 4, b, 0, 0}).value(),
            static_cast<u64>(static_cast<s64>('c' - 'd')));
  EXPECT_EQ(Call(kHelperStrncmp, {a, 4, a, 0, 0}).value(), 0u);
}

TEST_F(HelpersTest, SnprintfFormatsSubset) {
  const simkern::Addr out = MapBuffer(64, "out");
  const simkern::Addr fmt = MapBuffer(32, "fmt");
  const simkern::Addr data = MapBuffer(16, "data");
  const char* format = "v=%d h=%x";
  ASSERT_TRUE(kernel_.mem()
                  .Write(fmt, std::span<const xbase::u8>(
                                  reinterpret_cast<const xbase::u8*>(format),
                                  strlen(format) + 1))
                  .ok());
  ASSERT_TRUE(kernel_.mem().WriteU64(data, 42).ok());
  ASSERT_TRUE(kernel_.mem().WriteU64(data + 8, 255).ok());
  ASSERT_TRUE(Call(kHelperSnprintf, {out, 64, fmt, data, 16}).ok());
  xbase::u8 bytes[16];
  ASSERT_TRUE(kernel_.mem().Read(out, bytes).ok());
  EXPECT_STREQ(reinterpret_cast<const char*>(bytes), "v=42 h=ff");
}

TEST_F(HelpersTest, SkLookupAcquiresReference) {
  const simkern::Addr tuple = MapBuffer(12, "tuple");
  xbase::u8 bytes[12];
  xbase::StoreLe32(bytes, 0x0a000001);
  xbase::StoreLe32(bytes + 4, 0x0a000002);
  xbase::StoreLe16(bytes + 8, 8080);
  xbase::StoreLe16(bytes + 10, 40000);
  ASSERT_TRUE(kernel_.mem().Write(tuple, bytes).ok());

  const auto before = kernel_.objects().Snapshot();
  const u64 sock_addr =
      Call(kHelperSkLookupTcp, {0, tuple, 12, 0, 0}).value();
  ASSERT_NE(sock_addr, 0u);
  EXPECT_EQ(kernel_.objects().DiffSince(before).size(), 1u);

  // Release restores the count.
  ASSERT_TRUE(Call(kHelperSkRelease, {sock_addr, 0, 0, 0, 0}).ok());
  EXPECT_TRUE(kernel_.objects().DiffSince(before).empty());

  // A miss returns NULL without touching counts.
  xbase::StoreLe16(bytes + 8, 9);
  ASSERT_TRUE(kernel_.mem().Write(tuple, bytes).ok());
  EXPECT_EQ(Call(kHelperSkLookupTcp, {0, tuple, 12, 0, 0}).value(), 0u);
  EXPECT_TRUE(kernel_.objects().DiffSince(before).empty());
}

TEST_F(HelpersTest, GetTaskStackBalancedOnBothPaths) {
  const simkern::Task* task = kernel_.tasks().current(0);
  const simkern::Addr buf = MapBuffer(64, "stack");
  const auto before = kernel_.objects().Snapshot();
  // Happy path.
  EXPECT_EQ(Call(kHelperGetTaskStack, {task->struct_addr, buf, 64, 0, 0})
                .value(),
            64u);
  EXPECT_TRUE(kernel_.objects().DiffSince(before).empty());
  // Error path (fixed helper releases there too).
  EXPECT_EQ(Call(kHelperGetTaskStack, {task->struct_addr, buf, 4, 0, 0})
                .value(),
            NegErrno(kEFault));
  EXPECT_TRUE(kernel_.objects().DiffSince(before).empty());
}

TEST_F(HelpersTest, GetTaskStackLeakUnderInjectedDefect) {
  bpf_.faults().Inject(kFaultHelperTaskStackLeak);
  const simkern::Task* task = kernel_.tasks().current(0);
  const simkern::Addr buf = MapBuffer(64, "stack");
  const auto before = kernel_.objects().Snapshot();
  EXPECT_EQ(Call(kHelperGetTaskStack, {task->struct_addr, buf, 4, 0, 0})
                .value(),
            NegErrno(kEFault));
  EXPECT_EQ(kernel_.objects().DiffSince(before).size(), 1u);
}

TEST_F(HelpersTest, TaskStorageNullOwnerFixedVsBuggy) {
  MapSpec spec;
  spec.type = MapType::kTaskStorage;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 8;
  spec.name = "ts";
  const int fd = bpf_.maps().Create(spec).value();
  const u64 handle = MapHandleFromFd(fd);

  // Fixed behaviour: NULL owner yields NULL.
  EXPECT_EQ(Call(kHelperTaskStorageGet, {handle, 0, 0, 1, 0}).value(), 0u);
  EXPECT_FALSE(kernel_.crashed());

  // Buggy behaviour: NULL owner is dereferenced.
  bpf_.faults().Inject(kFaultHelperTaskStorageNull);
  const auto result = Call(kHelperTaskStorageGet, {handle, 0, 0, 1, 0});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(kernel_.crashed());
}

TEST_F(HelpersTest, SysBpfMapCreatePath) {
  const simkern::Addr attr = MapBuffer(64, "attr");
  ASSERT_TRUE(kernel_.mem().WriteU32(attr + 4, 8).ok());    // value_size
  ASSERT_TRUE(kernel_.mem().WriteU32(attr + 8, 16).ok());   // max_entries
  const auto fd = Call(kHelperSysBpf, {kSysBpfMapCreate, attr, 64, 0, 0});
  ASSERT_TRUE(fd.ok());
  EXPECT_GT(static_cast<s64>(fd.value()), 0);
  EXPECT_TRUE(bpf_.maps().Find(static_cast<int>(fd.value())).ok());
}

TEST_F(HelpersTest, SysBpfProgLoadNullPointerCrashes) {
  const simkern::Addr attr = MapBuffer(64, "attr");  // insns ptr = 0
  const auto result = Call(kHelperSysBpf, {kSysBpfProgLoad, attr, 64, 0, 0});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), xbase::Code::kKernelFault);
  EXPECT_TRUE(kernel_.crashed());
}

TEST_F(HelpersTest, SysBpfRejectsShortAttr) {
  EXPECT_EQ(Call(kHelperSysBpf, {kSysBpfProgLoad, 0, 8, 0, 0}).value(),
            NegErrno(kEInval));
}

TEST_F(HelpersTest, SkbStoreAndLoadBytes) {
  xbase::u8 payload[32] = {};
  auto skb = kernel_.net().CreateSkBuff(kernel_.mem(), payload).value();
  const simkern::Addr src = MapBuffer(4, "src");
  ASSERT_TRUE(kernel_.mem().WriteU32(src, 0xaabbccdd).ok());
  EXPECT_EQ(Call(kHelperSkbStoreBytes, {skb.meta_addr, 8, src, 4, 0})
                .value(),
            0u);
  const simkern::Addr dst = MapBuffer(4, "dst");
  EXPECT_EQ(Call(kHelperSkbLoadBytes, {skb.meta_addr, 8, dst, 4, 0})
                .value(),
            0u);
  EXPECT_EQ(kernel_.mem().ReadU32(dst).value(), 0xaabbccddu);
  // Out of bounds offset fails cleanly.
  EXPECT_EQ(Call(kHelperSkbStoreBytes, {skb.meta_addr, 30, src, 4, 0})
                .value(),
            NegErrno(kEFault));
}

TEST_F(HelpersTest, VlanPushPopAdjustsMetadata) {
  xbase::u8 payload[32] = {};
  auto skb = kernel_.net().CreateSkBuff(kernel_.mem(), payload).value();
  ASSERT_TRUE(Call(kHelperSkbVlanPush, {skb.meta_addr, 0x8100, 5, 0, 0})
                  .ok());
  EXPECT_EQ(kernel_.mem()
                .ReadU32(skb.meta_addr + simkern::SkBuffLayout::kLen)
                .value(),
            36u);
  ASSERT_TRUE(Call(kHelperSkbVlanPop, {skb.meta_addr, 0, 0, 0, 0}).ok());
  EXPECT_EQ(kernel_.mem()
                .ReadU32(skb.meta_addr + simkern::SkBuffLayout::kLen)
                .value(),
            32u);
}

TEST_F(HelpersTest, XdpAdjustHeadMovesDataPointer) {
  xbase::u8 payload[32] = {};
  auto skb = kernel_.net().CreateSkBuff(kernel_.mem(), payload).value();
  ASSERT_TRUE(Call(kHelperXdpAdjustHead, {skb.meta_addr, 8, 0, 0, 0}).ok());
  EXPECT_EQ(kernel_.mem()
                .ReadU64(skb.meta_addr + simkern::SkBuffLayout::kDataPtr)
                .value(),
            skb.data_addr + 8);
  // Negative delta (no headroom) fails.
  const u64 neg = static_cast<u64>(-4);
  EXPECT_EQ(Call(kHelperXdpAdjustHead, {skb.meta_addr, neg, 0, 0, 0})
                .value(),
            NegErrno(kEInval));
}

TEST_F(HelpersTest, SpinLockHelperDetectsDoubleAcquire) {
  const int fd = CreateArrayMap(16, 1);
  xbase::u8 key[4] = {};
  const simkern::Addr value =
      bpf_.maps().Find(fd).value()->LookupAddr(kernel_, key).value();
  ASSERT_TRUE(Call(kHelperSpinLock, {value, 0, 0, 0, 0}).ok());
  const auto second = Call(kHelperSpinLock, {value, 0, 0, 0, 0});
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(kernel_.crashed()) << "runtime deadlock is an oops";
}

TEST_F(HelpersTest, FibLookupFillsResult) {
  const simkern::Addr params = MapBuffer(16, "fib");
  EXPECT_EQ(Call(kHelperFibLookup, {0, params, 16, 0, 0}).value(), 0u);
  EXPECT_EQ(kernel_.mem().ReadU32(params).value(), 1u);  // ifindex
}

TEST_F(HelpersTest, CsumDiffComputesDelta) {
  const simkern::Addr from = MapBuffer(4, "from");
  const simkern::Addr to = MapBuffer(4, "to");
  ASSERT_TRUE(kernel_.mem().WriteU32(from, 0x01010101).ok());
  ASSERT_TRUE(kernel_.mem().WriteU32(to, 0x02020202).ok());
  const u64 diff = Call(kHelperCsumDiff, {from, 4, to, 4, 0}).value();
  EXPECT_EQ(diff, 4u);  // +1 per byte
}

}  // namespace
}  // namespace ebpf
