// Deep coverage of the kernel-crate API surface: Slice windows, MapRef
// conveniences, packet views, and — the §3.2 evidence — property-based
// parity between retired helpers and their language replacements
// (bpf_strtol vs ParseInt, bpf_strncmp vs StrCmp) on randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/core/loader.h"
#include "src/core/toolchain.h"
#include "src/ebpf/runtime.h"
#include "src/xbase/bytes.h"
#include "src/xbase/rand.h"

namespace safex {
namespace {

using xbase::u32;
using xbase::u64;
using xbase::u8;

class LambdaExt : public Extension {
 public:
  using Body = std::function<xbase::Result<u64>(Ctx&)>;
  explicit LambdaExt(Body body) : body_(std::move(body)) {}
  xbase::Result<u64> Run(Ctx& ctx) override { return body_(ctx); }

 private:
  Body body_;
};

class CrateApiTest : public ::testing::Test {
 protected:
  CrateApiTest() : bpf_(kernel_) {
    EXPECT_TRUE(kernel_.BootstrapWorkload().ok());
    runtime_ = Runtime::Create(kernel_, bpf_).value();
  }

  InvokeOutcome Run(LambdaExt::Body body, CapSet caps,
                    InvokeOptions options = {}) {
    LambdaExt ext(std::move(body));
    return runtime_->Invoke(ext, caps, options);
  }

  int MakeMap(ebpf::MapType type, u32 key_size, u32 value_size,
              u32 entries) {
    ebpf::MapSpec spec;
    spec.type = type;
    spec.key_size = key_size;
    spec.value_size = value_size;
    spec.max_entries = entries;
    spec.name = "crate";
    return bpf_.maps().Create(spec).value();
  }

  simkern::Kernel kernel_;
  ebpf::Bpf bpf_;
  std::unique_ptr<Runtime> runtime_;
};

// ---- Slice ---------------------------------------------------------------

TEST_F(CrateApiTest, SliceTypedAccessorsRoundTrip) {
  const int fd = MakeMap(ebpf::MapType::kArray, 4, 32, 1);
  const auto outcome = Run(
      [fd](Ctx& ctx) -> xbase::Result<u64> {
        auto map = ctx.Map(fd);
        XB_RETURN_IF_ERROR(map.status());
        auto slot = map.value().LookupIndex(0);
        XB_RETURN_IF_ERROR(slot.status());
        Slice& s = slot.value();
        XB_RETURN_IF_ERROR(s.WriteU64(0, 0x1122334455667788ULL));
        XB_RETURN_IF_ERROR(s.WriteU32(8, 0xa1b2c3d4));
        XB_RETURN_IF_ERROR(s.WriteU16(12, 0xbeef));
        XB_RETURN_IF_ERROR(s.WriteU8(14, 0x7f));
        auto q = s.ReadU64(0);
        auto d = s.ReadU32(8);
        auto h = s.ReadU16(12);
        auto b = s.ReadU8(14);
        XB_RETURN_IF_ERROR(q.status());
        XB_RETURN_IF_ERROR(d.status());
        XB_RETURN_IF_ERROR(h.status());
        XB_RETURN_IF_ERROR(b.status());
        if (q.value() != 0x1122334455667788ULL || d.value() != 0xa1b2c3d4 ||
            h.value() != 0xbeef || b.value() != 0x7f) {
          return u64{1};
        }
        // Endianness: the u64 low byte must be the first byte.
        auto first = s.ReadU8(0);
        return first.value() == 0x88 ? u64{0} : u64{2};
      },
      {Capability::kMapAccess});
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.ret, 0u);
}

TEST_F(CrateApiTest, SubSliceWindowsAreRelative) {
  const int fd = MakeMap(ebpf::MapType::kArray, 4, 32, 1);
  const auto outcome = Run(
      [fd](Ctx& ctx) -> xbase::Result<u64> {
        auto slot = ctx.Map(fd).value().LookupIndex(0);
        XB_RETURN_IF_ERROR(slot.status());
        XB_RETURN_IF_ERROR(slot.value().WriteU64(16, 0xfeed));
        auto window = slot.value().SubSlice(16, 8);
        XB_RETURN_IF_ERROR(window.status());
        auto value = window.value().ReadU64(0);
        XB_RETURN_IF_ERROR(value.status());
        if (value.value() != 0xfeed) {
          return u64{1};
        }
        // A window cannot reach past itself even though the parent could.
        return window.value().ReadU64(8).ok() ? u64{2} : u64{0};
      },
      {Capability::kMapAccess});
  EXPECT_TRUE(outcome.panicked) << "over-read must panic";
  EXPECT_NE(outcome.panic_reason.find("out of bounds"), std::string::npos);
}

TEST_F(CrateApiTest, SubSliceCannotEscapeParent) {
  const int fd = MakeMap(ebpf::MapType::kArray, 4, 32, 1);
  const auto outcome = Run(
      [fd](Ctx& ctx) -> xbase::Result<u64> {
        auto slot = ctx.Map(fd).value().LookupIndex(0);
        XB_RETURN_IF_ERROR(slot.status());
        auto escape = slot.value().SubSlice(16, 64);
        return escape.ok() ? u64{1} : u64{0};
      },
      {Capability::kMapAccess});
  EXPECT_TRUE(outcome.panicked);
}

TEST_F(CrateApiTest, BulkBytesRoundTrip) {
  const int fd = MakeMap(ebpf::MapType::kArray, 4, 32, 1);
  const auto outcome = Run(
      [fd](Ctx& ctx) -> xbase::Result<u64> {
        auto slot = ctx.Map(fd).value().LookupIndex(0);
        XB_RETURN_IF_ERROR(slot.status());
        const u8 payload[] = {9, 8, 7, 6, 5};
        XB_RETURN_IF_ERROR(slot.value().WriteBytes(3, payload));
        auto read_back = slot.value().ReadBytes(3, 5);
        XB_RETURN_IF_ERROR(read_back.status());
        return read_back.value() == std::vector<u8>({9, 8, 7, 6, 5})
                   ? u64{0}
                   : u64{1};
      },
      {Capability::kMapAccess});
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.ret, 0u);
}

// ---- MapRef ---------------------------------------------------------------

TEST_F(CrateApiTest, LookupOrInitCreatesHashEntries) {
  const int fd = MakeMap(ebpf::MapType::kHash, 4, 8, 8);
  const auto outcome = Run(
      [fd](Ctx& ctx) -> xbase::Result<u64> {
        auto map = ctx.Map(fd);
        XB_RETURN_IF_ERROR(map.status());
        u8 key[4] = {1, 2, 3, 4};
        if (map.value().Lookup(key).ok()) {
          return u64{1};  // must start absent
        }
        auto created = map.value().LookupOrInit(key);
        XB_RETURN_IF_ERROR(created.status());
        XB_RETURN_IF_ERROR(created.value().WriteU64(0, 55));
        auto again = map.value().LookupOrInit(key);
        XB_RETURN_IF_ERROR(again.status());
        auto value = again.value().ReadU64(0);
        return value.value() == 55 ? u64{0} : u64{2};
      },
      {Capability::kMapAccess});
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.ret, 0u);
}

TEST_F(CrateApiTest, MapDeleteThroughCrate) {
  const int fd = MakeMap(ebpf::MapType::kHash, 4, 8, 8);
  const auto outcome = Run(
      [fd](Ctx& ctx) -> xbase::Result<u64> {
        auto map = ctx.Map(fd);
        XB_RETURN_IF_ERROR(map.status());
        u8 key[4] = {7, 0, 0, 0};
        u8 value[8] = {1};
        XB_RETURN_IF_ERROR(map.value().Update(key, value, 0));
        XB_RETURN_IF_ERROR(map.value().Delete(key));
        return map.value().Lookup(key).ok() ? u64{1} : u64{0};
      },
      {Capability::kMapAccess});
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.ret, 0u);
}

TEST_F(CrateApiTest, InvalidMapFdIsCleanError) {
  const auto outcome = Run(
      [](Ctx& ctx) -> xbase::Result<u64> {
        return ctx.Map(12345).ok() ? u64{1} : u64{0};
      },
      {Capability::kMapAccess});
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.ret, 0u);
  EXPECT_FALSE(outcome.panicked) << "a bad fd is an error, not a panic";
}

// ---- packet view -------------------------------------------------------------

TEST_F(CrateApiTest, PacketViewReadsAndWritesPayload) {
  u8 payload[24] = {};
  payload[0] = 0xab;
  auto skb = kernel_.net().CreateSkBuff(kernel_.mem(), payload).value();
  InvokeOptions options;
  options.skb_meta = skb.meta_addr;
  const auto outcome = Run(
      [](Ctx& ctx) -> xbase::Result<u64> {
        auto packet = ctx.Packet();
        XB_RETURN_IF_ERROR(packet.status());
        auto first = packet.value().ReadU8(0);
        XB_RETURN_IF_ERROR(first.status());
        XB_RETURN_IF_ERROR(packet.value().WriteU8(1, 0xcd));
        auto len = ctx.PacketLen();
        XB_RETURN_IF_ERROR(len.status());
        return (static_cast<u64>(first.value()) << 32) | len.value();
      },
      {Capability::kPacketAccess}, options);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.ret >> 32, 0xabu);
  EXPECT_EQ(outcome.ret & 0xffffffff, 24u);
  // The write is visible in the real packet bytes.
  u8 byte;
  ASSERT_TRUE(kernel_.mem().Read(skb.data_addr + 1, {&byte, 1}).ok());
  EXPECT_EQ(byte, 0xcd);
}

TEST_F(CrateApiTest, PacketWithoutSkbHookIsCleanError) {
  const auto outcome = Run(
      [](Ctx& ctx) -> xbase::Result<u64> {
        return ctx.Packet().ok() ? u64{1} : u64{0};
      },
      {Capability::kPacketAccess});
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.ret, 0u);
}

// ---- signals -----------------------------------------------------------------

// SendSignal is the one runtime check of kSignal: granted, the signal is
// logged against the current task; withheld, the extension is killed.
TEST_F(CrateApiTest, SendSignalRequiresSignalCapability) {
  const auto send = [](Ctx& ctx) -> xbase::Result<u64> {
    XB_RETURN_IF_ERROR(ctx.SendSignal(9));
    return u64{0};
  };
  const simkern::Task* task = kernel_.tasks().current(kernel_.current_cpu());
  ASSERT_NE(task, nullptr);
  const std::string line =
      "safex: signal 9 to pid " + std::to_string(task->pid);
  // dmesg lines carry a timestamp prefix.
  const auto signal_lines = [&] {
    return std::ranges::count_if(kernel_.dmesg(), [&](const std::string& l) {
      return l.ends_with(line);
    });
  };

  const auto granted = Run(send, {Capability::kSignal});
  EXPECT_TRUE(granted.status.ok()) << granted.status.ToString();
  EXPECT_EQ(signal_lines(), 1);

  const auto withheld = Run(send, {Capability::kTracing});
  EXPECT_TRUE(withheld.panicked);
  EXPECT_EQ(withheld.status.code(), xbase::Code::kTerminated);
  EXPECT_NE(withheld.panic_reason.find("capability violation"),
            std::string::npos)
      << withheld.panic_reason;
  EXPECT_EQ(signal_lines(), 1);
}

// ---- §3.2 retirement parity (property-based) -----------------------------------

// ParseInt must agree with the bpf_strtol helper wherever both are defined
// (the helper parses a prefix; the language parses the whole string — so
// compare on exactly-consumed inputs).
class RetirementParityTest : public ::testing::TestWithParam<u64> {};

TEST_P(RetirementParityTest, ParseIntMatchesStrtolHelper) {
  simkern::Kernel kernel;
  ebpf::Bpf bpf(kernel);
  ASSERT_TRUE(kernel.BootstrapWorkload().ok());
  auto runtime = Runtime::Create(kernel, bpf).value();

  const simkern::Addr text_buf =
      kernel.mem()
          .Map(32, simkern::MemPerm::kReadWrite,
               simkern::RegionKind::kKernelData, "text")
          .value();
  const simkern::Addr out_buf =
      kernel.mem()
          .Map(8, simkern::MemPerm::kReadWrite,
               simkern::RegionKind::kKernelData, "out")
          .value();
  auto strtol_fn = bpf.helpers().FindFn(ebpf::kHelperStrtol).value();

  xbase::Rng rng(GetParam());
  SCOPED_TRACE(::testing::Message() << "rng seed " << rng.seed());
  for (int trial = 0; trial < 300; ++trial) {
    // Random decimal string with optional sign.
    std::string text;
    if (rng.NextBool()) {
      text.push_back(rng.NextBool() ? '-' : '+');
    }
    const int digits = 1 + static_cast<int>(rng.NextBelow(15));
    for (int i = 0; i < digits; ++i) {
      text.push_back(static_cast<char>('0' + rng.NextBelow(10)));
    }

    // Helper path.
    ASSERT_TRUE(kernel.mem()
                    .Write(text_buf,
                           std::span<const u8>(
                               reinterpret_cast<const u8*>(text.data()),
                               text.size()))
                    .ok());
    ebpf::HelperCtx hctx = bpf.MakeHelperCtx(nullptr);
    const ebpf::HelperArgs args = {text_buf, text.size(), 0, out_buf, 0};
    auto helper_ret = (*strtol_fn)(hctx, args);
    ASSERT_TRUE(helper_ret.ok());

    // Language path.
    Ctx ctx(*runtime, {}, kDefaultWatchdogBudgetNs, 0);
    auto lang = ctx.ParseInt(text);

    const bool helper_parsed =
        static_cast<xbase::s64>(helper_ret.value()) ==
        static_cast<xbase::s64>(text.size());
    if (helper_parsed && lang.ok()) {
      const u64 helper_value = kernel.mem().ReadU64(out_buf).value();
      EXPECT_EQ(static_cast<xbase::s64>(helper_value), lang.value())
          << "disagree on '" << text << "'";
    } else if (helper_parsed != lang.ok()) {
      // '+' sign: the helper consumes it only as part of a full parse;
      // overflow: language refuses, helper wraps. Both differences are
      // documented; anything else is a real divergence.
      const bool overflow_case = digits >= 15;
      EXPECT_TRUE(overflow_case) << "unexplained divergence on '" << text
                                 << "'";
    }
  }
}

TEST_P(RetirementParityTest, StrCmpMatchesStrncmpHelper) {
  simkern::Kernel kernel;
  ebpf::Bpf bpf(kernel);
  ASSERT_TRUE(kernel.BootstrapWorkload().ok());
  const simkern::Addr a_buf =
      kernel.mem()
          .Map(16, simkern::MemPerm::kReadWrite,
               simkern::RegionKind::kKernelData, "a")
          .value();
  const simkern::Addr b_buf =
      kernel.mem()
          .Map(16, simkern::MemPerm::kReadWrite,
               simkern::RegionKind::kKernelData, "b")
          .value();
  auto strncmp_fn = bpf.helpers().FindFn(ebpf::kHelperStrncmp).value();

  xbase::Rng rng(GetParam() ^ 0xf00);
  SCOPED_TRACE(::testing::Message() << "rng seed " << rng.seed());
  for (int trial = 0; trial < 300; ++trial) {
    const u32 len = 1 + static_cast<u32>(rng.NextBelow(8));
    std::string s1, s2;
    for (u32 i = 0; i < len; ++i) {
      s1.push_back(static_cast<char>('a' + rng.NextBelow(3)));
      s2.push_back(static_cast<char>('a' + rng.NextBelow(3)));
    }
    std::vector<u8> raw1(16, 0), raw2(16, 0);
    std::copy(s1.begin(), s1.end(), raw1.begin());
    std::copy(s2.begin(), s2.end(), raw2.begin());
    ASSERT_TRUE(kernel.mem().Write(a_buf, raw1).ok());
    ASSERT_TRUE(kernel.mem().Write(b_buf, raw2).ok());

    ebpf::HelperCtx hctx = bpf.MakeHelperCtx(nullptr);
    const ebpf::HelperArgs args = {a_buf, len, b_buf, 0, 0};
    auto helper_ret = (*strncmp_fn)(hctx, args);
    ASSERT_TRUE(helper_ret.ok());
    const int helper_sign =
        static_cast<xbase::s64>(helper_ret.value()) == 0
            ? 0
            : (static_cast<xbase::s64>(helper_ret.value()) < 0 ? -1 : 1);

    const int lang = Ctx::StrCmp(s1, s2, len);
    const int lang_sign = lang == 0 ? 0 : (lang < 0 ? -1 : 1);
    EXPECT_EQ(helper_sign, lang_sign)
        << "'" << s1 << "' vs '" << s2 << "' len " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetirementParityTest,
                         ::testing::Values(17, 4242, 90001));

}  // namespace
}  // namespace safex
