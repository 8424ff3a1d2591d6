// Unit tests for the foundation library: Status/Result plumbing, the
// deterministic PRNG, byte encoding, formatting, id allocation, the
// striped reader-writer lock and the latency histogram.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/xbase/bytes.h"
#include "src/xbase/ids.h"
#include "src/xbase/log.h"
#include "src/xbase/metrics.h"
#include "src/xbase/rand.h"
#include "src/xbase/rwlock.h"
#include "src/xbase/status.h"
#include "src/xbase/strfmt.h"

namespace xbase {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), Code::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ConstructorsCarryCodeAndMessage) {
  EXPECT_EQ(InvalidArgument("x").code(), Code::kInvalidArgument);
  EXPECT_EQ(NotFound("x").code(), Code::kNotFound);
  EXPECT_EQ(AlreadyExists("x").code(), Code::kAlreadyExists);
  EXPECT_EQ(OutOfRange("x").code(), Code::kOutOfRange);
  EXPECT_EQ(PermissionDenied("x").code(), Code::kPermissionDenied);
  EXPECT_EQ(ResourceExhausted("x").code(), Code::kResourceExhausted);
  EXPECT_EQ(FailedPrecondition("x").code(), Code::kFailedPrecondition);
  EXPECT_EQ(Unimplemented("x").code(), Code::kUnimplemented);
  EXPECT_EQ(Rejected("x").code(), Code::kRejected);
  EXPECT_EQ(Terminated("x").code(), Code::kTerminated);
  EXPECT_EQ(KernelFault("x").code(), Code::kKernelFault);
  EXPECT_EQ(Internal("x").code(), Code::kInternal);
  EXPECT_EQ(Rejected("why").ToString(), "REJECTED: why");
}

TEST(ResultTest, ValueCarriesOkStatus) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, ErrorCarriesStatus) {
  Result<int> result(NotFound("nope"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

Status FailsThrough() {
  XB_RETURN_IF_ERROR(OutOfRange("inner"));
  return Status::Ok();
}

TEST(MacroTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough().code(), Code::kOutOfRange);
}

Result<int> Doubles(Result<int> input) {
  XB_ASSIGN_OR_RETURN(const int value, std::move(input));
  return value * 2;
}

TEST(MacroTest, AssignOrReturnBindsAndPropagates) {
  EXPECT_EQ(Doubles(21).value(), 42);
  EXPECT_EQ(Doubles(Internal("bad")).status().code(), Code::kInternal);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysBelow) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  std::set<s64> seen;
  for (int i = 0; i < 200; ++i) {
    const s64 value = rng.NextInRange(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(BytesTest, LittleEndianRoundTrip) {
  u8 buf[8];
  StoreLe64(buf, 0x1122334455667788ULL);
  EXPECT_EQ(buf[0], 0x88);
  EXPECT_EQ(buf[7], 0x11);
  EXPECT_EQ(LoadLe64(buf), 0x1122334455667788ULL);
  StoreLe32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadLe32(buf), 0xdeadbeefu);
  StoreLe16(buf, 0xcafe);
  EXPECT_EQ(LoadLe16(buf), 0xcafe);
}

// The relaxed accesses take the word path when aligned and the byte path
// otherwise; both must read and write the same little-endian bytes.
TEST(BytesTest, RelaxedAccessesAgreeWithLittleEndianAtEveryAlignment) {
  for (u32 bytes : {1u, 2u, 4u, 8u}) {
    for (usize off = 0; off < 8; ++off) {
      alignas(8) u8 buf[16] = {};
      const u64 mask = bytes == 8 ? ~u64{0} : (u64{1} << (8 * bytes)) - 1;
      StoreRelaxed(buf + off, bytes, 0x1122334455667788ULL);
      u8 expect[8] = {};
      StoreLe64(expect, 0x1122334455667788ULL);
      EXPECT_EQ(std::memcmp(buf + off, expect, bytes), 0) << bytes << off;
      EXPECT_EQ(buf[off + bytes], 0) << "no byte past the access";
      EXPECT_EQ(LoadRelaxed(buf + off, bytes), 0x1122334455667788ULL & mask);
      AddRelaxed(buf + off, bytes, 0x0101010101010101ULL);
      EXPECT_EQ(LoadRelaxed(buf + off, bytes), 0x1223344556677889ULL & mask);

      alignas(8) u8 copy[16] = {};
      CopyRelaxed(copy + off, buf + off, bytes);
      EXPECT_EQ(std::memcmp(copy, buf, sizeof(buf)), 0) << bytes << off;
    }
  }
}

TEST(BytesTest, BigEndianRoundTrip) {
  u8 buf[8];
  StoreBe32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(LoadBe32(buf), 0x01020304u);
  StoreBe64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[7], 8);
}

TEST(BytesTest, HexEncoding) {
  const u8 data[] = {0x00, 0xff, 0x0a, 0xb1};
  EXPECT_EQ(ToHex(data), "00ff0ab1");
  EXPECT_EQ(ToHex(std::span<const u8>()), "");
}

TEST(BytesTest, Fnv1aMatchesKnownValues) {
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(Fnv1a(std::span<const u8>()), 0xcbf29ce484222325ULL);
  const u8 a[] = {'a'};
  EXPECT_EQ(Fnv1a(a), 0xaf63dc4c8601ec8cULL);
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%04x", 0xab), "00ab");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(LogTest, LevelFiltering) {
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  XB_DEBUG << "should be dropped silently";
  SetLogLevel(LogLevel::kWarn);
}

TEST(IdAllocatorTest, SkipsZeroAndLiveIdsAcrossTheWrap) {
  IdAllocator ids;
  std::set<u32> live;
  const auto allocate = [&]() {
    // 0 is never a valid id, so it stands in for "none" here.
    const u32 id = ids.Allocate(live.size(), [&](u32 candidate) {
                        return live.contains(candidate);
                      }).value_or(0);
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(live.insert(id).second) << "id " << id << " handed out twice";
    return id;
  };
  EXPECT_EQ(allocate(), 1u);
  EXPECT_EQ(allocate(), 2u);
  ids.set_next(0xFFFFFFFE);
  EXPECT_EQ(allocate(), 0xFFFFFFFEu);
  EXPECT_EQ(allocate(), 0xFFFFFFFFu);
  // Wrapped: 0 is reserved and 1, 2 are still live.
  EXPECT_EQ(allocate(), 3u);
  live.erase(1);
  ids.set_next(0);
  EXPECT_EQ(allocate(), 1u) << "a freed id is reusable after the wrap";
}

TEST(IdAllocatorTest, ReportsAFullSpace) {
  IdAllocator ids;
  EXPECT_FALSE(ids.Allocate(std::numeric_limits<u32>::max() - 1,
                            [](u32) { return false; })
                   .has_value());
}

// ---- striped reader-writer lock ---------------------------------------------

// Long enough for a thread that could get in to have done so.
constexpr auto kSettle = std::chrono::milliseconds(50);

TEST(StripedRwLockTest, WriterExcludesReadersOnEveryStripe) {
  StripedRwLock lock;
  lock.lock();
  // One reader per stripe: threads take stripes round-robin, so
  // kThreadStripes fresh threads cover them all.
  std::atomic<usize> entered{0};
  std::mutex stripes_mu;
  std::set<usize> stripes;
  std::vector<std::thread> readers;
  for (usize i = 0; i < kThreadStripes; ++i) {
    readers.emplace_back([&] {
      {
        std::lock_guard<std::mutex> guard(stripes_mu);
        stripes.insert(ThisThreadStripe());
      }
      const StripedRwLock::ReadGuard read(lock);
      entered.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(kSettle);
  EXPECT_EQ(entered.load(), 0u) << "a reader got past the writer";
  lock.unlock();
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(entered.load(), kThreadStripes);
  EXPECT_EQ(stripes.size(), kThreadStripes);
}

TEST(StripedRwLockTest, ReadersOnEightThreadsHoldConcurrently) {
  constexpr usize kReaders = 8;
  StripedRwLock lock;
  std::atomic<usize> inside{0};
  std::atomic<usize> most_inside{0};
  std::vector<std::thread> readers;
  for (usize i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      const StripedRwLock::ReadGuard read(lock);
      const usize now = inside.fetch_add(1) + 1;
      usize seen = most_inside.load();
      while (now > seen && !most_inside.compare_exchange_weak(seen, now)) {
      }
      // Hold until every reader is in (bounded, so a failure cannot hang).
      const auto deadline = std::chrono::steady_clock::now() + kSettle * 20;
      while (inside.load() < kReaders &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(most_inside.load(), kReaders);
  EXPECT_EQ(lock.stats().writer_acquires, 0u);
}

TEST(StripedRwLockTest, WriterWaitsForAReaderOnAnotherThread) {
  StripedRwLock lock;
  std::atomic<bool> reading{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    const StripedRwLock::ReadGuard read(lock);
    reading.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!reading.load()) {
    std::this_thread::yield();
  }
  std::atomic<bool> writing{false};
  std::atomic<bool> written{false};
  std::thread writer([&] {
    writing.store(true);
    const std::lock_guard<StripedRwLock> write(lock);
    written.store(true);
  });
  while (!writing.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(kSettle);
  EXPECT_FALSE(written.load()) << "the writer ran over a reader";
  release.store(true);
  reader.join();
  writer.join();
  EXPECT_TRUE(written.load());
  const RwLockStats stats = lock.stats();
  EXPECT_EQ(stats.writer_acquires, 1u);
  EXPECT_EQ(stats.writer_contended, 1u);
  EXPECT_GT(stats.writer_wait_ns, 0u);
}

TEST(StripedRwLockTest, DisarmedGuardTakesNothing) {
  StripedRwLock lock;
  {
    const StripedRwLock::ReadGuard read(lock, /*armed=*/false);
    // A writer on this very thread would deadlock against an armed guard.
    const std::lock_guard<StripedRwLock> write(lock);
  }
  const RwLockStats stats = lock.stats();
  EXPECT_EQ(stats.writer_acquires, 1u);
  EXPECT_EQ(stats.writer_contended, 0u);
}

TEST(HistogramTest, MergeEqualsRecordingBothSampleSets) {
  // Two CPUs' worth of latencies with different shapes: one tight around
  // 300 ns, one spread over six orders of magnitude.
  Rng rng(7);
  Histogram first;
  Histogram second;
  Histogram both;
  for (int i = 0; i < 5000; ++i) {
    const u64 tight = 250 + rng.NextBelow(100);
    const u64 spread = rng.NextBelow(u64{1} << rng.NextBelow(21));
    first.Record(tight);
    second.Record(spread);
    both.Record(tight);
    both.Record(spread);
  }
  Histogram merged;
  merged.Merge(first);
  merged.Merge(second);
  EXPECT_EQ(merged.count(), both.count());
  EXPECT_EQ(merged.count(), 10000u);
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(merged.Quantile(q), both.Quantile(q)) << "q=" << q;
  }
  // Merging an empty histogram changes nothing.
  merged.Merge(Histogram{});
  EXPECT_EQ(merged.count(), both.count());
  EXPECT_EQ(merged.Quantile(0.5), both.Quantile(0.5));
}

}  // namespace
}  // namespace xbase
