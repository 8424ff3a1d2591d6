// Bounded admission stage latencies: MetricsCollector keeps one fixed-size
// histogram per stage, so recording never touches the heap however many
// loads a run admits, count / total / max stay exact, and p50 / p99 stay
// within 1/64 of the exact sample quantile. The heap check is a counting
// global operator new.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/service/metrics.h"
#include "src/xbase/rand.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<xbase::u64> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The replaced operator new is malloc-backed; see hooks_alloc_test.cc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#pragma GCC diagnostic pop

namespace service {
namespace {

using xbase::u64;

TEST(MetricsCollectorTest, MillionSamplesStayBoundedAndAccurate) {
  constexpr int kSamples = 1'000'000;
  // Log-uniform over [1 us, 16 ms): the span an admission stage covers.
  xbase::Rng rng(16);
  std::vector<u64> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    samples.push_back(
        static_cast<u64>(std::exp2(10.0 + 14.0 * rng.NextDouble())));
  }

  auto collector = std::make_unique<MetricsCollector>();
  g_allocations.store(0);
  g_counting.store(true);
  for (const u64 ns : samples) {
    collector->RecordLatency(Stage::kVerify, ns);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u) << "recording allocated";

  const StageStats verify = collector->Snapshot().verify;
  std::sort(samples.begin(), samples.end());
  u64 total = 0;
  for (const u64 ns : samples) {
    total += ns;
  }
  EXPECT_EQ(verify.count, static_cast<u64>(kSamples));
  EXPECT_EQ(verify.total_ns, total);
  EXPECT_EQ(verify.max_ns, samples.back());

  const auto expect_close = [](u64 approx, u64 exact, const char* what) {
    const double error = std::abs(static_cast<double>(approx) -
                                  static_cast<double>(exact));
    EXPECT_LE(error, static_cast<double>(exact) / 64.0)
        << what << ": histogram " << approx << ", exact " << exact;
  };
  expect_close(verify.p50_ns, samples[(samples.size() - 1) / 2], "p50");
  expect_close(verify.p99_ns, samples[(samples.size() - 1) * 99 / 100],
               "p99");

  const AdmissionMetrics untouched = collector->Snapshot();
  EXPECT_EQ(untouched.prepass.count, 0u);
  EXPECT_EQ(untouched.prepass.p50_ns, 0u);
}

}  // namespace
}  // namespace service
