// Per-stage admission metrics: what a production operator would watch.
// Counters are atomics (hot path); each stage's latencies go into one
// mutex-guarded fixed-size histogram, so memory stays bounded however many
// loads a run admits. The exported AdmissionMetrics is a plain-data
// struct — no locks, no methods — so benches serialize it and tests
// assert on it directly.
#pragma once

#include <array>
#include <atomic>
#include <mutex>

#include "src/service/cache.h"
#include "src/xbase/metrics.h"
#include "src/xbase/types.h"

namespace service {

// Latency distribution of one pipeline stage.
struct StageStats {
  // count, total_ns and max_ns are exact; p50_ns and p99_ns are histogram
  // quantiles, within 1/64 of the exact sample quantile.
  xbase::u64 count = 0;
  xbase::u64 total_ns = 0;
  xbase::u64 p50_ns = 0;
  xbase::u64 p99_ns = 0;
  xbase::u64 max_ns = 0;
};

// The plain-data export (snapshot; internally consistent only when the
// pipeline is drained, monotonic otherwise).
struct AdmissionMetrics {
  // Request accounting.
  xbase::u64 submitted = 0;
  xbase::u64 completed = 0;
  xbase::u64 admitted = 0;
  xbase::u64 rejected = 0;
  // Stage run counts. verify_runs is the number the verdict cache exists to
  // minimize: duplicate submissions coalesce to one run.
  xbase::u64 prepass_runs = 0;
  xbase::u64 verify_runs = 0;
  xbase::u64 jit_runs = 0;
  xbase::u64 signature_checks = 0;  // safex admissions
  // Queue pressure.
  xbase::u64 queue_depth = 0;
  xbase::u64 queue_depth_peak = 0;
  // Verdict cache (zeroed when the cache is disabled).
  CacheStats cache;
  // Stage latencies.
  StageStats prepass;
  StageStats verify;
  StageStats jit;
  StageStats install;
  StageStats total;  // submit → verdict, includes queueing
};

enum class Stage : xbase::u8 { kPrepass, kVerify, kJit, kInstall, kTotal };

class MetricsCollector {
 public:
  void CountSubmitted() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void CountCompleted() { completed_.fetch_add(1, std::memory_order_relaxed); }
  void CountAdmitted() { admitted_.fetch_add(1, std::memory_order_relaxed); }
  void CountRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void CountPrepass() { prepass_runs_.fetch_add(1, std::memory_order_relaxed); }
  void CountVerify() { verify_runs_.fetch_add(1, std::memory_order_relaxed); }
  void CountJit() { jit_runs_.fetch_add(1, std::memory_order_relaxed); }
  void CountSignatureCheck() {
    signature_checks_.fetch_add(1, std::memory_order_relaxed);
  }

  void RecordLatency(Stage stage, xbase::u64 ns);

  // Fills everything except queue depth and cache stats (the service owns
  // those and patches them in).
  AdmissionMetrics Snapshot() const;

 private:
  struct StageLatency {
    xbase::Histogram histogram;
    xbase::u64 total_ns = 0;
    xbase::u64 max_ns = 0;
  };
  static StageStats Summarize(const StageLatency& stage);

  std::atomic<xbase::u64> submitted_{0};
  std::atomic<xbase::u64> completed_{0};
  std::atomic<xbase::u64> admitted_{0};
  std::atomic<xbase::u64> rejected_{0};
  std::atomic<xbase::u64> prepass_runs_{0};
  std::atomic<xbase::u64> verify_runs_{0};
  std::atomic<xbase::u64> jit_runs_{0};
  std::atomic<xbase::u64> signature_checks_{0};

  mutable std::mutex latency_mu_;
  std::array<StageLatency, 5> latency_;  // indexed by Stage
};

}  // namespace service
