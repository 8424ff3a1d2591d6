#include "src/service/metrics.h"

#include <algorithm>
#include <cmath>

namespace service {

void MetricsCollector::RecordLatency(Stage stage, xbase::u64 ns) {
  std::lock_guard<std::mutex> lock(latency_mu_);
  StageLatency& latency = latency_[static_cast<xbase::usize>(stage)];
  latency.histogram.Record(ns);
  latency.total_ns += ns;
  latency.max_ns = std::max(latency.max_ns, ns);
}

StageStats MetricsCollector::Summarize(const StageLatency& stage) {
  StageStats stats;
  stats.count = stage.histogram.count();
  stats.total_ns = stage.total_ns;
  stats.max_ns = stage.max_ns;
  stats.p50_ns =
      static_cast<xbase::u64>(std::llround(stage.histogram.Quantile(0.5)));
  stats.p99_ns =
      static_cast<xbase::u64>(std::llround(stage.histogram.Quantile(0.99)));
  return stats;
}

AdmissionMetrics MetricsCollector::Snapshot() const {
  AdmissionMetrics m;
  m.submitted = submitted_.load(std::memory_order_relaxed);
  m.completed = completed_.load(std::memory_order_relaxed);
  m.admitted = admitted_.load(std::memory_order_relaxed);
  m.rejected = rejected_.load(std::memory_order_relaxed);
  m.prepass_runs = prepass_runs_.load(std::memory_order_relaxed);
  m.verify_runs = verify_runs_.load(std::memory_order_relaxed);
  m.jit_runs = jit_runs_.load(std::memory_order_relaxed);
  m.signature_checks = signature_checks_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    m.prepass = Summarize(latency_[static_cast<xbase::usize>(Stage::kPrepass)]);
    m.verify = Summarize(latency_[static_cast<xbase::usize>(Stage::kVerify)]);
    m.jit = Summarize(latency_[static_cast<xbase::usize>(Stage::kJit)]);
    m.install = Summarize(latency_[static_cast<xbase::usize>(Stage::kInstall)]);
    m.total = Summarize(latency_[static_cast<xbase::usize>(Stage::kTotal)]);
  }
  return m;
}

}  // namespace service
