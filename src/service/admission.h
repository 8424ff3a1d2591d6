// The concurrent admission pipeline: a fixed worker pool that runs the
// expensive admission stages — staticcheck prepass → eBPF verification →
// JIT, or safex signature validation — off the caller thread, in front of a
// content-addressed verdict cache. This is the first threaded subsystem in
// the repo, and it turns the paper's B-VER observation (verification cost
// is a tax every load pays) into an engineering artifact: the tax is paid
// once per distinct program per verifier configuration, concurrently.
//
//   caller ──Submit──▶ [bounded MPMC queue] ──▶ worker pool
//                                                 │  VerdictCache lookup
//                                                 │   (hit: skip all stages;
//                                                 │    in-flight: coalesce)
//                                                 │  Loader::Prepare
//                                                 │  VerdictCache publish
//                                                 │  Loader::Install
//                                                 ▼
//                                              Ticket resolves
//
// Both stacks share the pipeline: eBPF programs flow through cache +
// prepass/verify/JIT; safex artifacts flow through signature validation
// (already O(bytes), not cached). Backpressure is by blocking — the
// bounded queue never drops a request.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/core/loader.h"
#include "src/ebpf/loader.h"
#include "src/service/cache.h"
#include "src/service/metrics.h"
#include "src/service/queue.h"

namespace service {

struct AdmissionConfig {
  xbase::usize workers = 4;
  xbase::usize queue_capacity = 128;
  bool cache_enabled = true;
};

class AdmissionService {
 public:
  // ext_loader may be null (eBPF-only pipeline).
  AdmissionService(const AdmissionConfig& config, ebpf::Bpf& bpf,
                   ebpf::Loader& loader,
                   safex::ExtLoader* ext_loader = nullptr);
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  // A pending admission. Cheap to copy; resolve with Wait().
  class Ticket {
   public:
    Ticket() = default;
    bool valid() const { return state_ != nullptr; }

   private:
    friend class AdmissionService;
    struct State;
    explicit Ticket(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  // The front door, honoring options.async: async=true enqueues and returns
  // immediately (resolve with Wait); async=false blocks for the verdict —
  // still through the pool and cache, so concurrent sync callers coalesce.
  // Submitting to a shut-down service yields a FailedPrecondition verdict.
  Ticket Load(const ebpf::Program& prog, const ebpf::LoadOptions& options = {});
  Ticket LoadExtension(const safex::SignedArtifact& artifact,
                       bool async = false);

  // Blocks until the ticket's verdict: the loader id, or the admission
  // failure. Idempotent.
  xbase::Result<xbase::u32> Wait(const Ticket& ticket) const;

  // Batch admission: submit everything (workers start immediately), then
  // collect verdicts in submission order.
  std::vector<xbase::Result<xbase::u32>> LoadBatch(
      const std::vector<ebpf::Program>& progs,
      const ebpf::LoadOptions& options = {});

  // Blocks until every submitted request has resolved.
  void Drain();

  // Drain, then stop the workers. Further submissions fail; idempotent.
  void Shutdown();

  AdmissionMetrics Metrics() const;

  const AdmissionConfig& config() const { return config_; }

 private:
  struct Request;

  void WorkerLoop();
  void ProcessProgram(Request& request);
  void ProcessExtension(Request& request);
  xbase::Result<ebpf::PreparedLoad> RunProgramStages(const Request& request);
  xbase::Result<ebpf::PreparedLoad> AdmitProgram(Request& request);
  Ticket Submit(std::unique_ptr<Request> request, bool async);
  void Resolve(Request& request, xbase::Result<xbase::u32> result);

  AdmissionConfig config_;
  ebpf::Bpf& bpf_;
  ebpf::Loader& loader_;
  safex::ExtLoader* ext_loader_;

  VerdictCache cache_;
  MetricsCollector metrics_;
  std::unique_ptr<BoundedQueue<std::unique_ptr<Request>>> queue_;
  std::vector<std::thread> workers_;

  // Outstanding-request accounting for Drain().
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  xbase::u64 inflight_ = 0;
  bool shutdown_ = false;
};

}  // namespace service
