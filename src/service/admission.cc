#include "src/service/admission.h"

#include <chrono>

namespace service {

namespace {

xbase::u64 NowNs() {
  return static_cast<xbase::u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct AdmissionService::Ticket::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::optional<xbase::Result<xbase::u32>> result;
};

struct AdmissionService::Request {
  std::shared_ptr<Ticket::State> state;
  bool is_extension = false;
  ebpf::Program prog;
  ebpf::LoadOptions options;
  std::optional<safex::SignedArtifact> artifact;
  xbase::u64 submit_ns = 0;
};

AdmissionService::AdmissionService(const AdmissionConfig& config,
                                   ebpf::Bpf& bpf, ebpf::Loader& loader,
                                   safex::ExtLoader* ext_loader)
    : config_(config),
      bpf_(bpf),
      loader_(loader),
      ext_loader_(ext_loader),
      queue_(std::make_unique<BoundedQueue<std::unique_ptr<Request>>>(
          config.queue_capacity)) {
  if (config_.workers == 0) {
    config_.workers = 1;
  }
  workers_.reserve(config_.workers);
  for (xbase::usize i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AdmissionService::~AdmissionService() { Shutdown(); }

void AdmissionService::Resolve(Request& request,
                               xbase::Result<xbase::u32> result) {
  metrics_.RecordLatency(Stage::kTotal, NowNs() - request.submit_ns);
  metrics_.CountCompleted();
  if (result.ok()) {
    metrics_.CountAdmitted();
  } else {
    metrics_.CountRejected();
  }
  {
    std::lock_guard<std::mutex> lock(request.state->mu);
    request.state->result = std::move(result);
    request.state->done = true;
  }
  request.state->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    --inflight_;
  }
  drain_cv_.notify_all();
}

void AdmissionService::WorkerLoop() {
  for (;;) {
    std::optional<std::unique_ptr<Request>> item = queue_->Pop();
    if (!item.has_value()) {
      return;  // closed and drained
    }
    Request& request = **item;
    if (request.is_extension) {
      ProcessExtension(request);
    } else {
      ProcessProgram(request);
    }
  }
}

// Runs prepass → verify → JIT through Loader::Prepare, recording per-stage
// metrics. Owners of a cache miss and the cache-disabled path both land here.
// Elision is off whatever the caller asked: a cache hit cannot elide (the
// verdict keeps no analysis claims), so no service admission does, and
// Prepare records no claim traces.
xbase::Result<ebpf::PreparedLoad> AdmissionService::RunProgramStages(
    const Request& request) {
  ebpf::LoadOptions options = request.options;
  options.elide_checks = false;
  ebpf::PrepareTimes times;
  auto prepared = loader_.Prepare(request.prog, options, &times);
  if (times.prepass_ran) {
    metrics_.CountPrepass();
    metrics_.RecordLatency(Stage::kPrepass, times.prepass_ns);
  }
  if (times.verify_ns > 0) {
    metrics_.CountVerify();
    metrics_.RecordLatency(Stage::kVerify, times.verify_ns);
  }
  if (times.jit_ns > 0) {
    metrics_.CountJit();
    metrics_.RecordLatency(Stage::kJit, times.jit_ns);
  }
  return prepared;
}

// The load to install: Prepare's own, lowered once, on a cache miss or with
// the cache off; on a hit, the cached verdict lowered here.
xbase::Result<ebpf::PreparedLoad> AdmissionService::AdmitProgram(
    Request& request) {
  if (!config_.cache_enabled) {
    return RunProgramStages(request);
  }
  ebpf::FaultRegistry& faults = bpf_.faults();
  const simkern::KernelVersion version =
      request.options.version_override.value_or(bpf_.kernel().version());
  // The epoch is read *before* the stages run; if it moved while we were
  // verifying (a fault toggled mid-flight), the verdict is published to
  // any coalesced waiters but not cached — it provably matches neither
  // the old nor the new fault set's key.
  const xbase::u64 epoch_before = faults.epoch();
  const VerdictKey key = MakeProgramKey(
      request.prog, version, request.options.privileged,
      request.options.staticcheck_prepass, epoch_before);
  VerdictCache::Acquisition acq = cache_.Acquire(key);
  if (!acq.hit) {
    xbase::Result<ebpf::PreparedLoad> prepared = RunProgramStages(request);
    if (prepared.ok()) {
      // Install the submitted copy, as a hit does: with Prepare's copy still
      // live while the verdict copies are made, admit-mixed's peak RSS read
      // 0.4 MB higher.
      prepared.value().source = std::move(request.prog);
    }
    Verdict verdict;
    verdict.status = prepared.status();
    if (prepared.ok()) {
      verdict.verify = prepared.value().verify;
      verdict.image = prepared.value().image;
      verdict.jit = prepared.value().jit;
    }
    cache_.Publish(key, std::move(verdict), faults.epoch() == epoch_before);
    return prepared;
  }

  const Verdict& verdict = *acq.verdict;
  XB_RETURN_IF_ERROR(verdict.status);
  // Registration is per-load even on a hit: every admitted submission gets
  // its own id, like N successful bpf(2) calls for the same bytes.
  ebpf::PreparedLoad prepared;
  prepared.source = std::move(request.prog);
  prepared.image = verdict.image;
  prepared.verify = verdict.verify;
  prepared.jit = verdict.jit;
  // The cached verdict carries no decoded image (it would multiply the
  // cache's memory), so lower it here: at the version the verdict was keyed
  // on and against the live fault registry, so the dispatch gate re-checks
  // every helper call site exactly as on the Loader::Load path. No claims,
  // as in the owner's lowering that `jit` counts.
  prepared.decoded =
      ebpf::DecodeProgram(prepared.image, &bpf_.helpers(), &bpf_.kfuncs(),
                          /*stats=*/nullptr, &version, &faults);
  return prepared;
}

void AdmissionService::ProcessProgram(Request& request) {
  xbase::Result<ebpf::PreparedLoad> prepared = AdmitProgram(request);
  if (!prepared.ok()) {
    Resolve(request, prepared.status());
    return;
  }
  const xbase::u64 install_start = NowNs();
  auto id = loader_.Install(std::move(prepared).value());
  metrics_.RecordLatency(Stage::kInstall, NowNs() - install_start);
  Resolve(request, std::move(id));
}

void AdmissionService::ProcessExtension(Request& request) {
  if (ext_loader_ == nullptr) {
    Resolve(request, xbase::Status(xbase::Code::kFailedPrecondition,
                                   "no extension loader configured"));
    return;
  }
  metrics_.CountSignatureCheck();
  const xbase::u64 verify_start = NowNs();
  auto prepared = ext_loader_->Prepare(*request.artifact);
  metrics_.RecordLatency(Stage::kVerify, NowNs() - verify_start);
  if (!prepared.ok()) {
    Resolve(request, prepared.status());
    return;
  }
  const xbase::u64 install_start = NowNs();
  auto id = ext_loader_->Install(std::move(prepared).value());
  metrics_.RecordLatency(Stage::kInstall, NowNs() - install_start);
  Resolve(request, std::move(id));
}

AdmissionService::Ticket AdmissionService::Submit(
    std::unique_ptr<Request> request, bool async) {
  std::shared_ptr<Ticket::State> state = request->state;
  request->submit_ns = NowNs();

  metrics_.CountSubmitted();
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++inflight_;
  }
  if (!queue_->Push(std::move(request))) {
    // Shut down: resolve the ticket directly.
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->result = xbase::Status(xbase::Code::kFailedPrecondition,
                                    "admission service is shut down");
      state->done = true;
    }
    state->cv.notify_all();
    metrics_.CountCompleted();
    metrics_.CountRejected();
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      --inflight_;
    }
    drain_cv_.notify_all();
  }

  Ticket ticket(std::move(state));
  if (!async) {
    (void)Wait(ticket);
  }
  return ticket;
}

AdmissionService::Ticket AdmissionService::Load(
    const ebpf::Program& prog, const ebpf::LoadOptions& options) {
  auto request = std::make_unique<Request>();
  request->state = std::make_shared<Ticket::State>();
  request->prog = prog;
  request->options = options;
  return Submit(std::move(request), options.async);
}

AdmissionService::Ticket AdmissionService::LoadExtension(
    const safex::SignedArtifact& artifact, bool async) {
  auto request = std::make_unique<Request>();
  request->state = std::make_shared<Ticket::State>();
  request->is_extension = true;
  request->artifact = artifact;
  return Submit(std::move(request), async);
}

xbase::Result<xbase::u32> AdmissionService::Wait(const Ticket& ticket) const {
  if (!ticket.valid()) {
    return xbase::Status(xbase::Code::kInvalidArgument, "invalid ticket");
  }
  Ticket::State& state = *ticket.state_;
  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&state] { return state.done; });
  return *state.result;
}

std::vector<xbase::Result<xbase::u32>> AdmissionService::LoadBatch(
    const std::vector<ebpf::Program>& progs,
    const ebpf::LoadOptions& options) {
  ebpf::LoadOptions async_options = options;
  async_options.async = true;
  std::vector<Ticket> tickets;
  tickets.reserve(progs.size());
  for (const ebpf::Program& prog : progs) {
    tickets.push_back(Load(prog, async_options));
  }
  std::vector<xbase::Result<xbase::u32>> results;
  results.reserve(tickets.size());
  for (const Ticket& ticket : tickets) {
    results.push_back(Wait(ticket));
  }
  return results;
}

void AdmissionService::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void AdmissionService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
  }
  Drain();
  queue_->Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

AdmissionMetrics AdmissionService::Metrics() const {
  AdmissionMetrics m = metrics_.Snapshot();
  m.queue_depth = queue_->depth();
  m.queue_depth_peak = queue_->peak_depth();
  if (config_.cache_enabled) {
    m.cache = cache_.stats();
  }
  return m;
}

}  // namespace service
