// admit-mixed: one submitter thread keeps a fixed window of requests in
// flight against an AdmissionService with 2 workers (a closed loop). The
// seeded request stream mixes distinct verifier-heavy eBPF programs,
// content duplicates of recent ones (verdict-cache hits), known-unsafe
// exploits the clean verifier must reject, signed safex artifacts and
// rogue-signed ones the signature check must reject. Every admitted
// program or extension is then attached to its hook, fired once, detached
// and unloaded, and its verdict and r0 are checked against the known
// answer.
#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/analysis/workloads.h"
#include "src/bench.h"
#include "src/core/toolchain.h"
#include "src/service/admission.h"
#include "src/xbase/rand.h"

namespace perfbench {
namespace {

using safex::HookPoint;
using xbase::u32;
using xbase::u64;
using xbase::u8;

// Two workers and the submitter leave one core of a 4-core host free, so
// other load on the host delays none of them. With a third worker every
// core is busy, other load preempts the workers, and p99 follows it.
constexpr xbase::usize kWorkers = 2;
constexpr std::size_t kInFlight = 4;     // requests in flight
constexpr std::size_t kRecent = 16;      // duplicates copy one of these
constexpr std::size_t kArtifacts = 8;    // signed (and rogue) variants
constexpr u64 kTraceBlock = 64;          // requests per traced/untraced block
constexpr u8 kProtocol = 1;
constexpr double kWarmupShare = 0.1;

// Request mix, cumulative percent. No measured load mix exists to cite, so
// each share is an assumption, chosen so that every path gets a steady
// share of the work:
// - distinct 45%: the verification tax is the workload's subject, so most
//   requests pay it in full;
// - duplicates 25%: enough verdict-cache hits that the cache path weighs
//   on throughput, while most eBPF work stays verification;
// - exploits 10%: the rejecting path, frequent enough to be sampled on
//   every run, rare as it should be in a real load;
// - signed safex 15% and rogue-signed 5%: the signature check next to the
//   verifier, about a third as often as eBPF loads, with rejections a
//   quarter of them as for eBPF.
// Four requests in flight keep the 2 workers busy without a deep queue,
// and half the eBPF loads run the staticcheck prepass, so both stage
// paths are timed. Every run prints the shares it measured.
constexpr u64 kDistinctPct = 45;
constexpr u64 kDuplicatePct = 70;
constexpr u64 kExploitPct = 80;
constexpr u64 kSafexPct = 95;  // the remainder is rogue-signed

enum class Kind : u8 { kDistinct, kDuplicate, kExploit, kSafex, kRogue };
constexpr std::size_t kKindCount = 5;
constexpr const char* kKindNames[kKindCount] = {"distinct", "duplicate",
                                                "exploit", "safex", "rogue"};

// An extension whose answer is known: the packet's protocol byte plus k.
class ProtocolPlusExt : public safex::Extension {
 public:
  explicit ProtocolPlusExt(u64 k) : k_(k) {}
  xbase::Result<u64> Run(safex::Ctx& ctx) override {
    auto packet = ctx.Packet();
    XB_RETURN_IF_ERROR(packet.status());
    auto proto = packet.value().ReadU8(12);
    XB_RETURN_IF_ERROR(proto.status());
    return proto.value() + k_;
  }

 private:
  u64 k_;
};

struct Request {
  Kind kind = Kind::kDistinct;
  u64 seq = 0;
  bool expect_admit = true;
  u64 expect_r0 = 0;
  HookPoint hook = HookPoint::kXdpIngress;
  ebpf::Program prog;
  ebpf::LoadOptions options;
  std::size_t artifact = 0;

  bool is_safex() const { return kind == Kind::kSafex || kind == Kind::kRogue; }
};

struct Pending {
  Request request;
  service::AdmissionService::Ticket ticket;
  u64 submit_ns = 0;
  bool traced = false;
};

int MakeArrayMap(System& sys, u32 value_size, const char* name) {
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kArray;
  spec.key_size = 4;
  spec.value_size = value_size;
  spec.max_entries = 4;
  spec.name = name;
  auto fd = sys.bpf.maps().Create(spec);
  return fd.ok() ? fd.value() : -1;
}

// Makes a program's bytes unique without changing its meaning: a dead
// write of `salt` to r0 ahead of the first instruction. Every path of a
// verified program writes r0 before reading it, and jumps are relative.
void Salt(ebpf::Program& prog, u64 salt) {
  prog.insns.insert(prog.insns.begin(),
                    ebpf::Mov64Imm(ebpf::R0, static_cast<xbase::s32>(salt)));
}

class AdmitMixed {
 public:
  AdmitMixed(Tracer* tracer, ProgramTally& programs)
      : sys_(1), tracer_(tracer), programs_(programs) {
    if (sys_.error.empty()) {
      SetUp();
    } else {
      error_ = sys_.error;
    }
  }

  const std::string& error() const { return error_; }
  System& sys() { return sys_; }

  // Starts the service's workers. Not part of set-up: thread start-up is
  // the host's cost, and its time varies too much to gate on.
  void StartService();
  void StartStream(u64 seed) { rng_ = std::make_unique<xbase::Rng>(seed); }

  // Closed loop for `seconds`, then the requests in flight drain. With
  // `windows`, closes each window as it falls due — after the requests in
  // flight complete — and calls `between` outside the measurement. With
  // tracing, the stream alternates blocks of untraced and traced requests;
  // each block completes before the next starts, and a traced block's
  // replays run in between, outside the timed intervals.
  void RunFor(double seconds, bool alternate_tracing, RunResult& result,
              Windows* windows = nullptr,
              const std::function<void()>& between = {});

  // Restarts the latency histograms and the traced/untraced tallies at the
  // start of the measured time.
  void StartMeasuring() {
    admit_ns_ = Histogram{};
    lifecycle_ns_ = Histogram{};
    traced_ = untraced_ = Rate{};
    kinds_ = {};
  }

  struct Rate {
    u64 verdicts = 0;
    u64 ns = 0;
    double rate() const { return ns > 0 ? verdicts * 1e9 / ns : 0; }
  };
  const Rate& traced() const { return traced_; }
  const Rate& untraced() const { return untraced_; }
  const Histogram& lifecycle_ns() const { return lifecycle_ns_; }
  const EngineTally& engine() const { return engine_; }
  u64 distinct_keys() const { return distinct_keys_; }
  // Verdicts per request kind in the measured time.
  const std::array<u64, kKindCount>& kinds() const { return kinds_; }

  // Drains and stops the service; both loaders must then be empty.
  service::AdmissionMetrics Finish(RunResult& result);

 private:
  void SetUp();
  Request NextRequest();
  Pending Submit(Request request, bool traced);
  void Complete(Pending& pending, RunResult& result);
  void Lifecycle(const Request& request, u32 id, bool traced,
                 RunResult& result);
  void Replay(const Request& request);
  // Replays the first `count` deferred requests.
  void ReplayDeferred(std::size_t count);

  System sys_;
  Tracer* tracer_;
  ProgramTally& programs_;
  std::string error_;
  std::unique_ptr<service::AdmissionService> service_;

  int arr8_fd_ = -1;
  int v16_fd_ = -1;
  int v64_fd_ = -1;
  simkern::Addr pkt_ctx_ = 0;
  simkern::Addr trace_ctx_ = 0;
  u32 pkt_len_ = 0;
  std::vector<safex::SignedArtifact> signed_;
  std::vector<safex::SignedArtifact> rogue_;
  std::vector<std::function<xbase::Result<ebpf::Program>()>> exploits_;

  std::unique_ptr<xbase::Rng> rng_;
  u64 seq_ = 0;
  u64 salt_ = 0;
  u64 distinct_keys_ = 0;
  std::deque<Request> recent_;
  std::deque<Pending> in_flight_;
  std::vector<Request> deferred_;  // traced requests awaiting their replay
  bool alternating_ = false;
  u64 last_completion_ns_ = 0;
  Histogram admit_ns_;
  Histogram lifecycle_ns_;
  EngineTally engine_;
  Rate traced_;
  Rate untraced_;
  std::array<u64, kKindCount> kinds_{};
};

void AdmitMixed::SetUp() {
  arr8_fd_ = MakeArrayMap(sys_, 8, "pb_arr8");
  v16_fd_ = MakeArrayMap(sys_, 16, "pb_v16");
  v64_fd_ = MakeArrayMap(sys_, 64, "pb_v64");
  if (arr8_fd_ < 0 || v16_fd_ < 0 || v64_fd_ < 0) {
    error_ = "map creation failed";
    return;
  }
  u8 payload[48] = {};
  payload[12] = kProtocol;
  auto skb = sys_.kernel.net().CreateSkBuff(sys_.kernel.mem(), payload);
  auto block = sys_.kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                     simkern::RegionKind::kKernelData,
                                     "pb_tracectx");
  if (!skb.ok() || !block.ok()) {
    error_ = "context set-up failed";
    return;
  }
  pkt_ctx_ = skb.value().meta_addr;
  trace_ctx_ = block.value();
  auto len = sys_.kernel.mem().ReadU32(pkt_ctx_ + simkern::SkBuffLayout::kLen);
  if (!len.ok()) {
    error_ = "skb length unreadable";
    return;
  }
  pkt_len_ = len.value();

  // Exploits the clean verifier rejects (each needs the value size noted
  // in analysis/workloads.h).
  const int v16 = v16_fd_;
  const int v64 = v64_fd_;
  const int arr8 = arr8_fd_;
  exploits_ = {
      [v16] { return analysis::BuildJgtOffByOneExploit(v16); },
      [arr8] { return analysis::BuildArbitraryReadExploit(arr8, 4096); },
      [v64] { return analysis::BuildJmp32BoundsExploit(v64); },
      [v16] { return analysis::BuildAlu32TruncExploit(v16); },
      [v16] { return analysis::BuildSignExtExploit(v16); },
      [v16] { return analysis::BuildTnumMulExploit(v16); },
      [v64] { return analysis::BuildRegRegOffByOneExploit(v64); },
      [v64] { return analysis::BuildSpillWidthExploit(v64); },
      [] { return analysis::BuildSkLookupNoRelease(); },
      [] { return analysis::BuildPktRangeStaleExploit(); },
  };

  // Signed safex artifacts, and the same built by a key the kernel never
  // enrolled.
  safex::Toolchain toolchain(*sys_.key);
  safex::Toolchain rogue(
      crypto::SigningKey::FromPassphrase("perfbench-rogue", "rogue"));
  for (std::size_t k = 0; k < kArtifacts; ++k) {
    safex::ExtensionManifest manifest;
    manifest.name = Format("pb-proto-plus-%zu", k);
    manifest.version = "1";
    manifest.caps = {safex::Capability::kPacketAccess};
    manifest.imports = {"kcrate.packet_view"};
    const u8 identity[1] = {static_cast<u8>(k)};
    auto factory = [k] { return std::make_unique<ProtocolPlusExt>(k); };
    auto good = toolchain.Build(manifest, factory, identity);
    auto bad = rogue.Build(manifest, factory, identity);
    if (!good.ok() || !bad.ok()) {
      error_ = "artifact build failed";
      return;
    }
    signed_.push_back(std::move(good).value());
    rogue_.push_back(std::move(bad).value());
  }
}

void AdmitMixed::StartService() {
  service::AdmissionConfig config;
  config.workers = kWorkers;
  service_ = std::make_unique<service::AdmissionService>(
      config, sys_.bpf, sys_.loader, sys_.ext_loader.get());
}

Request AdmitMixed::NextRequest() {
  Request request;
  request.seq = seq_++;
  const u64 dice = rng_->NextBelow(100);
  request.options.async = true;
  // Half the eBPF loads also run the staticcheck prepass.
  request.options.staticcheck_prepass = rng_->NextBool();
  if (dice < kDuplicatePct && (dice < kDistinctPct || recent_.empty())) {
    request.kind = Kind::kDistinct;
    xbase::Result<ebpf::Program> prog = xbase::Internal("unset");
    switch (rng_->NextBelow(4)) {
      case 0: {
        const u32 trips = 32 + static_cast<u32>(rng_->NextBelow(481));
        prog = analysis::BuildCountedLoop(trips);
        request.expect_r0 = u64{trips} * (trips - 1) / 2;
        request.hook = HookPoint::kSchedSwitch;
        break;
      }
      case 1: {
        const u32 branches = 3 + static_cast<u32>(rng_->NextBelow(7));
        prog = analysis::BuildBranchDiamonds(branches);
        for (u32 i = 0; i < branches; ++i) {
          request.expect_r0 += (pkt_len_ & (1u << (i % 16))) != 0 ? 2 : 1;
        }
        request.hook = HookPoint::kXdpIngress;
        break;
      }
      case 2:
        prog = analysis::BuildRegRegDiamonds(
            2 + static_cast<u32>(rng_->NextBelow(6)), v64_fd_);
        request.hook = HookPoint::kSchedSwitch;
        break;
      default:
        prog = analysis::BuildSpillHeavy(
            8 + static_cast<u32>(rng_->NextBelow(89)), v64_fd_);
        request.hook = HookPoint::kSchedSwitch;
        break;
    }
    request.prog = std::move(prog).value();
    Salt(request.prog, ++salt_);
    ++distinct_keys_;
    recent_.push_back(request);
    if (recent_.size() > kRecent) {
      recent_.pop_front();
    }
  } else if (dice < kDuplicatePct) {
    const u64 seq = request.seq;
    request = recent_[rng_->NextBelow(recent_.size())];
    request.kind = Kind::kDuplicate;
    request.seq = seq;
  } else if (dice < kExploitPct) {
    request.kind = Kind::kExploit;
    request.expect_admit = false;
    request.prog = exploits_[rng_->NextBelow(exploits_.size())]().value();
    Salt(request.prog, ++salt_);
    ++distinct_keys_;
  } else {
    request.kind = dice < kSafexPct ? Kind::kSafex : Kind::kRogue;
    request.expect_admit = request.kind == Kind::kSafex;
    request.artifact = rng_->NextBelow(kArtifacts);
    request.expect_r0 = kProtocol + request.artifact;
  }
  return request;
}

Pending AdmitMixed::Submit(Request request, bool traced) {
  Pending pending;
  pending.traced = traced;
  Tracer* tracer = traced ? tracer_ : nullptr;
  Span span(tracer, 0, SpanName::kServiceSubmit, request.seq);
  pending.submit_ns = NowNs();
  if (request.is_safex()) {
    const auto& artifacts = request.kind == Kind::kSafex ? signed_ : rogue_;
    pending.ticket =
        service_->LoadExtension(artifacts[request.artifact], /*async=*/true);
  } else {
    pending.ticket = service_->Load(request.prog, request.options);
  }
  pending.request = std::move(request);
  return pending;
}

void AdmitMixed::RunFor(double seconds, bool alternate_tracing,
                        RunResult& result, Windows* windows,
                        const std::function<void()>& between) {
  const u64 start = NowNs();
  const u64 budget = static_cast<u64>(seconds * 1e9);
  alternating_ = alternate_tracing;
  last_completion_ns_ = start;
  u64 window_verdicts = 0;
  if (windows != nullptr) {
    windows->Start();
  }
  for (;;) {
    if (in_flight_.empty() && !deferred_.empty()) {
      // Half a traced block's replays run before the next block and half
      // before the one after, so both kinds of block start on a service
      // that sat idle as long.
      const bool next_traced = (seq_ / kTraceBlock) % 2 == 1;
      ReplayDeferred(next_traced ? deferred_.size() : deferred_.size() / 2);
      last_completion_ns_ = NowNs();
    }
    if (windows != nullptr && windows->Due()) {
      for (; !in_flight_.empty(); ++window_verdicts) {
        Pending pending = std::move(in_flight_.front());
        in_flight_.pop_front();
        Complete(pending, result);
      }
      windows->Close(static_cast<double>(window_verdicts) * 1e9 /
                         static_cast<double>(windows->elapsed_ns()),
                     admit_ns_);
      admit_ns_ = Histogram{};
      window_verdicts = 0;
      between();
      windows->Start();
      last_completion_ns_ = NowNs();
    }
    while (in_flight_.size() < kInFlight && NowNs() - start < budget &&
           !(alternate_tracing && seq_ % kTraceBlock == 0 &&
             !in_flight_.empty())) {
      Request request = NextRequest();
      const bool traced =
          alternate_tracing && (request.seq / kTraceBlock) % 2 == 1;
      in_flight_.push_back(Submit(std::move(request), traced));
    }
    if (in_flight_.empty()) {
      ReplayDeferred(deferred_.size());
      return;
    }
    Pending pending = std::move(in_flight_.front());
    in_flight_.pop_front();
    Complete(pending, result);
    ++window_verdicts;
  }
}

void AdmitMixed::Complete(Pending& pending, RunResult& result) {
  const Request& request = pending.request;
  Tracer* tracer = pending.traced ? tracer_ : nullptr;
  Span wait(tracer, 0, SpanName::kServiceWait, request.seq);
  auto verdict = service_->Wait(pending.ticket);
  wait.Finish();
  const u64 verdict_ns = NowNs();
  if (!pending.traced) {
    admit_ns_.Record(verdict_ns - pending.submit_ns);
  }
  ++result.attempted;
  const bool is_safex = request.is_safex();
  if (verdict.ok() != request.expect_admit) {
    result.Fail(Format("request %llu (%s): expected %s, got %s",
                       static_cast<unsigned long long>(request.seq),
                       is_safex ? "safex artifact" : request.prog.name.c_str(),
                       request.expect_admit ? "admit" : "reject",
                       verdict.ok() ? "admitted"
                                    : verdict.status().ToString().c_str()));
    if (verdict.ok()) {
      (void)(is_safex ? sys_.ext_loader->Unload(verdict.value())
                      : sys_.loader.Unload(verdict.value()));
    }
  } else if (verdict.ok()) {
    Lifecycle(request, verdict.value(), pending.traced, result);
  }
  ++kinds_[static_cast<std::size_t>(request.kind)];
  const u64 now = NowNs();
  // A block's first verdicts wait for the workers to fill up again after
  // the boundary; neither rate counts them.
  if (!alternating_ || request.seq % kTraceBlock >= kInFlight) {
    Rate& rate = pending.traced ? traced_ : untraced_;
    ++rate.verdicts;
    rate.ns += now - last_completion_ns_;
  }
  last_completion_ns_ = now;
  if (pending.traced && request.kind != Kind::kDuplicate) {
    deferred_.push_back(std::move(pending.request));
  }
}

void AdmitMixed::Lifecycle(const Request& request, u32 id, bool traced,
                           RunResult& result) {
  const bool is_safex = request.is_safex();
  Tracer* tracer = traced ? tracer_ : nullptr;
  const u64 t0 = NowNs();
  Span attach(tracer, 0, SpanName::kHooksAttach, request.seq);
  auto attachment = is_safex
                        ? sys_.hooks->AttachExtension(request.hook, id)
                        : sys_.hooks->AttachProgram(request.hook, id);
  attach.Finish();
  if (!attachment.ok()) {
    result.Fail("attach failed: " + attachment.status().ToString());
    return;
  }
  const simkern::Addr ctx =
      request.hook == HookPoint::kXdpIngress ? pkt_ctx_ : trace_ctx_;
  safex::HookFireReport report;
  Span fire(tracer, 0, SpanName::kHooksFire, request.seq);
  sys_.hooks->FireInto(request.hook, ctx, report);
  fire.End();
  if (report.served != 1 || report.verdicts.size() != 1 ||
      report.verdicts[0].value != request.expect_r0) {
    result.Fail(Format(
        "request %llu: fired r0 %llu (served %u), expected %llu",
        static_cast<unsigned long long>(request.seq),
        static_cast<unsigned long long>(
            report.verdicts.empty() ? 0 : report.verdicts[0].value),
        report.served, static_cast<unsigned long long>(request.expect_r0)));
  }
  if (tracer != nullptr) {
    std::string error;
    const std::vector<Attached> attached = {
        Attached{attachment.value(), is_safex, id}};
    if (!ReplayFire(sys_, attached, request.hook, ctx, fire, tracer, 0,
                    request.seq, engine_, &error)) {
      result.Fail(error);
    }
  }
  fire.Finish();
  Span detach(tracer, 0, SpanName::kHooksDetach, request.seq);
  const xbase::Status detached = sys_.hooks->Detach(attachment.value());
  detach.Finish();
  Span unload(tracer, 0,
              is_safex ? SpanName::kSafexUnload : SpanName::kLoaderUnload,
              request.seq);
  const xbase::Status unloaded =
      is_safex ? sys_.ext_loader->Unload(id) : sys_.loader.Unload(id);
  unload.Finish();
  if (!detached.ok() || !unloaded.ok()) {
    result.Fail(Format("request %llu: detach or unload refused",
                       static_cast<unsigned long long>(request.seq)));
  }
  if (tracer == nullptr) {
    lifecycle_ns_.Record(NowNs() - t0);
  }
}

// Times the admission stages from outside by calling them directly on the
// same input: Loader::Prepare (whose stage times become staticcheck,
// verifier and JIT spans) and Install, or ExtLoader::Prepare and Install;
// then unloads the copy.
void AdmitMixed::Replay(const Request& request) {
  if (request.is_safex()) {
    const auto& artifacts = request.kind == Kind::kSafex ? signed_ : rogue_;
    Span prepare(tracer_, 0, SpanName::kSafexPrepare, request.seq);
    auto prepared = sys_.ext_loader->Prepare(artifacts[request.artifact]);
    prepare.Finish();
    if (!prepared.ok()) {
      return;
    }
    Span install(tracer_, 0, SpanName::kSafexInstall, request.seq);
    auto id = sys_.ext_loader->Install(std::move(prepared).value());
    install.Finish();
    if (id.ok()) {
      Span unload(tracer_, 0, SpanName::kSafexUnload, request.seq);
      (void)sys_.ext_loader->Unload(id.value());
    }
    return;
  }
  auto id = LoadProgram(sys_, request.prog, request.options, tracer_,
                        request.seq, programs_);
  if (id.ok()) {
    Span unload(tracer_, 0, SpanName::kLoaderUnload, request.seq);
    (void)sys_.loader.Unload(id.value());
  }
}

void AdmitMixed::ReplayDeferred(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    Replay(deferred_[i]);
  }
  deferred_.erase(deferred_.begin(), deferred_.begin() + count);
}

service::AdmissionMetrics AdmitMixed::Finish(RunResult& result) {
  service_->Drain();
  const service::AdmissionMetrics metrics = service_->Metrics();
  service_->Shutdown();
  if (sys_.loader.size() != 0 || sys_.ext_loader->size() != 0) {
    result.Fail(Format("loaders not empty at the end: %zu programs, %zu "
                       "extensions",
                       sys_.loader.size(), sys_.ext_loader->size()));
  }
  if (sys_.kernel.state() != simkern::KernelState::kRunning) {
    result.Fail("kernel not running at the end");
  }
  if (metrics.submitted != metrics.completed) {
    result.Fail("service lost a request");
  }
  return metrics;
}

}  // namespace

void RunAdmitMixed(const RunConfig& config, RunResult& result) {
  std::unique_ptr<Tracer> tracer =
      config.trace ? std::make_unique<Tracer>(1) : nullptr;
  ProgramTally programs;

  std::vector<double> setup_s;
  auto set_up = [&] {
    const u64 t0 = NowNs();
    auto run = std::make_unique<AdmitMixed>(tracer.get(), programs);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!run->error().empty()) {
      result.Fail("set-up: " + run->error());
    }
    return run;
  };
  std::unique_ptr<AdmitMixed> run = set_up();
  if (!result.correct()) {
    return;
  }
  run->StartService();
  if (!config.inject_fault.empty()) {
    run->sys().bpf.faults().Inject(config.inject_fault);
  }

  run->StartStream(config.seed);
  run->RunFor(config.seconds * kWarmupShare, false, result);
  run->StartMeasuring();
  Windows windows(config.seconds, kWindows);
  run->RunFor(config.seconds, config.trace, result,
              config.trace ? nullptr : &windows, [&] { set_up(); });
  const service::AdmissionMetrics metrics = run->Finish(result);
  u64 verdicts = 0;
  for (const u64 count : run->kinds()) {
    verdicts += count;
  }
  for (std::size_t kind = 0; kind < kKindCount; ++kind) {
    result.Note(Format("mix.%s_share", kKindNames[kind]),
                verdicts > 0 ? static_cast<double>(run->kinds()[kind]) /
                                   static_cast<double>(verdicts)
                             : 0.0,
                "share");
  }

  if (!config.trace) {
    result.metrics["throughput_per_s"] = windows.rate();
    result.metrics["latency_p50_us"] = windows.p50() / 1e3;
    result.metrics["latency_p99_us"] = windows.p99() / 1e3;
    result.metrics["setup_s"] = Quantile(setup_s, 0);
    result.Note("setup_median_s", Median(setup_s), "s");
    result.Note("admit_per_s", windows.rate(), "verdicts/s");
    result.Note("admit_p50_us", windows.p50() / 1e3, "us");
    result.Note("admit_p99_us", windows.p99() / 1e3, "us");
    result.Note("lifecycle_p50_us", run->lifecycle_ns().Quantile(0.5) / 1e3,
                "us");
    result.Note("verdicts", static_cast<double>(run->untraced().verdicts),
                "verdicts");
    result.Note("windows", static_cast<double>(windows.count()), "windows");
    return;
  }

  AddLayerMetrics(*tracer, run->traced().verdicts, run->engine(), programs,
                  result);
  result.metrics["trace_overhead_share"] =
      1.0 - run->traced().rate() / run->untraced().rate();
  result.metrics["lifecycle_p50_us"] =
      run->lifecycle_ns().Quantile(0.5) / 1e3;
  const u64 stage_ns = metrics.prepass.total_ns + metrics.verify.total_ns +
                       metrics.jit.total_ns + metrics.install.total_ns;
  if (metrics.total.count > 0 && metrics.total.total_ns >= stage_ns) {
    result.metrics["service.queue_wait_ns"] =
        static_cast<double>(metrics.total.total_ns - stage_ns) /
        static_cast<double>(metrics.total.count);
  }
  result.metrics["service.stage_prepass_p50_ns"] =
      static_cast<double>(metrics.prepass.p50_ns);
  result.metrics["service.stage_verify_p50_ns"] =
      static_cast<double>(metrics.verify.p50_ns);
  result.metrics["service.stage_jit_p50_ns"] =
      static_cast<double>(metrics.jit.p50_ns);
  result.metrics["service.stage_install_p50_ns"] =
      static_cast<double>(metrics.install.p50_ns);
  result.metrics["service.queue_depth_peak"] =
      static_cast<double>(metrics.queue_depth_peak);
  const u64 lookups = metrics.cache.hits + metrics.cache.misses;
  if (lookups > 0) {
    result.metrics["service.cache_hit_share"] =
        static_cast<double>(metrics.cache.hits) / static_cast<double>(lookups);
  }
  if (run->distinct_keys() > 0) {
    result.metrics["service.verify_runs_per_distinct"] =
        static_cast<double>(metrics.verify_runs) /
        static_cast<double>(run->distinct_keys());
  }
  tracer->WriteJsonLines(Format("%s/%s-seed%llu.spans.jsonl",
                                config.trace_dir.c_str(),
                                config.workload.c_str(),
                                static_cast<unsigned long long>(config.seed)));
}

}  // namespace perfbench
