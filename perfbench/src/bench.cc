#include "src/bench.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace perfbench {
namespace {

constexpr std::size_t kFailuresKept = 8;

simkern::KernelConfig MakeKernelConfig(std::uint32_t cpus) {
  simkern::KernelConfig config;
  config.version = simkern::kV6_12;  // the LSM hook family needs >= 6.12
  config.unprivileged_bpf_disabled = false;
  config.num_cpus = cpus;
  return config;
}

}  // namespace

void RunResult::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < kFailuresKept) {
    failures.push_back(why);
  }
}

void RunResult::Note(const std::string& name, double value, const char* unit) {
  notes.push_back(Format("%s %.6g %s", name.c_str(), value, unit));
}

std::string Format(const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t below = static_cast<std::size_t>(rank);
  if (below + 1 >= samples.size()) {
    return samples.back();
  }
  const double frac = rank - static_cast<double>(below);
  return samples[below] + frac * (samples[below + 1] - samples[below]);
}

void Windows::Close(double rate, const Histogram& latencies) {
  rates_.push_back(rate);
  p50s_.push_back(latencies.Quantile(0.50));
  p99s_.push_back(latencies.Quantile(0.99));
}

// The high-water mark of this process image. getrusage's ru_maxrss would
// also count the parent that forked it (it survives exec).
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

System::System(std::uint32_t cpus)
    : kernel(MakeKernelConfig(cpus)), bpf(kernel), loader(bpf) {
  kernel.set_oops_recovery(true);
  if (!kernel.BootstrapWorkload().ok()) {
    error = "kernel bootstrap failed";
    return;
  }
  auto created = safex::Runtime::Create(kernel, bpf);
  if (!created.ok()) {
    error = "safex runtime: " + created.status().ToString();
    return;
  }
  runtime = std::move(created).value();
  key = std::make_unique<crypto::SigningKey>(
      crypto::SigningKey::FromPassphrase("perfbench-vendor", "perfbench"));
  if (!runtime->keyring().Enroll(*key).ok()) {
    error = "vendor key enrolment failed";
    return;
  }
  runtime->keyring().Seal();
  ext_loader = std::make_unique<safex::ExtLoader>(*runtime);
  supervisor = std::make_unique<safex::Supervisor>();
  safex::HookRegistryConfig hook_config;
  hook_config.supervisor = supervisor.get();
  hooks = std::make_unique<safex::HookRegistry>(bpf, loader, *ext_loader,
                                                hook_config);
}

xbase::Result<std::uint32_t> LoadProgram(System& sys,
                                         const ebpf::Program& prog,
                                         const ebpf::LoadOptions& options,
                                         Tracer* tracer, std::uint64_t request,
                                         ProgramTally& tally) {
  ebpf::PrepareTimes times;
  Span prepare(tracer, 0, SpanName::kLoaderPrepare, request);
  auto prepared = sys.loader.Prepare(prog, options, &times);
  prepare.End();
  if (times.prepass_ran) {
    prepare.AddMeasuredChild(SpanName::kStaticcheck, times.prepass_ns);
  }
  prepare.AddMeasuredChild(SpanName::kVerify, times.verify_ns);
  if (prepared.ok()) {
    prepare.AddMeasuredChild(SpanName::kJit, times.jit_ns);
  }
  prepare.Finish();
  if (!prepared.ok()) {
    return prepared.status();
  }
  const ebpf::VerifyStats& stats = prepared.value().verify.stats;
  ++tally.verified;
  tally.insns_processed += stats.insns_processed;
  tally.states_explored += stats.states_explored;
  tally.states_pruned += stats.states_pruned;
  tally.checks_elided += prepared.value().jit.checks_elided;
  tally.superblocks += prepared.value().jit.superblocks;
  Span install(tracer, 0, SpanName::kLoaderInstall, request);
  return sys.loader.Install(std::move(prepared).value());
}

bool ReplayFire(System& sys, const std::vector<Attached>& attached,
                safex::HookPoint hook, simkern::Addr ctx, Span& fire,
                Tracer* tracer, std::size_t slot, std::uint64_t request,
                EngineTally& engine, std::string* error) {
  simkern::Kernel& kernel = sys.kernel;
  for (const Attached& attachment : attached) {
    {
      Span span(tracer, slot, SpanName::kSupervisorAdmit, request, &fire);
      if (!sys.supervisor->Admit(attachment.attachment_id,
                                 kernel.clock().now_ns())
               .allow) {
        *error = Format("replayed admit refused attachment %u",
                        attachment.attachment_id);
        return false;
      }
    }
    if (attachment.is_safex) {
      safex::InvokeOptions options;
      options.skb_meta = hook == safex::HookPoint::kXdpIngress ? ctx : 0;
      Span span(tracer, slot, SpanName::kSafexInvoke, request, &fire);
      auto outcome = sys.ext_loader->Invoke(attachment.target_id, options);
      span.Finish();
      if (!outcome.ok() || !outcome.value().status.ok()) {
        *error = Format("replayed invoke of extension %u failed",
                        attachment.target_id);
        return false;
      }
    } else {
      Span find(tracer, slot, SpanName::kLoaderFind, request, &fire);
      auto loaded = sys.loader.Find(attachment.target_id);
      find.Finish();
      if (!loaded.ok()) {
        *error = Format("replayed find of program %u failed",
                        attachment.target_id);
        return false;
      }
      Span exec(tracer, slot, SpanName::kExec, request, &fire);
      auto result = ebpf::Execute(sys.bpf, *loaded.value(), ctx,
                                  sys.hooks->config().exec_options,
                                  &sys.loader);
      exec.Finish();
      if (!result.ok()) {
        *error = Format("replayed execution of program %u failed: %s",
                        attachment.target_id,
                        result.status().ToString().c_str());
        return false;
      }
      ++engine.execs;
      engine.insns += result.value().stats.insns;
      engine.exec_ns += exec.duration_ns();
    }
    Span span(tracer, slot, SpanName::kSupervisorRecord, request, &fire);
    sys.supervisor->RecordSuccess(attachment.attachment_id,
                                  kernel.clock().now_ns());
  }
  return true;
}

void AddLayerMetrics(const Tracer& tracer, std::uint64_t ops,
                     const EngineTally& engine, const ProgramTally& programs,
                     RunResult& result) {
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    const SpanName name = static_cast<SpanName>(i);
    const NameStats stats = tracer.Merged(name);
    if (stats.count > 0) {
      result.metrics[std::string(SpanNameString(name)) + "_ns"] =
          stats.duration.Quantile(0.5);
    }
  }
  const NameStats fires = tracer.Merged(SpanName::kHooksFire);
  if (fires.count > 0) {
    result.metrics["hooks.dispatch_self_ns"] = fires.self.Quantile(0.5);
  }
  if (ops > 0) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      const Layer layer = static_cast<Layer>(i);
      result.metrics["self." + std::string(LayerName(layer)) + "_ns_per_op"] =
          static_cast<double>(tracer.LayerSelfNs(layer)) /
          static_cast<double>(ops);
    }
  }
  if (engine.execs > 0 && engine.insns > 0) {
    result.metrics["ebpf.exec_insns"] =
        static_cast<double>(engine.insns) / static_cast<double>(engine.execs);
    result.metrics["ebpf.ns_per_insn"] =
        static_cast<double>(engine.exec_ns) / static_cast<double>(engine.insns);
  }
  if (programs.verified > 0) {
    const double n = static_cast<double>(programs.verified);
    result.metrics["verifier.insns_processed"] =
        static_cast<double>(programs.insns_processed) / n;
    result.metrics["jit.checks_elided"] =
        static_cast<double>(programs.checks_elided) / n;
    result.metrics["jit.superblocks"] =
        static_cast<double>(programs.superblocks) / n;
    if (programs.states_explored > 0) {
      result.metrics["verifier.prune_share"] =
          static_cast<double>(programs.states_pruned) /
          static_cast<double>(programs.states_explored);
    }
  }
}

}  // namespace perfbench
