// DISPATCH — what the pre-decoded threaded engine buys over the legacy
// decode-per-step interpreter, measured two ways:
//   1. per-instruction execution cost over an ALU/branch-heavy corpus
//      (straight-line, branch diamonds, a counted loop) plus the
//      helper/map-backed packet counter, per engine;
//   2. per-fire hook dispatch cost through HookRegistry::FireInto with a
//      supervisor attached — the zero-allocation steady state.
//
// Default: google-benchmark timing. With `--json PATH` it runs a
// fixed-iteration measurement pass, writes the BENCH_dispatch.json CI
// artifact, and FAILS (exit 1) if the threaded engine does not clear the
// 2x per-insn speedup bar on the ALU/branch corpus.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/benchutil.h"
#include "src/analysis/workloads.h"
#include "src/core/hooks.h"
#include "src/ebpf/interp.h"

namespace {

using safex::System;
using ebpf::ExecEngine;
using xbase::u64;

struct Corpus {
  std::string name;
  xbase::u32 prog_id = 0;
  bool alu_branch = false;  // counts toward the speedup gate
};

struct ExecRig {
  ExecRig() {
    const int counter_fd = benchutil::MustCreateArrayMap(rig, "cnt", 8, 4);
    const auto add = [&](const char* name, bool alu_branch,
                         xbase::Result<ebpf::Program> prog) {
      if (!prog.ok()) {
        std::fprintf(stderr, "dispatch_hotpath: build %s: %s\n", name,
                     prog.status().ToString().c_str());
        return;
      }
      auto id = rig.loader.Load(prog.value());
      if (!id.ok()) {
        std::fprintf(stderr, "dispatch_hotpath: load %s: %s\n", name,
                     id.status().ToString().c_str());
        return;
      }
      corpus.push_back({name, id.value(), alu_branch});
    };
    add("straight-4096", true, analysis::BuildStraightLine(4096));
    // 16 diamonds is the largest size that fits the verifier's 1M
    // processed-insn path-enumeration budget (2^N paths).
    add("diamonds-16", true, analysis::BuildBranchDiamonds(16));
    add("counted-loop-1024", true, analysis::BuildCountedLoop(1024));
    add("packet-counter", false, analysis::BuildPacketCounter(counter_fd));
    ctx = rig.kernel.mem()
              .Map(64, simkern::MemPerm::kReadWrite,
                   simkern::RegionKind::kKernelData, "ctx")
              .value();
    // A parseable 64-byte frame behind the ctx so packet-counter takes its
    // full lookup-and-count path.
    const simkern::Addr pkt =
        rig.kernel.mem()
            .Map(64, simkern::MemPerm::kReadWrite,
                 simkern::RegionKind::kKernelData, "pkt")
            .value();
    (void)rig.kernel.mem().WriteU64(ctx + 8, pkt);
    (void)rig.kernel.mem().WriteU64(ctx + 16, pkt + 64);
  }

  u64 RunOnce(const Corpus& entry, ExecEngine engine, u64* insns_out) {
    auto loaded = rig.loader.Find(entry.prog_id);
    ebpf::ExecOptions opts;
    opts.engine = engine;
    auto result =
        ebpf::Execute(rig.bpf, *loaded.value(), ctx, opts, &rig.loader);
    if (!result.ok()) {
      std::fprintf(stderr, "dispatch_hotpath: exec %s: %s\n",
                   entry.name.c_str(), result.status().ToString().c_str());
      return 0;
    }
    if (insns_out != nullptr) {
      *insns_out = result.value().stats.insns;
    }
    return result.value().r0;
  }

  System rig;
  std::vector<Corpus> corpus;
  simkern::Addr ctx = 0;
};

ExecRig& SharedRig() {
  static ExecRig rig;
  return rig;
}

void BM_Exec(benchmark::State& state, ExecEngine engine) {
  ExecRig& rig = SharedRig();
  const Corpus& entry = rig.corpus[state.range(0)];
  u64 insns = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.RunOnce(entry, engine, &insns));
  }
  state.SetLabel(entry.name);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * insns));
}

// Per-fire cost through the full dispatch stack: supervised hook registry,
// packet-counter attachment, reused report.
struct HookRig {
  HookRig() {
    const int fd = benchutil::MustCreateArrayMap(rig, "cnt", 8, 4);
    prog_id = rig.loader.Load(analysis::BuildPacketCounter(fd).value()).value();
    ctx = rig.kernel.mem()
              .Map(64, simkern::MemPerm::kReadWrite,
                   simkern::RegionKind::kKernelData, "ctx")
              .value();
    const simkern::Addr pkt =
        rig.kernel.mem()
            .Map(64, simkern::MemPerm::kReadWrite,
                 simkern::RegionKind::kKernelData, "pkt")
            .value();
    (void)rig.kernel.mem().WriteU64(ctx + 8, pkt);
    (void)rig.kernel.mem().WriteU64(ctx + 16, pkt + 64);
  }

  // One registry per engine so per-engine numbers share nothing; both
  // report to the system's supervisor.
  safex::HookRegistryConfig ConfigFor(ExecEngine engine) {
    safex::HookRegistryConfig config = rig.hooks->config();
    config.exec_options.engine = engine;
    return config;
  }

  System rig{{}, safex::SupervisorConfig{}};
  xbase::u32 prog_id = 0;
  simkern::Addr ctx = 0;
};

void BM_HookFire(benchmark::State& state, ExecEngine engine) {
  static HookRig hook_rig;
  safex::HookRegistry hooks(hook_rig.rig.bpf, hook_rig.rig.loader,
                            *hook_rig.rig.ext_loader,
                            hook_rig.ConfigFor(engine));
  if (!hooks.AttachProgram(safex::HookPoint::kXdpIngress, hook_rig.prog_id)
           .ok()) {
    state.SkipWithError("attach failed");
    return;
  }
  safex::HookFireReport report;
  for (auto _ : state) {
    hooks.FireInto(safex::HookPoint::kXdpIngress, hook_rig.ctx, report);
    benchmark::DoNotOptimize(report.verdict);
  }
}

void RegisterAll() {
  const auto count = static_cast<int>(SharedRig().corpus.size());
  for (int i = 0; i < count; ++i) {
    benchmark::RegisterBenchmark("BM_Exec/threaded",
                                 [](benchmark::State& s) {
                                   BM_Exec(s, ExecEngine::kThreaded);
                                 })
        ->Arg(i);
    benchmark::RegisterBenchmark("BM_Exec/legacy",
                                 [](benchmark::State& s) {
                                   BM_Exec(s, ExecEngine::kLegacy);
                                 })
        ->Arg(i);
  }
  benchmark::RegisterBenchmark("BM_HookFire/threaded",
                               [](benchmark::State& s) {
                                 BM_HookFire(s, ExecEngine::kThreaded);
                               });
  benchmark::RegisterBenchmark("BM_HookFire/legacy",
                               [](benchmark::State& s) {
                                 BM_HookFire(s, ExecEngine::kLegacy);
                               });
}

// Fixed-iteration JSON pass + the acceptance gates: the ALU/branch corpus
// must clear a 4x per-insn speedup over the legacy engine (raised from 2x
// once analysis-driven elision, fusion and superblock folding landed), and
// the packet-counter fire must come in at or under 214 ns — the safex
// native-module number the paper's Table 2 row cites.
int RunJson(const char* path) {
  constexpr int kIters = 50;
  constexpr int kBatches = 8;
  ExecRig& rig = SharedRig();
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "dispatch_hotpath: cannot write %s\n", path);
    return 2;
  }
  // Best-of-kBatches batch mean: the minimum over repeated batches is the
  // standard noise-rejection estimator for a deterministic workload —
  // scheduler preemption and frequency ramps only ever inflate a batch.
  const auto mean_ns = [](auto&& fn) {
    // One untimed warm-up (decode caches, exec-stack lease, map state).
    fn();
    double best = 0;
    for (int b = 0; b < kBatches; ++b) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) {
        fn();
      }
      const auto end = std::chrono::steady_clock::now();
      const double batch =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                   start)
                  .count()) /
          kIters;
      if (b == 0 || batch < best) {
        best = batch;
      }
    }
    return best;
  };

  std::fprintf(out, "{\n  \"bench\": \"dispatch_hotpath\",\n");
#ifdef UNTENABLE_SWITCH_DISPATCH
  std::fprintf(out, "  \"dispatch\": \"switch\",\n");
#else
  std::fprintf(out, "  \"dispatch\": \"computed-goto\",\n");
#endif
  std::fprintf(out, "  \"iterations\": %d,\n  \"programs\": [\n", kIters);

  double gate_threaded_ns = 0;
  double gate_legacy_ns = 0;
  double packet_counter_ns = 0;
  u64 gate_insns = 0;
  for (xbase::usize i = 0; i < rig.corpus.size(); ++i) {
    const Corpus& entry = rig.corpus[i];
    u64 insns = 0;
    const double threaded_ns = mean_ns(
        [&] { rig.RunOnce(entry, ExecEngine::kThreaded, &insns); });
    const double legacy_ns =
        mean_ns([&] { rig.RunOnce(entry, ExecEngine::kLegacy, nullptr); });
    if (entry.alu_branch) {
      gate_threaded_ns += threaded_ns;
      gate_legacy_ns += legacy_ns;
      gate_insns += insns;
    }
    if (entry.name == "packet-counter") {
      packet_counter_ns = threaded_ns;
    }
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"insns_per_run\": %llu, "
                 "\"threaded_ns\": %.0f, \"legacy_ns\": %.0f, "
                 "\"threaded_ns_per_insn\": %.3f, "
                 "\"legacy_ns_per_insn\": %.3f, \"speedup\": %.2f}%s\n",
                 entry.name.c_str(), static_cast<unsigned long long>(insns),
                 threaded_ns, legacy_ns,
                 insns != 0 ? threaded_ns / static_cast<double>(insns) : 0.0,
                 insns != 0 ? legacy_ns / static_cast<double>(insns) : 0.0,
                 threaded_ns > 0 ? legacy_ns / threaded_ns : 0.0,
                 i + 1 < rig.corpus.size() ? "," : "");
  }

  // Per-fire hook dispatch cost (supervised, reused report).
  static HookRig hook_rig;
  double fire_ns[2] = {0, 0};
  const ExecEngine engines[2] = {ExecEngine::kThreaded, ExecEngine::kLegacy};
  for (int e = 0; e < 2; ++e) {
    safex::HookRegistry hooks(hook_rig.rig.bpf, hook_rig.rig.loader,
                              *hook_rig.rig.ext_loader,
                              hook_rig.ConfigFor(engines[e]));
    if (!hooks.AttachProgram(safex::HookPoint::kXdpIngress, hook_rig.prog_id)
             .ok()) {
      std::fprintf(stderr, "dispatch_hotpath: attach failed\n");
      std::fclose(out);
      return 2;
    }
    safex::HookFireReport report;
    fire_ns[e] = mean_ns([&] {
      hooks.FireInto(safex::HookPoint::kXdpIngress, hook_rig.ctx, report);
    });
    (void)hooks;  // detach via destruction; each engine used its own
  }

  const double speedup =
      gate_threaded_ns > 0 ? gate_legacy_ns / gate_threaded_ns : 0.0;
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"hook_fire_threaded_ns\": %.0f,\n", fire_ns[0]);
  std::fprintf(out, "  \"hook_fire_legacy_ns\": %.0f,\n", fire_ns[1]);
  const bool speedup_ok = speedup >= 4.0;
  const bool packet_ok = packet_counter_ns <= 214.0;
  std::fprintf(out, "  \"alu_branch_speedup\": %.2f,\n", speedup);
  std::fprintf(out, "  \"speedup_gate\": 4.0,\n");
  std::fprintf(out, "  \"packet_counter_threaded_ns\": %.0f,\n",
               packet_counter_ns);
  std::fprintf(out, "  \"packet_counter_gate_ns\": 214.0,\n");
  std::fprintf(out, "  \"gate_passed\": %s\n}\n",
               speedup_ok && packet_ok ? "true" : "false");
  std::fclose(out);
  std::printf(
      "dispatch_hotpath: wrote %s (alu/branch speedup %.2fx, "
      "packet-counter %.0f ns, hook fire %.0f ns threaded / %.0f ns "
      "legacy)\n",
      path, speedup, packet_counter_ns, fire_ns[0], fire_ns[1]);
  if (!speedup_ok) {
    std::fprintf(stderr,
                 "dispatch_hotpath: FAIL — threaded engine speedup %.2fx "
                 "is below the 4x acceptance bar\n",
                 speedup);
    return 1;
  }
  if (!packet_ok) {
    std::fprintf(stderr,
                 "dispatch_hotpath: FAIL — packet-counter fire %.0f ns "
                 "misses the 214 ns safex-native bar\n",
                 packet_counter_ns);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return RunJson(argv[i + 1]);
    }
  }
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
