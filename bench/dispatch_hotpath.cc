// DISPATCH — what the pre-decoded threaded engine buys over the legacy
// decode-per-step interpreter, measured two ways:
//   1. per-instruction execution cost over an ALU/branch-heavy corpus
//      (straight-line, branch diamonds, a counted loop) plus the
//      helper/map-backed packet counter, per engine;
//   2. per-fire hook dispatch cost through HookRegistry::FireInto with a
//      supervisor attached — the zero-allocation steady state.
//
// Every case is 8 trials x 50 calls after one warm-up call. The bench
// FAILS (exit 1) if the threaded engine does not clear the 4x per-insn
// speedup bar on the ALU/branch corpus or the packet-counter exec misses
// 214 ns; both gates read each case's min batch mean. `--json PATH` also
// writes the BENCH_dispatch.json artifact.
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/analysis/workloads.h"
#include "src/core/hooks.h"
#include "src/ebpf/interp.h"

namespace {

using ebpf::ExecEngine;
using safex::System;
using xbase::u64;

constexpr int kTrials = 8;
constexpr int kIters = 50;
constexpr u64 kXdpPass = 2;
constexpr ExecEngine kEngines[] = {ExecEngine::kThreaded, ExecEngine::kLegacy};

struct Corpus {
  std::string name;
  xbase::Result<ebpf::Program> prog;
  bool alu_branch = false;  // counts toward the speedup gate
  u64 expected_r0 = 0;
  xbase::u32 prog_id = 0;
};

// A rig with the packet counter's map and a ctx behind which sits a
// parseable 64-byte frame, so the counter takes its full lookup-and-count
// path (protocol byte 0: slot 0 counts, verdict XDP_PASS).
struct PacketRig {
  explicit PacketRig(std::optional<safex::SupervisorConfig> supervisor)
      : rig({}, supervisor) {
    counter_fd = harness::MustCreateArrayMap(rig, "cnt", 8, 4);
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

  u64 Counted() { return harness::ReadSlot(rig, counter_fd, 0).value(); }

  System rig;
  int counter_fd = -1;
  simkern::Addr ctx = 0;
};

xbase::u32 MustLoad(System& rig, const std::string& name,
                    const xbase::Result<ebpf::Program>& prog) {
  auto id = prog.ok() ? rig.loader.Load(prog.value())
                      : xbase::Result<xbase::u32>(prog.status());
  if (!id.ok()) {
    std::fprintf(stderr, "dispatch_hotpath: load %s: %s\n", name.c_str(),
                 id.status().ToString().c_str());
    std::exit(1);
  }
  return id.value();
}

// Every call ran and returned `expected_r0`; a packet counter's slot
// advanced once per call.
xbase::Status CheckRuns(u64 failed, u64 r0, u64 expected_r0, u64 counted,
                        u64 calls) {
  if (failed != 0) {
    return xbase::Internal(xbase::StrFormat("%llu calls failed",
                                            static_cast<unsigned long long>(
                                                failed)));
  }
  if (r0 != expected_r0) {
    return xbase::Internal(xbase::StrFormat(
        "r0 %llu, expected %llu", static_cast<unsigned long long>(r0),
        static_cast<unsigned long long>(expected_r0)));
  }
  if (counted != calls) {
    return xbase::Internal(xbase::StrFormat(
        "counter advanced %llu for %llu calls",
        static_cast<unsigned long long>(counted),
        static_cast<unsigned long long>(calls)));
  }
  return xbase::Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  harness::Bench bench("dispatch_hotpath", argc, argv);
  harness::Title("DISPATCH — threaded vs legacy engine, exec and hook fire");

  PacketRig exec(std::nullopt);
  // 16 diamonds is the largest size that fits the verifier's 1M
  // processed-insn path-enumeration budget (2^N paths). The ctx's first
  // word is 0, so every diamond takes its +1 arm.
  std::vector<Corpus> corpus = {
      {"straight-4096", analysis::BuildStraightLine(4096), true, 4096 - 2},
      {"diamonds-16", analysis::BuildBranchDiamonds(16), true, 16},
      {"counted-loop-1024", analysis::BuildCountedLoop(1024), true,
       1024 * 1023 / 2},
      {"packet-counter", analysis::BuildPacketCounter(exec.counter_fd), false,
       kXdpPass},
  };
  for (Corpus& entry : corpus) {
    entry.prog_id = MustLoad(exec.rig, entry.name, entry.prog);
  }

  double gate_threaded_ns = 0;
  double gate_legacy_ns = 0;
  double packet_counter_ns = 0;
  for (const Corpus& entry : corpus) {
    const bool packet_counter = entry.name == "packet-counter";
    for (const ExecEngine engine : kEngines) {
      const bool threaded = engine == ExecEngine::kThreaded;
      const u64 counted_before = exec.Counted();
      u64 failed = 0;
      u64 r0 = 0;
      u64 insns = 0;
      const harness::Stats stats = bench.Time(
          std::string("Exec/") + (threaded ? "threaded/" : "legacy/") +
              entry.name,
          kTrials, kIters,
          [&] {
            auto loaded = exec.rig.loader.Find(entry.prog_id);
            ebpf::ExecOptions opts;
            opts.engine = engine;
            auto result = ebpf::Execute(exec.rig.bpf, *loaded.value(),
                                        exec.ctx, opts, &exec.rig.loader);
            failed += result.ok() ? 0 : 1;
            r0 = result.ok() ? result.value().r0 : 0;
            insns = result.ok() ? result.value().stats.insns : 0;
          },
          [&](harness::Fields& counters, u64 calls) {
            counters.emplace_back("insns", insns);
            return CheckRuns(failed, r0, entry.expected_r0,
                             exec.Counted() - counted_before,
                             packet_counter ? calls : 0);
          });
      if (entry.alu_branch) {
        (threaded ? gate_threaded_ns : gate_legacy_ns) += stats.min_ns;
      }
      if (packet_counter && threaded) {
        packet_counter_ns = stats.min_ns;
      }
    }
  }

  // Per-fire cost through the full dispatch stack: supervised hook
  // registry, packet-counter attachment, reused report. One registry per
  // engine so per-engine numbers share nothing; both report to the
  // system's supervisor.
  PacketRig fire(safex::SupervisorConfig{});
  const xbase::u32 prog_id =
      MustLoad(fire.rig, "packet-counter",
               analysis::BuildPacketCounter(fire.counter_fd));
  for (const ExecEngine engine : kEngines) {
    safex::HookRegistryConfig config = fire.rig.hooks->config();
    config.exec_options.engine = engine;
    safex::HookRegistry hooks(fire.rig.bpf, fire.rig.loader,
                              *fire.rig.ext_loader, config);
    if (!hooks.AttachProgram(safex::HookPoint::kXdpIngress, prog_id).ok()) {
      std::fprintf(stderr, "dispatch_hotpath: attach failed\n");
      return 1;
    }
    safex::HookFireReport report;
    const u64 counted_before = fire.Counted();
    u64 failed = 0;
    bench.Time(
        engine == ExecEngine::kThreaded ? "HookFire/threaded"
                                        : "HookFire/legacy",
        kTrials, kIters,
        [&] {
          hooks.FireInto(safex::HookPoint::kXdpIngress, fire.ctx, report);
          failed += report.served == 1 ? 0 : 1;
        },
        [&](harness::Fields&, u64 calls) {
          return CheckRuns(failed, report.verdict, kXdpPass,
                           fire.Counted() - counted_before, calls);
        });
  }

  // The acceptance gates: the ALU/branch corpus must clear a 4x per-insn
  // speedup over the legacy engine (raised from 2x once analysis-driven
  // elision, fusion and superblock folding landed), and the packet-counter
  // exec must come in at or under 214 ns — the safex native-module number
  // the paper's Table 2 row cites.
  const double speedup =
      gate_threaded_ns > 0 ? gate_legacy_ns / gate_threaded_ns : 0.0;
  bench.Gate("alu_branch_speedup", "min", speedup, 4.0, speedup >= 4.0);
  bench.Gate("packet_counter_threaded_ns", "min", packet_counter_ns, 214.0,
             packet_counter_ns <= 214.0);
  return bench.Finish();
}
