// B-RUN — runtime-mechanism overhead ablation (§3.1): what do the watchdog,
// cleanup registry and protection domain cost per invocation, and how does
// a safex extension compare against the eBPF equivalent of the same
// workload (a packet counter) on both execution engines? Host wall-time is
// what google-benchmark reports; the simulated-time accounting is identical
// across variants by construction.
//
// Default: google-benchmark timing. With `--json PATH` it runs a
// fixed-iteration measurement pass over the packet-counter variants and
// writes the BENCH_runtime.json CI artifact.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "bench/benchutil.h"
#include "src/analysis/workloads.h"

namespace {

struct PacketRig : safex::System {
  PacketRig() {
    map_fd = benchutil::MustCreateArrayMap(*this, "counters", 8, 4);
    xbase::u8 payload[64] = {};
    payload[12] = 2;  // "protocol" byte the filter reads
    auto skb_result = kernel.net().CreateSkBuff(kernel.mem(), payload);
    skb = skb_result.ok() ? skb_result.value() : simkern::SkBuff{};
  }

  int map_fd = -1;
  simkern::SkBuff skb;
};

class PacketCounterExt : public safex::Extension {
 public:
  explicit PacketCounterExt(int map_fd) : map_fd_(map_fd) {}
  xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
    auto packet = ctx.Packet();
    XB_RETURN_IF_ERROR(packet.status());
    if (packet.value().size() < 14) {
      return xbase::u64{2};
    }
    auto proto = packet.value().ReadU8(12);
    XB_RETURN_IF_ERROR(proto.status());
    auto map = ctx.Map(map_fd_);
    XB_RETURN_IF_ERROR(map.status());
    auto slot = map.value().LookupIndex(proto.value() & 3);
    XB_RETURN_IF_ERROR(slot.status());
    auto count = slot.value().ReadU64(0);
    XB_RETURN_IF_ERROR(count.status());
    XB_RETURN_IF_ERROR(slot.value().WriteU64(0, count.value() + 1));
    return xbase::u64{2};  // XDP_PASS
  }

 private:
  int map_fd_;
};

void RunEbpfPacketCounter(benchmark::State& state, ebpf::ExecEngine engine) {
  PacketRig rig;
  auto prog = analysis::BuildPacketCounter(rig.map_fd);
  auto id = rig.loader.Load(prog.value());
  if (!id.ok()) {
    state.SkipWithError(id.status().ToString().c_str());
    return;
  }
  auto loaded = rig.loader.Find(id.value());
  ebpf::ExecOptions opts;
  opts.engine = engine;
  for (auto _ : state) {
    auto result = ebpf::Execute(rig.bpf, *loaded.value(), rig.skb.meta_addr,
                                opts, &rig.loader);
    benchmark::DoNotOptimize(result);
  }
}

void BM_EbpfThreadedPacketCounter(benchmark::State& state) {
  RunEbpfPacketCounter(state, ebpf::ExecEngine::kThreaded);
}
BENCHMARK(BM_EbpfThreadedPacketCounter);

void BM_EbpfLegacyPacketCounter(benchmark::State& state) {
  RunEbpfPacketCounter(state, ebpf::ExecEngine::kLegacy);
}
BENCHMARK(BM_EbpfLegacyPacketCounter);

void BM_SafexPacketCounter(benchmark::State& state) {
  PacketRig rig;
  PacketCounterExt ext(rig.map_fd);
  safex::InvokeOptions opts;
  opts.skb_meta = rig.skb.meta_addr;
  const safex::CapSet caps = {safex::Capability::kPacketAccess,
                              safex::Capability::kMapAccess};
  for (auto _ : state) {
    auto outcome = rig.runtime->Invoke(ext, caps, opts);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_SafexPacketCounter);

// Ablations: empty invocation with mechanisms individually exercised.
void BM_SafexInvokeEmpty(benchmark::State& state) {
  safex::System rig;
  struct Nop : safex::Extension {
    xbase::Result<xbase::u64> Run(safex::Ctx&) override {
      return xbase::u64{0};
    }
  } ext;
  for (auto _ : state) {
    auto outcome = rig.runtime->Invoke(ext, {}, {});
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_SafexInvokeEmpty);

void BM_SafexCleanupHeavy(benchmark::State& state) {
  safex::System rig;
  struct AllocHeavy : safex::Extension {
    xbase::s64 n;
    explicit AllocHeavy(xbase::s64 count) : n(count) {}
    xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
      for (xbase::s64 i = 0; i < n; ++i) {
        auto chunk = ctx.Alloc(32);
        XB_RETURN_IF_ERROR(chunk.status());
      }
      return xbase::u64{0};  // all freed by the cleanup registry
    }
  } ext(state.range(0));
  const safex::CapSet caps = {safex::Capability::kDynAlloc};
  for (auto _ : state) {
    auto outcome = rig.runtime->Invoke(ext, caps, {});
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["cleanups_per_invoke"] =
      static_cast<double>(state.range(0));
}
BENCHMARK(BM_SafexCleanupHeavy)->Arg(1)->Arg(16)->Arg(63);

void BM_SafexWatchdogFire(benchmark::State& state) {
  safex::System rig;
  struct Spin : safex::Extension {
    xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
      for (;;) {
        XB_RETURN_IF_ERROR(ctx.Tick());
      }
    }
  } ext;
  safex::InvokeOptions opts;
  opts.watchdog_budget_ns = 10'000;  // fires after ~10k ticks
  for (auto _ : state) {
    auto outcome = rig.runtime->Invoke(ext, {}, opts);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_SafexWatchdogFire);

// Reference acquire/release through RAII vs the cleanup registry.
void BM_SafexSockRefScope(benchmark::State& state) {
  safex::System rig;
  struct Lookup : safex::Extension {
    xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
      auto sock = ctx.LookupTcp(
          simkern::SockTuple{0x0a000001, 0x0a000002, 8080, 40000});
      XB_RETURN_IF_ERROR(sock.status());
      return static_cast<xbase::u64>(sock.value().src_port());
    }
  } ext;
  const safex::CapSet caps = {safex::Capability::kSockLookup};
  for (auto _ : state) {
    auto outcome = rig.runtime->Invoke(ext, caps, {});
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_SafexSockRefScope);

// Fixed-iteration JSON pass over the per-invocation packet-counter
// variants (the availability-layer comparison the README quotes).
int RunJson(const char* path) {
  constexpr int kIters = 2000;
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "runtime_overhead: cannot write %s\n", path);
    return 2;
  }
  const auto mean_ns = [](auto&& fn) {
    fn();  // warm-up: decode, exec-stack lease, map state
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      fn();
    }
    const auto end = std::chrono::steady_clock::now();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                    start)
                   .count()) /
           kIters;
  };

  PacketRig rig;
  auto id = rig.loader.Load(analysis::BuildPacketCounter(rig.map_fd).value());
  if (!id.ok()) {
    std::fprintf(stderr, "runtime_overhead: %s\n",
                 id.status().ToString().c_str());
    std::fclose(out);
    return 2;
  }
  auto loaded = rig.loader.Find(id.value());
  const auto exec_mean = [&](ebpf::ExecEngine engine) {
    ebpf::ExecOptions opts;
    opts.engine = engine;
    return mean_ns([&] {
      auto result = ebpf::Execute(rig.bpf, *loaded.value(),
                                  rig.skb.meta_addr, opts, &rig.loader);
      benchmark::DoNotOptimize(result);
    });
  };
  const double threaded_ns = exec_mean(ebpf::ExecEngine::kThreaded);
  const double legacy_ns = exec_mean(ebpf::ExecEngine::kLegacy);

  PacketCounterExt ext(rig.map_fd);
  safex::InvokeOptions opts;
  opts.skb_meta = rig.skb.meta_addr;
  const safex::CapSet caps = {safex::Capability::kPacketAccess,
                              safex::Capability::kMapAccess};
  const double safex_ns = mean_ns([&] {
    auto outcome = rig.runtime->Invoke(ext, caps, opts);
    benchmark::DoNotOptimize(outcome);
  });

  std::fprintf(out, "{\n  \"bench\": \"runtime_overhead\",\n");
  std::fprintf(out, "  \"iterations\": %d,\n", kIters);
  std::fprintf(out, "  \"workload\": \"packet-counter\",\n");
  std::fprintf(out, "  \"ebpf_threaded_ns\": %.0f,\n", threaded_ns);
  std::fprintf(out, "  \"ebpf_legacy_ns\": %.0f,\n", legacy_ns);
  std::fprintf(out, "  \"safex_ns\": %.0f,\n", safex_ns);
  std::fprintf(out, "  \"threaded_vs_legacy_speedup\": %.2f\n}\n",
               threaded_ns > 0 ? legacy_ns / threaded_ns : 0.0);
  std::fclose(out);
  std::printf(
      "runtime_overhead: wrote %s (threaded %.0f ns, legacy %.0f ns, "
      "safex %.0f ns per invocation)\n",
      path, threaded_ns, legacy_ns, safex_ns);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return RunJson(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
