// B-RUN — runtime-mechanism overhead ablation (§3.1): what do the watchdog,
// cleanup registry and protection domain cost per invocation, and how does
// a safex extension compare against the eBPF equivalent of the same
// workload (a packet counter) on both execution engines? Every case is
// host wall time per invocation, 8 trials x 2000 calls after one warm-up
// call; the simulated-time accounting is identical across variants by
// construction. `--json PATH` also writes the BENCH_runtime.json artifact.
#include "bench/harness.h"
#include "src/analysis/workloads.h"

namespace {

struct PacketRig : safex::System {
  PacketRig() {
    map_fd = harness::MustCreateArrayMap(*this, "counters", 8, 4);
    xbase::u8 payload[64] = {};
    payload[12] = 2;  // "protocol" byte the filter reads
    auto skb_result = kernel.net().CreateSkBuff(kernel.mem(), payload);
    if (!skb_result.ok()) {
      std::fprintf(stderr, "runtime_overhead: skb: %s\n",
                   skb_result.status().ToString().c_str());
      std::exit(1);
    }
    skb = skb_result.value();
  }

  // Protocol byte 2 counts in slot 2.
  xbase::u64 Counted() { return harness::ReadSlot(*this, map_fd, 2).value(); }

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

constexpr int kTrials = 8;
constexpr int kIters = 2000;
constexpr xbase::u64 kXdpPass = 2;

// Every invocation ended OK with `ret`.
xbase::Status CheckOutcome(xbase::u64 failed, const safex::InvokeOutcome& last,
                           xbase::u64 ret) {
  if (failed != 0 || !last.status.ok()) {
    return xbase::Internal(xbase::StrFormat(
        "%llu invocations failed (last: %s)",
        static_cast<unsigned long long>(failed),
        last.status.ToString().c_str()));
  }
  if (last.ret != ret) {
    return xbase::Internal(xbase::StrFormat(
        "returned %llu, expected %llu",
        static_cast<unsigned long long>(last.ret),
        static_cast<unsigned long long>(ret)));
  }
  return xbase::Status::Ok();
}

xbase::Status CheckCounted(xbase::u64 counted, xbase::u64 calls) {
  return counted == calls
             ? xbase::Status::Ok()
             : xbase::Internal(xbase::StrFormat(
                   "counter advanced %llu for %llu calls",
                   static_cast<unsigned long long>(counted),
                   static_cast<unsigned long long>(calls)));
}

// Times `ext` invoked with `caps`/`opts` on `rig`; `check` sees the
// failure count and the last outcome.
template <typename Check>
void TimeInvoke(harness::Bench& bench, const std::string& name,
                safex::System& rig, safex::Extension& ext,
                const safex::CapSet& caps, const safex::InvokeOptions& opts,
                Check&& check) {
  xbase::u64 failed = 0;
  safex::InvokeOutcome last;
  bench.Time(
      name, kTrials, kIters,
      [&] {
        last = rig.runtime->Invoke(ext, caps, opts);
        failed += last.status.ok() ? 0 : 1;
      },
      [&](harness::Fields& counters, xbase::u64 calls) {
        return check(counters, calls, failed, last);
      });
}

}  // namespace

int main(int argc, char** argv) {
  harness::Bench bench("runtime_overhead", argc, argv);
  harness::Title("B-RUN — per-invocation cost of the runtime mechanisms");

  // The packet counter three ways, on one rig.
  PacketRig rig;
  auto prog = analysis::BuildPacketCounter(rig.map_fd);
  auto id = prog.ok() ? rig.loader.Load(prog.value())
                      : xbase::Result<xbase::u32>(prog.status());
  if (!id.ok()) {
    std::fprintf(stderr, "runtime_overhead: %s\n",
                 id.status().ToString().c_str());
    return 1;
  }
  for (const ebpf::ExecEngine engine :
       {ebpf::ExecEngine::kThreaded, ebpf::ExecEngine::kLegacy}) {
    const ebpf::LoadedProgram& loaded = *rig.loader.Find(id.value()).value();
    ebpf::ExecOptions opts;
    opts.engine = engine;
    const xbase::u64 counted_before = rig.Counted();
    xbase::u64 failed = 0;
    xbase::u64 r0 = 0;
    bench.Time(
        engine == ebpf::ExecEngine::kThreaded ? "EbpfThreadedPacketCounter"
                                              : "EbpfLegacyPacketCounter",
        kTrials, kIters,
        [&] {
          auto result = ebpf::Execute(rig.bpf, loaded, rig.skb.meta_addr,
                                      opts, &rig.loader);
          failed += result.ok() ? 0 : 1;
          r0 = result.ok() ? result.value().r0 : 0;
        },
        [&](harness::Fields&, xbase::u64 calls) {
          if (failed != 0 || r0 != kXdpPass) {
            return xbase::Internal(xbase::StrFormat(
                "%llu runs failed, r0 %llu",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(r0)));
          }
          return CheckCounted(rig.Counted() - counted_before, calls);
        });
  }
  {
    PacketCounterExt ext(rig.map_fd);
    safex::InvokeOptions opts;
    opts.skb_meta = rig.skb.meta_addr;
    const xbase::u64 counted_before = rig.Counted();
    TimeInvoke(bench, "SafexPacketCounter", rig, ext,
               {safex::Capability::kPacketAccess,
                safex::Capability::kMapAccess},
               opts,
               [&](harness::Fields&, xbase::u64 calls, xbase::u64 failed,
                   const safex::InvokeOutcome& last) {
                 XB_RETURN_IF_ERROR(CheckOutcome(failed, last, kXdpPass));
                 return CheckCounted(rig.Counted() - counted_before, calls);
               });
  }

  // Ablations: an empty invocation, then each mechanism exercised alone.
  safex::System sys;
  struct Nop : safex::Extension {
    xbase::Result<xbase::u64> Run(safex::Ctx&) override {
      return xbase::u64{0};
    }
  } nop;
  TimeInvoke(bench, "SafexInvokeEmpty", sys, nop, {}, {},
             [](harness::Fields&, xbase::u64, xbase::u64 failed,
                const safex::InvokeOutcome& last) {
               return CheckOutcome(failed, last, 0);
             });

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
  };
  for (const xbase::s64 n : {1, 16, 63}) {
    AllocHeavy ext(n);
    TimeInvoke(bench, xbase::StrFormat("SafexCleanupHeavy/%lld",
                                       static_cast<long long>(n)),
               sys, ext, {safex::Capability::kDynAlloc}, {},
               [n](harness::Fields& counters, xbase::u64, xbase::u64 failed,
                   const safex::InvokeOutcome& last) {
                 counters.emplace_back("cleanups_per_invoke", n);
                 XB_RETURN_IF_ERROR(CheckOutcome(failed, last, 0));
                 return last.cleanup.entries_run == n
                            ? xbase::Status::Ok()
                            : xbase::Internal("cleanup count mismatch");
               });
  }

  struct Spin : safex::Extension {
    xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
      for (;;) {
        XB_RETURN_IF_ERROR(ctx.Tick());
      }
    }
  } spin;
  safex::InvokeOptions watchdog;
  watchdog.watchdog_budget_ns = 10'000;  // fires after ~10k ticks
  const xbase::u64 fires_before = sys.runtime->watchdog_fires();
  TimeInvoke(bench, "SafexWatchdogFire", sys, spin, {}, watchdog,
             [&](harness::Fields&, xbase::u64 calls, xbase::u64 failed,
                 const safex::InvokeOutcome&) {
               const xbase::u64 fires =
                   sys.runtime->watchdog_fires() - fires_before;
               return failed == calls && fires == calls
                          ? xbase::Status::Ok()
                          : xbase::Internal("watchdog did not fire on "
                                            "every call");
             });

  // Reference acquire/release through RAII vs the cleanup registry.
  struct Lookup : safex::Extension {
    xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
      auto sock = ctx.LookupTcp(
          simkern::SockTuple{0x0a000001, 0x0a000002, 8080, 40000});
      XB_RETURN_IF_ERROR(sock.status());
      return static_cast<xbase::u64>(sock.value().src_port());
    }
  } lookup;
  TimeInvoke(bench, "SafexSockRefScope", sys, lookup,
             {safex::Capability::kSockLookup}, {},
             [](harness::Fields&, xbase::u64, xbase::u64 failed,
                const safex::InvokeOutcome& last) {
               return CheckOutcome(failed, last, 8080);
             });
  return bench.Finish();
}
