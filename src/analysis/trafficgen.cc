#include "src/analysis/trafficgen.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include "src/analysis/workloads.h"
#include "src/core/sched.h"
#include "src/core/system.h"
#include "src/ebpf/asm.h"
#include "src/simkern/lsm.h"
#include "src/xbase/bytes.h"
#include "src/xbase/metrics.h"
#include "src/xbase/rand.h"
#include "src/xbase/strfmt.h"

namespace analysis {
namespace {

using xbase::u32;
using xbase::u64;
using xbase::u8;

// Event mix (percent of the stream): heavily packet-dominated, like a
// datapath box with a scheduler, an LSM policy and a control plane
// churning maps underneath.
constexpr u64 kPacketPct = 70;
constexpr u64 kSchedPct = 10;
constexpr u64 kLsmPct = 10;  // remainder is map churn

// Events submitted between Drain barriers: bounds how far the generator
// runs ahead of the CPUs, so queue memory stays flat however long the run.
constexpr u64 kBatchSize = 128;

// Tasks available to the scheduler tenant (spread across the CPUs'
// runqueues at setup).
constexpr u32 kSchedTasks = 8;

simkern::KernelConfig TrafficKernelConfig(u32 cpus) {
  simkern::KernelConfig config;
  config.version = simkern::kV6_12;  // LSM hook family needs >= 6.12
  config.unprivileged_bpf_disabled = false;
  config.num_cpus = cpus;
  return config;
}

// Single-writer per-CPU aggregation: only the thread bound to `cpu`
// touches slot `cpu` during the run; the main thread reads everything at
// the post-Drain quiescent point. Fire latencies go into a fixed-size
// histogram, so memory stays flat however long the run; the exact max
// rides alongside it.
struct alignas(64) CpuAgg {
  u64 fires = 0;
  u64 lsm_denies = 0;
  xbase::Histogram latency_ns;
  u64 max_latency_ns = 0;
  safex::HookFireReport report;
};

u64 WallNowNs() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

LatencyTailsNs MergeLatencies(const std::vector<CpuAgg>& aggs) {
  xbase::Histogram all;
  LatencyTailsNs tails;
  for (const CpuAgg& agg : aggs) {
    all.Merge(agg.latency_ns);
    tails.max = std::max(tails.max, agg.max_latency_ns);
  }
  tails.samples = all.count();
  tails.p50 = static_cast<u64>(all.Quantile(0.50));
  tails.p99 = static_cast<u64>(all.Quantile(0.99));
  tails.p999 = static_cast<u64>(all.Quantile(0.999));
  return tails;
}

}  // namespace

TrafficReport RunTraffic(const TrafficConfig& config) {
  TrafficReport report;
  safex::System rig(TrafficKernelConfig(config.cpus),
                    safex::SupervisorConfig{});
  if (!rig.ok()) {
    report.failure = "rig construction failed";
    return report;
  }
  const u32 num_cpus = rig.kernel.num_cpus();

  // --- tenants --------------------------------------------------------------
  // Packet tenant: an XDP counter over a *per-CPU* array map. Every fire
  // increments exactly one slot of key (protocol & 3) on the executing CPU,
  // so the cross-CPU sum at the end must equal the number of fires.
  ebpf::MapSpec pkt_spec;
  pkt_spec.type = ebpf::MapType::kPercpuArray;
  pkt_spec.key_size = 4;
  pkt_spec.value_size = 8;
  pkt_spec.max_entries = 4;
  pkt_spec.name = "tg_pkt";
  auto pkt_fd = rig.bpf.maps().Create(pkt_spec);
  if (!pkt_fd.ok()) {
    report.failure = "percpu map create failed";
    return report;
  }
  auto pkt_prog = BuildPacketCounter(pkt_fd.value());
  if (!pkt_prog.ok()) {
    report.failure = "packet tenant setup failed";
    return report;
  }
  auto pkt_id = rig.loader.Load(pkt_prog.value());
  if (!pkt_id.ok() ||
      !rig.hooks->AttachProgram(safex::HookPoint::kXdpIngress,
                                pkt_id.value())
           .ok()) {
    report.failure = "packet tenant setup failed";
    return report;
  }
  u8 payload[48] = {};
  payload[12] = 1;  // protocol byte -> counter key 1, XDP_PASS class
  auto skb = rig.kernel.net().CreateSkBuff(rig.kernel.mem(), payload);
  if (!skb.ok()) {
    report.failure = "skb setup failed";
    return report;
  }
  const simkern::Addr pkt_ctx = skb.value().meta_addr;

  // LSM tenant: an allow-all lsm_file_open policy over a populated
  // decision context (the family still fails closed if the policy dies).
  ebpf::ProgramBuilder lsm_builder("tg_lsm_allow", ebpf::ProgType::kLsm);
  lsm_builder.Ins(ebpf::Mov64Imm(ebpf::R0, 0)).Ins(ebpf::Exit());
  auto lsm_prog = lsm_builder.Build();
  if (!lsm_prog.ok()) {
    report.failure = "lsm tenant setup failed";
    return report;
  }
  auto lsm_id = rig.loader.Load(lsm_prog.value());
  if (!lsm_id.ok() ||
      !rig.hooks->AttachProgram(safex::HookPoint::kLsmFileOpen,
                                lsm_id.value())
           .ok()) {
    report.failure = "lsm tenant setup failed";
    return report;
  }
  auto lsm_block = rig.kernel.mem().Map(simkern::LsmCtxLayout::kSize,
                                        simkern::MemPerm::kReadWrite,
                                        simkern::RegionKind::kKernelData,
                                        "tg_lsmctx");
  if (!lsm_block.ok()) {
    report.failure = "lsm ctx setup failed";
    return report;
  }
  const simkern::Addr lsm_ctx = lsm_block.value();
  (void)rig.kernel.mem().WriteU32(lsm_ctx + simkern::LsmCtxLayout::kPid, 1);
  (void)rig.kernel.mem().WriteU32(lsm_ctx + simkern::LsmCtxLayout::kUid,
                                  1000);
  (void)rig.kernel.mem().WriteU64(lsm_ctx + simkern::LsmCtxLayout::kInodeId,
                                  4242);
  (void)rig.kernel.mem().WriteU32(
      lsm_ctx + simkern::LsmCtxLayout::kOpenFlags, 0);
  (void)rig.kernel.mem().WriteU32(lsm_ctx + simkern::LsmCtxLayout::kPathLen,
                                  8);

  // Scheduler tenant: one SchedCore per CPU over per-CPU runqueues (the
  // schedstorm arrangement), honest pick-first policy. The starvation
  // bound is deliberately huge: under a packet-dominated mix a CPU's sim
  // clock races ahead of its rare sched ticks, and this tenant measures
  // throughput, not containment.
  auto sched_prog = BuildSchedPickFirst();
  if (!sched_prog.ok()) {
    report.failure = "sched tenant setup failed";
    return report;
  }
  auto sched_id = rig.loader.Load(sched_prog.value());
  if (!sched_id.ok() ||
      !rig.hooks->AttachProgram(safex::HookPoint::kSchedPickNext,
                                sched_id.value())
           .ok()) {
    report.failure = "sched tenant setup failed";
    return report;
  }
  safex::SchedConfig sched_config;
  sched_config.starvation_bound_ns = 3600 * simkern::kNsPerSec;
  std::vector<std::unique_ptr<safex::SchedCore>> cores;
  for (u32 cpu = 0; cpu < num_cpus; ++cpu) {
    cores.push_back(std::make_unique<safex::SchedCore>(
        rig.kernel, *rig.hooks, sched_config));
    if (!cores.back()->Init().ok()) {
      report.failure = "sched core init failed";
      return report;
    }
  }
  for (u32 i = 0; i < kSchedTasks; ++i) {
    const u32 pid = 60000 + i;
    if (rig.kernel.tasks()
            .Create(rig.kernel.mem(), rig.kernel.objects(), pid, pid,
                    "traffic")
            .ok()) {
      const u32 home = pid % num_cpus;
      (void)rig.kernel.runqueue(home).Enqueue(
          pid, rig.kernel.clock().now_ns(home));
    }
  }

  // Churn tenant: control-plane update/delete traffic against a hash map.
  ebpf::MapSpec churn_spec;
  churn_spec.type = ebpf::MapType::kHash;
  churn_spec.key_size = 4;
  churn_spec.value_size = 8;
  churn_spec.max_entries = 64;
  churn_spec.name = "tg_churn";
  auto churn_fd = rig.bpf.maps().Create(churn_spec);
  if (!churn_fd.ok()) {
    report.failure = "churn map create failed";
    return report;
  }
  ebpf::Map* churn_map = rig.bpf.maps().Find(churn_fd.value()).value();

  // --- the stream -----------------------------------------------------------
  const bool smp = num_cpus > 1;
  if (smp) {
    rig.kernel.StartCpus();
  }
  simkern::CpuPool* pool = smp ? rig.kernel.cpus() : nullptr;
  std::vector<CpuAgg> aggs(num_cpus);
  std::vector<u64> sim_start(num_cpus);
  for (u32 cpu = 0; cpu < num_cpus; ++cpu) {
    sim_start[cpu] = rig.kernel.clock().now_ns(cpu);
  }

  // Dispatch: placed on the target CPU's worker in SMP mode, inline
  // single-threaded otherwise.
  auto dispatch = [&](u32 cpu, std::function<void()> fn) {
    if (pool != nullptr) {
      pool->Submit(cpu % num_cpus, std::move(fn));
    } else {
      fn();
    }
  };
  auto fire_timed = [&rig, &aggs](safex::HookPoint hook,
                                  simkern::Addr ctx_addr, bool count_deny) {
    CpuAgg& agg = aggs[rig.kernel.current_cpu()];
    const u64 t0 = WallNowNs();
    rig.hooks->FireInto(hook, ctx_addr, agg.report);
    const u64 t1 = WallNowNs();
    ++agg.fires;
    agg.latency_ns.Record(t1 - t0);
    agg.max_latency_ns = std::max(agg.max_latency_ns, t1 - t0);
    if (count_deny && agg.report.verdict != 0) {
      ++agg.lsm_denies;
    }
  };

  xbase::Rng rng(config.seed);
  const u64 wall_start = WallNowNs();
  u64 in_batch = 0;
  u32 rr_cpu = 0;
  for (u64 event = 0; event < config.events; ++event) {
    const u64 dice = rng.NextBelow(100);
    const u32 cpu = rr_cpu++ % num_cpus;
    if (dice < kPacketPct) {
      ++report.packet_events;
      dispatch(cpu, [&fire_timed, pkt_ctx] {
        fire_timed(safex::HookPoint::kXdpIngress, pkt_ctx, false);
      });
    } else if (dice < kPacketPct + kSchedPct) {
      // Each CPU ticks its own core. One thread runs a CPU's work in
      // order, so no core is entered twice at once.
      safex::SchedCore* core = cores[cpu].get();
      ++report.sched_events;
      dispatch(cpu, [core] { (void)core->Tick(); });
    } else if (dice < kPacketPct + kSchedPct + kLsmPct) {
      ++report.lsm_events;
      dispatch(cpu, [&fire_timed, lsm_ctx] {
        fire_timed(safex::HookPoint::kLsmFileOpen, lsm_ctx, true);
      });
    } else {
      ++report.churn_events;
      const u32 key = static_cast<u32>(rng.NextBelow(128));
      const bool insert = rng.NextBelow(3) != 0;
      dispatch(cpu, [&rig, churn_map, key, insert, event] {
        std::vector<u8> key_bytes(4);
        xbase::StoreLe32(key_bytes.data(), key);
        if (insert) {
          std::vector<u8> value(8);
          xbase::StoreLe64(value.data(), event);
          (void)churn_map->Update(rig.kernel, key_bytes, value,
                                  ebpf::kBpfAny);
        } else {
          (void)churn_map->Delete(rig.kernel, key_bytes);
        }
      });
    }
    if (++in_batch >= kBatchSize) {
      if (pool != nullptr) {
        pool->Drain();
      }
      in_batch = 0;
    }
  }
  if (pool != nullptr) {
    pool->Drain();
  }
  report.wall_elapsed_ns = WallNowNs() - wall_start;

  // --- quiescent-point accounting and end-of-run invariants -----------------
  report.per_cpu.resize(num_cpus);
  u64 max_advance = 0;
  for (u32 cpu = 0; cpu < num_cpus; ++cpu) {
    TrafficCpuStats& stats = report.per_cpu[cpu];
    stats.fires = aggs[cpu].fires;
    stats.sim_advanced_ns = rig.kernel.clock().now_ns(cpu) - sim_start[cpu];
    max_advance = std::max(max_advance, stats.sim_advanced_ns);
    if (pool != nullptr) {
      stats.executed = pool->executed_on(cpu);
    }
    report.lsm_denies += aggs[cpu].lsm_denies;
  }
  report.sim_elapsed_ns = max_advance;
  if (max_advance > 0) {
    report.events_per_sim_ms =
        static_cast<double>(config.events) * 1e6 /
        static_cast<double>(max_advance);
  }
  report.fire_latency = MergeLatencies(aggs);
  report.lock_totals = rig.kernel.locks().Totals();
  report.memory_table_lock = rig.kernel.mem().table_lock_stats();
  report.map_table_lock = rig.bpf.maps().lock_stats();
  report.hook_table_lock = rig.hooks->table_lock_stats();

  // The per-CPU counter sum: read every CPU's slot of every key.
  auto* pkt_map = dynamic_cast<ebpf::PercpuArrayMap*>(
      rig.bpf.maps().Find(pkt_fd.value()).value());
  for (u32 key = 0; key < pkt_spec.max_entries; ++key) {
    std::vector<u8> key_bytes(4);
    xbase::StoreLe32(key_bytes.data(), key);
    for (u32 cpu = 0; cpu < num_cpus; ++cpu) {
      auto addr = pkt_map->LookupAddrForCpu(key_bytes, cpu);
      if (addr.ok()) {
        const u64 slot = rig.kernel.mem().ReadU64(addr.value()).value_or(0);
        report.packet_count_sum += slot;
        if (key == 1) {
          report.per_cpu[cpu].packet_count = slot;
        }
      }
    }
  }

  if (smp) {
    rig.kernel.StopCpus();
  }

  if (rig.kernel.state() != simkern::KernelState::kRunning) {
    report.failure = "kernel not running after the stream";
  } else if (rig.kernel.rcu().AnyReader()) {
    report.failure = "RCU read-side critical section leaked";
  } else if (rig.kernel.locks().held_count_total() != 0) {
    report.failure = xbase::StrFormat(
        "%d lock(s) still held", rig.kernel.locks().held_count_total());
  } else if (!rig.supervisor
                  ->CheckConsistent(rig.kernel.clock().max_now_ns())
                  .ok()) {
    report.failure = "supervisor state inconsistent";
  } else if (rig.supervisor->failures() != 0) {
    report.failure = xbase::StrFormat(
        "honest tenants were charged %llu failure(s)",
        static_cast<unsigned long long>(rig.supervisor->failures()));
  } else if (report.packet_count_sum != report.packet_events) {
    report.failure = xbase::StrFormat(
        "per-CPU counter sum %llu != %llu packet fires (lost updates)",
        static_cast<unsigned long long>(report.packet_count_sum),
        static_cast<unsigned long long>(report.packet_events));
  }
  report.ok = report.failure.empty();
  return report;
}

}  // namespace analysis
