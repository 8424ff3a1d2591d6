// trafficgen: seeded SMP load generator for the supervised extension stack.
//
//   trafficgen                 one run with the defaults (4 CPUs, 20k events)
//   trafficgen --seed N        replay a specific seed
//   trafficgen --events M      number of mixed-tenant events
//   trafficgen --cpus N        simulated CPUs (1 = inline single-threaded)
//   trafficgen --quiet         print only the verdict line
//
// The stream is a mixed-tenant mix — ~70% packet-counter fires, ~10%
// scheduler ticks, ~10% LSM file-open decisions, ~10% map churn — submitted
// round-robin across the CPUs and executed concurrently on the kernel's
// CpuPool (idle CPUs steal). The event sequence is a pure function of
// --seed/--events, so runs replay; only intra-batch interleaving varies.
// Exit status: 0 all end-of-run invariants held (including the per-CPU
// counter sum matching the packet fire count exactly), 1 one broke,
// 2 usage error.
#include <cstdio>
#include <utility>

#include "src/analysis/stormmain.h"
#include "src/xbase/strfmt.h"

namespace {

void PrintStats(const analysis::TrafficReport& report) {
  std::printf("  event mix             %llu packet, %llu sched, %llu lsm, "
              "%llu churn\n",
              static_cast<unsigned long long>(report.packet_events),
              static_cast<unsigned long long>(report.sched_events),
              static_cast<unsigned long long>(report.lsm_events),
              static_cast<unsigned long long>(report.churn_events));
  std::printf("  throughput            %.1f events per simulated ms "
              "(makespan %.3f sim ms, %.1f wall ms)\n",
              report.events_per_sim_ms,
              static_cast<double>(report.sim_elapsed_ns) / 1e6,
              static_cast<double>(report.wall_elapsed_ns) / 1e6);
  std::printf("  fire latency (wall)   p50 %llu ns, p99 %llu ns, p999 %llu "
              "ns, max %llu ns (%zu fires)\n",
              static_cast<unsigned long long>(report.fire_latency.p50),
              static_cast<unsigned long long>(report.fire_latency.p99),
              static_cast<unsigned long long>(report.fire_latency.p999),
              static_cast<unsigned long long>(report.fire_latency.max),
              report.fire_latency.samples);
  std::printf("  lock contention       %llu acquires, %llu contended, "
              "%.3f ms spent spinning\n",
              static_cast<unsigned long long>(report.lock_totals.acquires),
              static_cast<unsigned long long>(
                  report.lock_totals.contended_acquires),
              static_cast<double>(report.lock_totals.spin_wall_ns) / 1e6);
  // The simulated locks above; below, the host locks every fire reads
  // under (only their writer side is counted).
  const std::pair<const char*, const xbase::RwLockStats*> host_locks[] = {
      {"memory table (host)", &report.memory_table_lock},
      {"map table (host)", &report.map_table_lock},
      {"hook table (host)", &report.hook_table_lock}};
  for (const auto& [table, stats] : host_locks) {
    std::printf("  %-22s%llu writer acquires, %llu contended, %.3f ms "
                "waiting\n",
                table, static_cast<unsigned long long>(stats->writer_acquires),
                static_cast<unsigned long long>(stats->writer_contended),
                static_cast<double>(stats->writer_wait_ns) / 1e6);
  }
  for (xbase::usize cpu = 0; cpu < report.per_cpu.size(); ++cpu) {
    const analysis::TrafficCpuStats& stats = report.per_cpu[cpu];
    std::printf("  cpu%-2zu                 %llu tasks (%llu stolen), "
                "%llu fires, %llu pkts, %.3f sim ms\n",
                cpu, static_cast<unsigned long long>(stats.executed),
                static_cast<unsigned long long>(stats.stolen),
                static_cast<unsigned long long>(stats.fires),
                static_cast<unsigned long long>(stats.packet_count),
                static_cast<double>(stats.sim_advanced_ns) / 1e6);
  }
}

analysis::storm::Outcome Run(const analysis::TrafficConfig& config,
                             bool quiet) {
  const analysis::TrafficReport report = analysis::RunTraffic(config);
  if (!quiet) {
    PrintStats(report);
  }
  if (!report.ok) {
    return {1, report.failure};
  }
  return {0, xbase::StrFormat(
                 "%llu events across %u CPUs, per-CPU counter sum matches "
                 "%llu packet fires exactly",
                 static_cast<unsigned long long>(config.events), config.cpus,
                 static_cast<unsigned long long>(report.packet_count_sum))};
}

}  // namespace

int main(int argc, char** argv) {
  return analysis::storm::Main<analysis::TrafficConfig>(
      {"trafficgen", analysis::storm::TrafficFlags(), Run, {}, {}}, argc,
      argv);
}
