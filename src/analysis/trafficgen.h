// Seeded SMP load generator: a mixed-tenant event stream — packet-counter
// fires, scheduler ticks, LSM file-open decisions and map churn — submitted
// across all simulated CPUs of one kernel and executed concurrently on the
// CpuPool's real threads, each event on the CPU it was submitted to (as RSS
// steers a flow to one queue's CPU).
//
// This is the workload half of the tentpole's scaling claim: the same
// seeded stream runs at any CPU count, throughput is measured in simulated
// time (events per simulated millisecond, using the slowest CPU's clock
// advance as the makespan), and per-fire service latencies are recorded
// per CPU and merged into p50/p99/p999 tails. bench/smp_scaling sweeps
// RunTraffic over 1..16 CPUs to produce BENCH_smp.json; tools/trafficgen
// is the CLI for one run.
//
// Correctness is asserted, not assumed: the packet program counts into a
// per-CPU array map, so after the final Drain the cross-CPU sum must equal
// the number of packet fires exactly — a lost update anywhere in the
// per-CPU storage, dispatch path or CPU pool breaks the run, as does
// anything the storm kit's survival check (storm.h) finds left behind. Every
// simulated figure (clocks, per-CPU tasks, fires, counter slots) depends
// only on the seed, the event count and the CPU count.
#pragma once

#include <string>
#include <vector>

#include "src/simkern/lock.h"
#include "src/xbase/rwlock.h"
#include "src/xbase/types.h"

namespace analysis {

struct TrafficConfig {
  xbase::u64 seed = 1;
  xbase::u64 events = 20000;
  // Simulated CPUs. 1 runs the stream inline on the calling thread (no
  // pool, the historical single-CPU dispatch path); >1 starts the kernel's
  // CpuPool and round-robins event batches across the machine.
  xbase::u32 cpus = 4;
};

// Per-CPU accounting, read at the post-Drain quiescent point.
struct TrafficCpuStats {
  xbase::u64 executed = 0;        // pool tasks that ran on this CPU
  xbase::u64 fires = 0;           // hook fires dispatched on this CPU
  xbase::u64 sim_advanced_ns = 0; // simulated time this CPU's clock moved
  xbase::u64 packet_count = 0;    // this CPU's slot of the per-CPU counter
};

// Wall-clock service-latency tails for one tenant's fires (ns per fire,
// measured around the Fire call on the executing thread). The quantiles
// come from per-CPU histograms merged at the end (within 1/64 of the exact
// value); max is exact.
struct LatencyTailsNs {
  xbase::u64 p50 = 0;
  xbase::u64 p99 = 0;
  xbase::u64 p999 = 0;
  xbase::u64 max = 0;
  xbase::usize samples = 0;
};

struct TrafficReport {
  bool ok = false;
  std::string failure;  // which end-of-run invariant broke

  // Event mix actually generated (sums to TrafficConfig::events).
  xbase::u64 packet_events = 0;
  xbase::u64 sched_events = 0;
  xbase::u64 lsm_events = 0;
  xbase::u64 churn_events = 0;

  xbase::u64 lsm_denies = 0;          // fail-closed verdicts observed
  xbase::u64 packet_count_sum = 0;    // per-CPU map sum; == packet_events

  // Aggregate throughput in simulated time: events / (max over CPUs of
  // that CPU's clock advance). Wall time is reported informationally —
  // the simulation's own clocks are the noise-free scaling metric.
  xbase::u64 sim_elapsed_ns = 0;
  xbase::u64 wall_elapsed_ns = 0;
  double events_per_sim_ms = 0;

  LatencyTailsNs fire_latency;        // merged across CPUs
  std::vector<TrafficCpuStats> per_cpu;
  simkern::LockStats lock_totals;     // spin/hold contention, machine-wide
  // Writer traffic on the host locks of the tables every fire reads.
  xbase::RwLockStats memory_table_lock;
  xbase::RwLockStats map_table_lock;
  xbase::RwLockStats hook_table_lock;
};

TrafficReport RunTraffic(const TrafficConfig& config);

}  // namespace analysis
