// SMP SCALING — the tentpole's throughput curve. The same seeded
// mixed-tenant event stream (trafficgen: ~70% packet fires, ~10% sched
// ticks, ~10% LSM opens, ~10% map churn) runs against kernels with 1, 2,
// 4, 8 and 16 simulated CPUs, each CPU a real thread with its own clock,
// runqueue, RCU reader slot and per-CPU map slots. Aggregate throughput is
// measured in *simulated* time — events divided by the slowest CPU's clock
// advance (the makespan) — so the curve is a property of the simulated
// machine, not of how many host cores the CI runner happens to have. Wall
// time, wall-clock throughput and its speedup over the 1-CPU point, and
// wall-clock fire-latency tails (p50/p99/p999) are reported per point
// alongside it, ungated: they depend on the host's free cores.
//
// Exits nonzero if a gate fails; `--json PATH` also writes the points as
// rows of the BENCH_smp.json artifact. The gates:
//   - aggregate throughput at 4 CPUs must be >= 3.0x the 1-CPU run;
//   - the p999 fire-latency tail at the 1- and 4-CPU points must stay
//     under 5 ms (the 8/16-CPU tails are reported, not gated — on a
//     small CI host 16 worker threads legitimately preempt each other);
//   - every point's per-CPU counter sum must match its packet fire count
//     exactly (RunTraffic already fails the run otherwise).
#include <vector>

#include "bench/harness.h"
#include "src/analysis/trafficgen.h"
#include "src/xbase/strfmt.h"

namespace {

constexpr xbase::u64 kSeed = 42;
constexpr xbase::u64 kEvents = 20000;
constexpr xbase::u32 kCpuPoints[] = {1, 2, 4, 8, 16};
constexpr double kMinSpeedupAt4 = 3.0;
constexpr xbase::u64 kP999CeilingNs = 5'000'000;

struct Point {
  xbase::u32 cpus = 0;
  analysis::TrafficReport report;
  double speedup = 0;  // vs the 1-CPU point, in simulated time
  double wall_events_per_s = 0;
  double wall_speedup = 0;  // vs the 1-CPU point, in wall time
};

double SpeedupAt(const std::vector<Point>& points, xbase::u32 cpus) {
  for (const Point& point : points) {
    if (point.cpus == cpus) {
      return point.speedup;
    }
  }
  return 0;
}

bool TailGated(const Point& point) { return point.cpus <= 4; }

}  // namespace

int main(int argc, char** argv) {
  harness::Bench bench("smp_scaling", argc, argv);
  harness::Title("SMP scaling: one seeded stream, 1 -> 16 simulated CPUs");
  std::printf("  %llu mixed-tenant events per point (seed %llu); aggregate "
              "throughput in simulated time\n",
              static_cast<unsigned long long>(kEvents),
              static_cast<unsigned long long>(kSeed));
  harness::Rule();
  std::printf("  %-5s %-12s %-9s %-9s %-11s %-9s %-25s %s\n", "cpus",
              "events/simms", "speedup", "wall ms", "wall ev/s", "wall x",
              "fire p50/p99/p999 ns", "verdict");
  harness::Rule();

  std::vector<Point> points;
  int failed_points = 0;  // the verdict column says why
  double base_throughput = 0;
  double base_wall_throughput = 0;
  for (xbase::u32 cpus : kCpuPoints) {
    analysis::TrafficConfig config;
    config.seed = kSeed;
    config.events = kEvents;
    config.cpus = cpus;
    Point point;
    point.cpus = cpus;
    point.report = analysis::RunTraffic(config);
    if (point.report.wall_elapsed_ns > 0) {
      point.wall_events_per_s =
          static_cast<double>(kEvents) * 1e9 /
          static_cast<double>(point.report.wall_elapsed_ns);
    }
    if (cpus == 1) {
      base_throughput = point.report.events_per_sim_ms;
      base_wall_throughput = point.wall_events_per_s;
    }
    point.speedup = base_throughput > 0
                        ? point.report.events_per_sim_ms / base_throughput
                        : 0;
    point.wall_speedup = base_wall_throughput > 0
                             ? point.wall_events_per_s / base_wall_throughput
                             : 0;
    std::printf("  %-5u %-12.1f %-9.2f %-9.1f %-11.0f %-9.2f %-25s %s\n",
                cpus, point.report.events_per_sim_ms, point.speedup,
                static_cast<double>(point.report.wall_elapsed_ns) / 1e6,
                point.wall_events_per_s, point.wall_speedup,
                xbase::StrFormat(
                    "%llu / %llu / %llu",
                    static_cast<unsigned long long>(
                        point.report.fire_latency.p50),
                    static_cast<unsigned long long>(
                        point.report.fire_latency.p99),
                    static_cast<unsigned long long>(
                        point.report.fire_latency.p999))
                    .c_str(),
                point.report.ok ? "ok" : point.report.failure.c_str());
    const analysis::TrafficReport& report = point.report;
    xbase::u64 stolen = 0;
    for (const analysis::TrafficCpuStats& cpu : report.per_cpu) {
      stolen += cpu.stolen;
    }
    bench.Row({{"cpus", cpus},
               {"ok", report.ok},
               {"events_per_sim_ms", report.events_per_sim_ms},
               {"speedup_vs_1cpu", point.speedup},
               {"sim_makespan_ms",
                static_cast<double>(report.sim_elapsed_ns) / 1e6},
               {"wall_ms", static_cast<double>(report.wall_elapsed_ns) / 1e6},
               {"wall_events_per_s", point.wall_events_per_s},
               {"wall_speedup_vs_1cpu", point.wall_speedup},
               {"fire_p50_ns", report.fire_latency.p50},
               {"fire_p99_ns", report.fire_latency.p99},
               {"fire_p999_ns", report.fire_latency.p999},
               {"fires", report.fire_latency.samples},
               {"stolen", stolen},
               {"tail_gated", TailGated(point)}});
    failed_points += report.ok ? 0 : 1;
    points.push_back(std::move(point));
  }
  harness::Rule();
  bench.Gate("failed_points", "points", failed_points, 0, failed_points == 0);
  for (const Point& point : points) {
    if (TailGated(point)) {
      const double p999 =
          static_cast<double>(point.report.fire_latency.p999);
      bench.Gate(xbase::StrFormat("fire_p999_ns/%ucpu", point.cpus), "p999",
                 p999, static_cast<double>(kP999CeilingNs),
                 p999 <= static_cast<double>(kP999CeilingNs));
    }
  }
  const double speedup4 = SpeedupAt(points, 4);
  bench.Gate("speedup_4cpu", "sim throughput vs 1 cpu", speedup4,
             kMinSpeedupAt4, speedup4 >= kMinSpeedupAt4);
  harness::Note("throughput uses each run's slowest simulated clock as "
                "the makespan; wall time and wall speedup are informational");
  return bench.Finish();
}
