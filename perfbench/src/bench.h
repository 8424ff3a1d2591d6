// Shared pieces of the workloads: what a run is asked to do and what it
// reports, the system every workload assembles, and the helpers that time
// calls into the layers from outside.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/hooks.h"
#include "src/core/loader.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/loader.h"
#include "src/histogram.h"
#include "src/trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory the traced run writes its span file into.
  std::string trace_dir = ".";
  // A FaultRegistry defect injected after set-up (self-test only).
  std::string inject_fault;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log

  // Metrics by name. Every run fills the end-to-end ones; a traced run
  // also fills the per-layer ones. A per-layer metric the workload does
  // not exercise stays absent and prints as 0.
  std::map<std::string, double> metrics;
  // The workload's own view, under the names of its layer: printed as
  // human-readable lines, not in the result object.
  std::vector<std::string> notes;

  // One failed operation or end-of-run check.
  void Fail(const std::string& why);
  void Note(const std::string& name, double value, const char* unit);
  bool correct() const { return failed == 0; }
};

// The q-quantile of `samples`, interpolated between the two nearest.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

// A measured run cut into equal time windows: each workload reports the
// median of the per-window figures, so a burst of host noise moves few
// windows instead of the whole result.
class Windows {
 public:
  Windows(double seconds, int count)
      : window_ns_(static_cast<std::uint64_t>(seconds * 1e9 / count)) {}

  // Starts a window (again after time spent outside the measurement).
  void Start() { start_ns_ = NowNs(); }
  bool Due() const { return NowNs() - start_ns_ >= window_ns_; }
  std::uint64_t elapsed_ns() const { return NowNs() - start_ns_; }
  // Closes the current window with its throughput (operations per second)
  // and its operations' latencies (ns).
  void Close(double rate, const Histogram& latencies);

  double rate() const { return Median(rates_); }
  double p50() const { return Median(p50s_); }
  double p99() const { return Median(p99s_); }
  std::size_t count() const { return rates_.size(); }

 private:
  std::uint64_t window_ns_;
  std::uint64_t start_ns_ = 0;
  std::vector<double> rates_;
  std::vector<double> p50s_;
  std::vector<double> p99s_;
};

std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));
double PeakRssMb();

// Set-up time is sampled across the whole run, one full set-up (and
// tear-down) of the workload's system between measurement windows.
// `setup_s` is the fastest of the samples: a set-up that meets a busy host
// is slower, never faster, so the minimum is the steadiest figure.
inline constexpr int kWindows = 20;

// The one assembly both workloads use: kernel, eBPF stack, safex runtime
// with an enrolled and sealed vendor key, both loaders, the supervisor and
// the hook registry. `error` is non-empty when any step failed.
struct System {
  explicit System(std::uint32_t cpus);

  simkern::Kernel kernel;
  ebpf::Bpf bpf;
  ebpf::Loader loader;
  std::unique_ptr<safex::Runtime> runtime;
  std::unique_ptr<crypto::SigningKey> key;
  std::unique_ptr<safex::ExtLoader> ext_loader;
  std::unique_ptr<safex::Supervisor> supervisor;
  std::unique_ptr<safex::HookRegistry> hooks;
  std::string error;
};

// One attachment as the benchmark made it.
struct Attached {
  std::uint32_t attachment_id = 0;
  bool is_safex = false;
  std::uint32_t target_id = 0;
};

// Engine work seen by replayed executions.
struct EngineTally {
  std::uint64_t execs = 0;
  std::uint64_t insns = 0;
  std::uint64_t exec_ns = 0;
  void Merge(const EngineTally& other) {
    execs += other.execs;
    insns += other.insns;
    exec_ns += other.exec_ns;
  }
};

// Verifier and JIT work of the programs the benchmark prepared itself.
struct ProgramTally {
  std::uint64_t verified = 0;
  std::uint64_t insns_processed = 0;
  std::uint64_t states_explored = 0;
  std::uint64_t states_pruned = 0;
  std::uint64_t checks_elided = 0;
  std::uint64_t superblocks = 0;
};

// Loader::Prepare then Loader::Install, each in a span; the stage times
// Prepare reports become the prepare span's children.
xbase::Result<std::uint32_t> LoadProgram(System& sys,
                                         const ebpf::Program& prog,
                                         const ebpf::LoadOptions& options,
                                         Tracer* tracer, std::uint64_t request,
                                         ProgramTally& tally);

// Decomposes a fire from outside: calls what HookRegistry::FireInto calls
// for each attachment, in the same order and on the same context —
// Supervisor::Admit, Loader::Find, ebpf::Execute or ExtLoader::Invoke,
// Supervisor::RecordSuccess — each in a span whose parent is `fire`.
// Returns false (with `error`) when a replayed call fails.
bool ReplayFire(System& sys, const std::vector<Attached>& attached,
                safex::HookPoint hook, simkern::Addr ctx, Span& fire,
                Tracer* tracer, std::size_t slot, std::uint64_t request,
                EngineTally& engine, std::string* error);

// Per-layer metrics derived the same way on every workload: span medians,
// per-layer self time per operation (`ops` operations ran traced), engine
// and verifier tallies.
void AddLayerMetrics(const Tracer& tracer, std::uint64_t ops,
                     const EngineTally& engine, const ProgramTally& programs,
                     RunResult& result);

void RunDatapath(const RunConfig& config, std::uint32_t cpus,
                 RunResult& result);
void RunAdmitMixed(const RunConfig& config, RunResult& result);

}  // namespace perfbench
