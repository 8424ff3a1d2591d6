#include "src/analysis/storm.h"

#include <span>
#include <utility>

#include "src/core/toolchain.h"
#include "src/xbase/strfmt.h"

namespace analysis::storm {

using xbase::u32;
using xbase::u64;

Rig::Rig(simkern::KernelVersion version, u32 cpus)
    : safex::System(simkern::KernelConfig{.version = version,
                                          .unprivileged_bpf_disabled = false,
                                          .num_cpus = cpus},
                    safex::SupervisorConfig{}) {
  if (!ok()) {
    return;
  }
  if (cpus > 1) {
    kernel.StartCpus();
  }
  Rebaseline();
}

std::string Rig::Check() {
  if (kernel.state() != simkern::KernelState::kRunning) {
    return "kernel not running (oopsed/panicked)";
  }
  if (kernel.rcu().AnyReader()) {
    return "RCU read-side critical section leaked";
  }
  if (!kernel.rcu().stalls().empty()) {
    return "RCU stall recorded";
  }
  if (const int held = kernel.locks().held_count_total(); held != 0) {
    return xbase::StrFormat("%d lock(s) still held", held);
  }
  const auto leaks = kernel.objects().DiffSince(baseline_);
  if (!leaks.empty()) {
    return xbase::StrFormat("%zu refcount leak(s), first: %s", leaks.size(),
                            leaks.front().name.c_str());
  }
  const xbase::Status supervisor_state =
      supervisor->CheckConsistent(kernel.clock().max_now_ns());
  return supervisor_state.ok() ? "" : supervisor_state.message();
}

void Rig::Rebaseline() { baseline_ = kernel.objects().Snapshot(); }

void Rig::AdvanceClocks(u64 delta_ns) {
  for (u32 cpu = 0; cpu < kernel.num_cpus(); ++cpu) {
    kernel.clock().Advance(cpu, delta_ns);
  }
}

std::string Rig::RunOps(u64 ops, Stats& stats, const Step& step) {
  Rebaseline();
  std::string failure;
  std::string desc;
  for (u64 op = 0; op < ops && failure.empty(); ++op) {
    std::string why = step(desc);
    ++stats.ops_executed;
    if (why.empty()) {
      why = Check();
    }
    if (!why.empty()) {
      failure = xbase::StrFormat("op %llu (%s): %s",
                                 static_cast<unsigned long long>(op),
                                 desc.c_str(), why.c_str());
    }
  }
  stats.final_sim_time_ns = kernel.clock().max_now_ns();
  stats.supervisor_failures = supervisor->failures();
  stats.supervisor_trips = supervisor->trips();
  stats.supervisor_evictions = supervisor->evictions();
  stats.supervisor_readmissions = supervisor->readmissions();
  for (const simkern::OopsRecord& oops : kernel.oopses()) {
    stats.oopses_contained += oops.recovered ? 1 : 0;
  }
  return failure;
}

std::string FaultToggler::Toggle() {
  const std::string_view id = ids_[cursor_++ % ids_.size()];
  ++stats_.fault_toggles;
  if (faults_.IsActive(id)) {
    faults_.Clear(id);
    return "fault clear " + std::string(id);
  }
  faults_.Inject(id);
  ever_injected_.insert(id);
  stats_.faults_ever_injected = ever_injected_.size();
  return "fault inject " + std::string(id);
}

xbase::Result<safex::SignedArtifact> SignArtifact(
    std::string name, safex::ExtensionFactory factory,
    const crypto::SigningKey& key) {
  safex::ExtensionManifest manifest;
  manifest.name = std::move(name);
  manifest.version = "1";
  return safex::Toolchain(key).Build(manifest, std::move(factory),
                                     std::span<const xbase::u8>());
}

int MustMap(safex::System& rig, ebpf::MapType type, const char* name,
            u32 value_size, u32 entries) {
  ebpf::MapSpec spec;
  spec.type = type;
  spec.key_size = 4;
  spec.value_size = value_size;
  spec.max_entries = entries;
  spec.name = name;
  auto fd = rig.bpf.maps().Create(spec);
  return fd.ok() ? fd.value() : -1;
}

}  // namespace analysis::storm
