// Internal plumbing shared by the helper implementation files. Not part of
// the public surface; include only from src/ebpf/helpers_*.cc.
#pragma once

#include <memory>
#include <mutex>

#include "src/ebpf/helper.h"
#include "src/ebpf/runtime.h"
#include "src/simkern/kernel.h"
#include "src/xbase/rand.h"

namespace ebpf {

// Mutable state shared across helper invocations of one kernel instance.
// `mu` guards every field: helpers fire concurrently from all simulated
// CPUs once Kernel::StartCpus has run.
struct HelperState {
  std::mutex mu;
  xbase::Rng rng{0x5eed5eedULL};
  // bpf_spin_lock addresses -> simkern lock identities, created on first
  // acquire of each distinct lock address.
  std::map<simkern::Addr, simkern::LockId> lock_ids;
  // perf_event_output sink: (cpu, payload) records for tests to inspect.
  std::vector<std::vector<u8>> perf_events;
  // bpf_lsm_audit sink: raw audit records for tests to inspect (bounded;
  // oldest dropped first).
  std::vector<std::vector<u8>> lsm_audit;
  // bpf_lsm_ratelimit token buckets, keyed by the program-chosen key.
  std::map<u64, u64> lsm_buckets;
};

struct HelperWiring {
  HelperRegistry& registry;
  simkern::Kernel& kernel;
  std::shared_ptr<HelperState> state;
};

// Registration units (one per implementation file).
xbase::Status RegisterCoreHelpers(HelperWiring& wiring);
xbase::Status RegisterNetHelpers(HelperWiring& wiring);
xbase::Status RegisterSchedHelpers(HelperWiring& wiring);
xbase::Status RegisterLsmHelpers(HelperWiring& wiring);

// Shared utilities -----------------------------------------------------------

// Links a helper's entry function into the kernel call graph: creates the
// entry node and an edge to the subsystem node simkern::SubsystemEntry
// picks. `links` pairs are (subsystem, reach); a reach of 0 or an unknown
// subsystem adds no edge.
void LinkHelperCallGraph(simkern::Kernel& kernel, const std::string& entry,
                         std::initializer_list<std::pair<const char*,
                                                         xbase::usize>>
                             links);

// Memory convenience wrappers: checked accesses on behalf of the running
// extension (key 0 = kernel default domain).
xbase::Result<std::vector<u8>> ReadMem(simkern::Kernel& kernel,
                                       simkern::Addr addr, xbase::usize size);
xbase::Status WriteMem(simkern::Kernel& kernel, simkern::Addr addr,
                       std::span<const u8> data);

// Resolves a map-handle argument to the Map object.
xbase::Result<Map*> ResolveMapArg(HelperCtx& ctx, u64 arg);

}  // namespace ebpf
