// What every storm shares. chaos, schedstorm and trafficgen each drive a
// supervised stack with their own corpus and dice; the rig they drive, the
// survival check they assert, the round-robin fault toggler, the all-CPU
// clock advance, the signed-artifact and map builders, the closing tallies
// and the op loop that checks survival after every op live here, once.
// stormmain.h is the other half of the kit: the CLI driver around a run.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/artifact.h"
#include "src/core/system.h"
#include "src/ebpf/fault.h"
#include "src/ebpf/map.h"
#include "src/simkern/object.h"
#include "src/simkern/version.h"

namespace analysis::storm {

// The tallies every storm closes with; a storm's stats extend them.
struct Stats {
  xbase::u64 ops_executed = 0;
  xbase::u64 attaches = 0;
  xbase::u64 detaches = 0;
  xbase::u64 fault_toggles = 0;
  xbase::usize faults_ever_injected = 0;  // distinct defects enabled
  xbase::u64 oopses_contained = 0;
  xbase::u64 supervisor_failures = 0;
  xbase::u64 supervisor_trips = 0;
  xbase::u64 supervisor_evictions = 0;
  xbase::u64 supervisor_readmissions = 0;
  xbase::u64 final_sim_time_ns = 0;
};

// The supervised stack over a kernel with exactly `cpus` CPUs and
// unprivileged BPF allowed. Its CPU pool runs when cpus > 1.
class Rig : public safex::System {
 public:
  Rig(simkern::KernelVersion version, xbase::u32 cpus);
  // Joins the CPU threads before the stack they ran on goes away.
  ~Rig() { kernel.StopCpus(); }

  // The survival check, machine-wide: "" when the kernel runs, no CPU
  // holds an RCU reader or a lock, no RCU stall was recorded, no refcount
  // is above the baseline and the supervisor is consistent; otherwise the
  // first of those that fails. Call it only when no CPU is running work.
  std::string Check();
  // Takes the refcount baseline Check compares against: what is live now
  // is not a leak.
  void Rebaseline();
  // Moves every CPU's clock by `delta_ns`, as a global timer would.
  void AdvanceClocks(xbase::u64 delta_ns);

  // One op: it acts, names itself in `desc`, and returns what broke that
  // only the storm can see ("" when nothing did).
  using Step = std::function<std::string(std::string& desc)>;
  // Takes the baseline, then runs up to `ops` steps, counting each and
  // checking survival after it, and fills the closing tallies. Returns ""
  // or the first failure as "op N (desc): why".
  std::string RunOps(xbase::u64 ops, Stats& stats, const Step& step);

 private:
  simkern::RefcountSnapshot baseline_;
};

// Flips `ids` round-robin, so the first pass injects every one of them.
class FaultToggler {
 public:
  FaultToggler(ebpf::FaultRegistry& faults, std::vector<std::string_view> ids,
               Stats& stats)
      : faults_(faults), ids_(std::move(ids)), stats_(stats) {}

  // Flips the next defect and says which: "fault inject X" or
  // "fault clear X".
  std::string Toggle();

 private:
  ebpf::FaultRegistry& faults_;
  std::vector<std::string_view> ids_;
  Stats& stats_;
  xbase::usize cursor_ = 0;
  std::set<std::string_view> ever_injected_;
};

// An artifact named `name`, version 1, signed with `key`; the vendor key
// every System enrolls by default.
xbase::Result<safex::SignedArtifact> SignArtifact(
    std::string name, safex::ExtensionFactory factory,
    const crypto::SigningKey& key = safex::System::VendorKey());

// A map with 4-byte keys; its fd, or -1.
int MustMap(safex::System& rig, ebpf::MapType type, const char* name,
            xbase::u32 value_size, xbase::u32 entries);

}  // namespace analysis::storm
