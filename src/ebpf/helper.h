// Helper function registry. A helper is a normal kernel function exposed to
// BPF programs: it has (a) an argument/return specification the verifier
// enforces at the call site, (b) an implementation that runs against the
// simulated kernel, (c) the kernel version that introduced it (Figure 4
// census), and (d) an entry point in the kernel call graph (Figure 3
// complexity measurement). The specification is shallow by design — that
// shallowness is the paper's §2.2 point: the verifier checks that an
// argument *is* a pointer to N readable bytes, never what is *inside*.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/ebpf/fault.h"
#include "src/ebpf/map.h"
#include "src/ebpf/prog.h"
#include "src/simkern/kernel.h"
#include "src/xbase/status.h"

namespace ebpf {

// Argument classes, mirroring the kernel's bpf_arg_type.
enum class ArgType : u8 {
  kNone = 0,
  kAnything,       // any initialized value
  kConstMapPtr,    // must be a ld_imm64 map reference
  kMapKey,         // pointer to key_size readable bytes
  kMapValue,       // pointer to value_size readable bytes
  kPtrToMem,       // pointer to readable bytes, size in the next arg
  kPtrToUninitMem, // pointer to writable bytes, size in the next arg
  kMemSize,        // byte count for the preceding pointer
  kCtx,            // the program context pointer
  kScalar,         // any scalar (non-pointer)
  kSock,           // socket obtained from an acquiring helper
  kTask,           // task_struct pointer
  kSpinLock,       // pointer to a map value holding a spin lock
  kFunc,           // callback reference (bpf_loop)
};

enum class RetType : u8 {
  kInteger = 0,
  kVoid,
  kMapValueOrNull,
  kSockOrNull,
  kTaskOrNull,
  kMemOrNull,
};

// Helper families gate which program types may call a helper. This is the
// privilege model of the scheduler and LSM hook families: scheduler
// helpers mutate the runqueue, so only sched_ext programs (attachable by
// privileged loaders only) may call them — and a sched_ext program has no
// packet, so the net family is off limits to it. LSM helpers read the
// access-control decision context and emit audit state, so only lsm
// programs (also privileged-only) may call them.
enum class HelperFamily : u8 {
  kGeneric,  // callable from any program type
  kNet,      // packet/socket helpers: not callable from sched_ext/lsm
  kSched,    // runqueue helpers: callable only from sched_ext
  kLsm,      // access-control helpers: callable only from lsm programs
};

std::string_view HelperFamilyName(HelperFamily family);

// The declared access-control contract, stated once and consumed by every
// enforcement layer (verifier gate, runtime dispatch gate) and by the
// permcheck census that model-checks those layers against it. A layer that
// disagrees with these predicates has dropped a permission check.
//
// Which program types a family admits: kGeneric admits all; kNet admits
// everything except the decision-maker families (sched_ext, lsm); kSched
// admits only sched_ext; kLsm admits only lsm.
bool FamilyAdmitsProgType(HelperFamily family, ProgType type);
// Whether loading a program of `type` requires a privileged loader
// regardless of the unprivileged-bpf sysctl (sched_ext picks every task's
// CPU; lsm decides every access): the loader-layer half of the contract.
bool ProgTypeRequiresPrivilege(ProgType type);
// The single program type a restricted family admits (kSched -> sched_ext,
// kLsm -> lsm); used for witness synthesis and gate messages. Generic/net
// families return the neutral kSocketFilter.
ProgType AdmittingProgType(HelperFamily family);

// Runtime services helpers need from the executor. Implemented by the
// interpreter; null when a helper is unit-tested in isolation.
class RuntimeHooks {
 public:
  virtual ~RuntimeHooks() = default;
  // Runs a callback subprogram (bpf_loop, bpf_for_each_map_elem).
  virtual xbase::Result<u64> InvokeCallback(u32 entry_pc, u64 arg1,
                                            u64 arg2) = 0;
  // Requests a tail call into the loaded program with this id; takes effect
  // when the current helper returns.
  virtual xbase::Status RequestTailCall(u32 prog_id) = 0;
  // Charges simulated time (helpers with real work charge more).
  virtual void Charge(u64 ns) = 0;
  // The context address the program was invoked with.
  virtual simkern::Addr ctx_addr() const = 0;
};

struct HelperCtx {
  simkern::Kernel& kernel;
  MapTable& maps;
  FaultRegistry& faults;
  RuntimeHooks* hooks = nullptr;  // may be null outside program execution
};

using HelperArgs = std::array<u64, 5>;
using HelperFn =
    std::function<xbase::Result<u64>(HelperCtx&, const HelperArgs&)>;

struct HelperSpec {
  u32 id = 0;
  std::string name;
  simkern::KernelVersion introduced;
  std::array<ArgType, 5> args = {ArgType::kNone, ArgType::kNone,
                                 ArgType::kNone, ArgType::kNone,
                                 ArgType::kNone};
  RetType ret = RetType::kInteger;
  bool acquires_ref = false;   // returned object carries a reference
  int releases_ref_arg = 0;    // 1-based arg index releasing a reference
  bool gpl_only = false;
  bool changes_packet_data = false;
  // Capability bit: true when the helper mutates kernel or shared state
  // (maps, runqueue, audit log) rather than only reading it. Census
  // severity metadata: a missing permission check in front of a writing
  // helper is a worse gap than one in front of a pure reader.
  bool writes_state = false;
  HelperFamily family = HelperFamily::kGeneric;
  std::string entry_func;      // call-graph node of the implementation
  u64 cost_ns = simkern::kCostHelperCallNs;

  int arg_count() const {
    int count = 0;
    for (ArgType arg : args) {
      if (arg != ArgType::kNone) {
        ++count;
      }
    }
    return count;
  }
};

// Real Linux helper ids for the helpers this kernel implements.
enum HelperId : u32 {
  kHelperMapLookupElem = 1,
  kHelperMapUpdateElem = 2,
  kHelperMapDeleteElem = 3,
  kHelperProbeRead = 4,
  kHelperKtimeGetNs = 5,
  kHelperTracePrintk = 6,
  kHelperGetPrandomU32 = 7,
  kHelperGetSmpProcessorId = 8,
  kHelperSkbStoreBytes = 9,
  kHelperL3CsumReplace = 10,
  kHelperL4CsumReplace = 11,
  kHelperTailCall = 12,
  kHelperCloneRedirect = 13,
  kHelperGetCurrentPidTgid = 14,
  kHelperGetCurrentUidGid = 15,
  kHelperGetCurrentComm = 16,
  kHelperGetCgroupClassid = 17,
  kHelperSkbVlanPush = 18,
  kHelperSkbVlanPop = 19,
  kHelperSkbGetTunnelKey = 20,
  kHelperSkbSetTunnelKey = 21,
  kHelperPerfEventRead = 22,
  kHelperRedirect = 23,
  kHelperGetRouteRealm = 24,
  kHelperPerfEventOutput = 25,
  kHelperSkbLoadBytes = 26,
  kHelperGetStackid = 27,
  kHelperCsumDiff = 28,
  kHelperSkbChangeProto = 31,
  kHelperSkbChangeType = 32,
  kHelperSkbUnderCgroup = 33,
  kHelperGetHashRecalc = 34,
  kHelperGetCurrentTask = 35,
  kHelperProbeWriteUser = 36,
  kHelperCurrentTaskUnderCgroup = 37,
  kHelperSkbChangeTail = 38,
  kHelperSkbPullData = 39,
  kHelperGetNumaNodeId = 42,
  kHelperXdpAdjustHead = 44,
  kHelperProbeReadStr = 45,
  kHelperGetSocketCookie = 46,
  kHelperGetSocketUid = 47,
  kHelperSetHash = 48,
  kHelperSetsockopt = 49,
  kHelperSkbAdjustRoom = 50,
  kHelperXdpAdjustMeta = 54,
  kHelperPerfEventReadValue = 55,
  kHelperGetStack = 67,
  kHelperFibLookup = 69,
  kHelperSkLookupTcp = 84,
  kHelperSkLookupUdp = 85,
  kHelperSkRelease = 86,
  kHelperMapPushElem = 87,
  kHelperMapPopElem = 88,
  kHelperSpinLock = 93,
  kHelperSpinUnlock = 94,
  kHelperStrtol = 105,
  kHelperStrtoul = 106,
  kHelperSkStorageGet = 107,
  kHelperSendSignal = 109,
  kHelperKtimeGetBootNs = 125,
  kHelperRingbufOutput = 130,
  kHelperRingbufReserve = 131,
  kHelperRingbufSubmit = 132,
  kHelperRingbufDiscard = 133,
  kHelperCsumLevel = 135,
  kHelperGetTaskStack = 141,
  kHelperSnprintf = 165,
  kHelperTaskStorageGet = 156,
  kHelperTaskStorageDelete = 157,
  kHelperGetCurrentTaskBtf = 158,
  kHelperSysBpf = 166,
  kHelperFindVma = 180,
  kHelperLoop = 181,
  kHelperStrncmp = 182,
  kHelperKtimeGetTaiNs = 208,
  kHelperUserRingbufDrain = 209,
  kHelperCgrpStorageGet = 210,
  // Scheduler family (v6.12 sched_ext). Real kernels expose these as
  // kfuncs rather than numbered helpers; we model them as a versioned
  // helper family, numbered above the real-Linux id range.
  kHelperSchedNrRunnable = 230,
  kHelperSchedPeekPid = 231,
  kHelperSchedWaitNs = 232,
  kHelperSchedEnqueue = 233,
  kHelperSchedDequeue = 234,
  kHelperSchedPickDefault = 235,
  kHelperSchedYield = 236,
  // LSM family (v6.12). Access-control helpers for lsm programs deciding
  // file-open verdicts; numbered above the sched family.
  kHelperLsmInodeId = 240,
  kHelperLsmOpenFlags = 241,
  kHelperLsmCurrentUid = 242,
  kHelperLsmReadPath = 243,
  kHelperLsmAudit = 244,
  kHelperLsmRatelimit = 245,
};

// bpf_sys_bpf sub-commands (subset).
inline constexpr u32 kSysBpfMapCreate = 0;
inline constexpr u32 kSysBpfProgLoad = 5;
// Layout of the attr union passed to bpf_sys_bpf for kSysBpfProgLoad:
// offset 0: u32 prog_type; offset 8: u64 pointer to instruction buffer.
// The pointer inside the union is exactly what the verifier cannot see.
inline constexpr u32 kSysBpfAttrInsnsPtrOff = 8;

class HelperRegistry {
 public:
  xbase::Status Register(HelperSpec spec, HelperFn fn);

  xbase::Result<const HelperSpec*> FindSpec(u32 id) const;
  xbase::Result<const HelperFn*> FindFn(u32 id) const;

  // All registered helpers ordered by id.
  std::vector<const HelperSpec*> AllSpecs() const;
  // Number available at a given kernel version (Figure 4 series).
  xbase::usize CountAtVersion(simkern::KernelVersion version) const;

  // Registry-wide consistency assert, run at kernel construction: every
  // helper has a unique id (Register enforces), a non-empty unique name, a
  // known family, a non-zero introduction version, an entry function, and
  // a gap-free argument spec (no argument after the first kNone). Catches
  // silent table drift when a new family is wired in.
  xbase::Status Validate() const;

 private:
  struct Entry {
    HelperSpec spec;
    HelperFn fn;
  };
  std::map<u32, Entry> helpers_;
};

// Registers the full default helper suite into `registry`, wiring entry
// points and call edges into `kernel`'s call graph.
xbase::Status RegisterDefaultHelpers(HelperRegistry& registry,
                                     simkern::Kernel& kernel);

}  // namespace ebpf
