// The load path: what the bpf(2) syscall does with BPF_PROG_LOAD. A program
// submitted here is verified (per the kernel's version and the caller's
// privilege), JIT-translated, and stored for attachment/tail calls. This is
// the half of Figure 1 the paper wants to retire.
//
// The path is split in two so the concurrent admission pipeline
// (src/service) can run the expensive half off-thread:
//
//   Prepare  — privilege gate, optional staticcheck prepass, verifier, JIT.
//              Const: touches only the Bpf registries, safe to run from many
//              threads at once (the fault registry is internally locked).
//   Install  — registers the prepared program, as it is, under a fresh id
//              in the id-and-pin table (xbase::IdTable) that safex::ExtLoader
//              uses too. Cheap, internally locked.
//
// Load() is Prepare + Install and keeps the original synchronous contract.
#pragma once

#include <optional>
#include <vector>

#include "src/ebpf/bpf.h"
#include "src/ebpf/jit.h"
#include "src/ebpf/verifier.h"
#include "src/staticcheck/check.h"
#include "src/xbase/ids.h"

namespace ebpf {

struct LoadOptions {
  bool privileged = true;
  // Verify as a different kernel version than the host kernel (tests only);
  // unset means kernel.version().
  std::optional<simkern::KernelVersion> version_override;
  // Also run the verifier-independent staticcheck analysis before the
  // verifier and reject programs with error-severity findings. Off by
  // default (the kernel trusts only its verifier); the in-tree tests and
  // tools/xcheck turn it on.
  bool staticcheck_prepass = false;
  // Consumed by service::AdmissionService::Load — true returns an
  // unresolved ticket immediately, false blocks for the verdict. The
  // synchronous Loader::Load path ignores it.
  bool async = false;
  // Let the JIT lower away runtime bounds checks (and fuse micro-op pairs
  // and build superblocks) for memory accesses the admission analyses proved
  // in bounds. Fail-closed: the lowering only elides where a claim exists
  // and is proven; with this off every access keeps its check and no claim
  // trace is recorded. service::AdmissionService ignores the flag and always
  // prepares with it off: its verdict cache keeps no analysis claims, so a
  // cache hit could not elide, and a miss installs the lowering Prepare made.
  bool elide_checks = true;
};

// The outcome of the fallible admission stages, ready to register.
struct PreparedLoad {
  Program source;        // as submitted
  Program image;         // as executed (post-JIT)
  DecodedImage decoded;  // lowered micro-op form of `image` (threaded engine)
  VerifyResult verify;
  JitStats jit;
};

// A registered program: its prepared load, unchanged, plus its id.
struct LoadedProgram : PreparedLoad {
  u32 id = 0;
  // Live hook attachments referencing this id; Unload refuses while > 0.
  u32 attach_count = 0;
};

// Per-stage wall-clock breakdown of Prepare (filled when requested by the
// admission pipeline's metrics).
struct PrepareTimes {
  u64 prepass_ns = 0;
  u64 verify_ns = 0;
  u64 jit_ns = 0;
  bool prepass_ran = false;
};

// Admission decision for a staticcheck prepass report. Rejects whenever the
// report counts any error — even if no finding in the list carries
// Severity::kError (an inconsistent Report must fail closed, not slip past
// the gate). Exposed as a free function so tests can feed it exactly that
// inconsistent shape.
xbase::Status StaticcheckGate(xbase::usize error_count,
                              const std::vector<staticcheck::Finding>& findings);

class Loader {
 public:
  explicit Loader(Bpf& bpf) : bpf_(bpf) {}

  // Full load path. Returns the program id, or the verifier/permission
  // failure.
  xbase::Result<u32> Load(const Program& prog, const LoadOptions& options = {});

  // The fallible, expensive stages only (no registration, no id). Safe to
  // call concurrently from admission workers.
  xbase::Result<PreparedLoad> Prepare(const Program& prog,
                                      const LoadOptions& options = {},
                                      PrepareTimes* times = nullptr) const;

  // Registers a prepared program under a fresh id (xbase::IdTable::Insert).
  xbase::Result<u32> Install(PreparedLoad prepared);

  xbase::Result<const LoadedProgram*> Find(u32 id) const;

  // Removes a loaded program (prog fd closed). Refuses with
  // FailedPrecondition while hook attachments still reference the id —
  // detach first — so a later hook fire can never dangle. Later lookups —
  // including tail calls through a stale prog-array slot — fail with
  // NotFound, matching the kernel's dead-prog behaviour.
  xbase::Status Unload(u32 id);

  // Attachment refcount: HookRegistry pins a program while it is attached
  // and unpins on detach. Pin returns the pinned program, or NotFound for
  // unknown ids.
  xbase::Result<const LoadedProgram*> Pin(u32 id);
  void Unpin(u32 id);

  xbase::usize size() const;

  // Test hook for the id-wraparound regression tests: positions the
  // allocation cursor (e.g. just below the wrap point).
  void SetNextIdForTest(u32 next_id);

 private:
  Bpf& bpf_;
  xbase::IdTable<LoadedProgram> progs_{"loaded program", "prog", "program"};
};

}  // namespace ebpf
