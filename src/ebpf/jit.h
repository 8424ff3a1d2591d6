// The "JIT": the post-verification translation pass that produces the image
// the kernel actually executes. In this simulation the image is another
// instruction vector plus its lowered DecodedImage form (dense micro-ops
// with pre-resolved operands, targets and call sites — see decoded.h),
// which preserves the property the paper leans on: the JIT runs *after*
// the verifier, so a JIT bug invalidates everything the verifier proved.
// CVE-2021-29154 — a miscomputed branch displacement — is modelled as an
// injectable off-by-one on long branches, applied before lowering so the
// corrupted displacement becomes a corrupted pre-relocated target.
#pragma once

#include "src/ebpf/decoded.h"
#include "src/ebpf/fault.h"
#include "src/ebpf/kfunc.h"
#include "src/ebpf/prog.h"
#include "src/ebpf/rangetrace.h"
#include "src/xbase/status.h"

namespace ebpf {

struct JitStats {
  u32 insns_translated = 0;
  u32 branches_relocated = 0;
  u32 branches_corrupted = 0;  // nonzero only under jit.branch_off_by_one
  u32 micro_ops = 0;           // lowered slots (1:1 with image insns)
  u32 call_sites_resolved = 0; // helper/kfunc fns bound at lowering time
  u32 call_sites_gate_denied = 0;  // failed the dispatch contract re-check
  u32 checks_elided = 0;  // memory micro-ops lowered without bounds checks
  u32 pairs_fused = 0;    // adjacent micro-op pairs fused into superops
  u32 superblocks = 0;    // straight-line runs lowered to entry-charged blocks
};

// The static analyses' per-pc memory-safety proofs, consumed at lowering
// time. Elision is fail-closed: a memory micro-op only loses its runtime
// bounds check when the verifier trace has a proven claim at its pc AND —
// if a staticcheck trace is supplied (the loader's prepass, defense in
// depth) — staticcheck agrees. Null traces or missing/unproven claims
// keep every check. Non-null claims also turn on superblocks and pair
// fusion; with `claims == nullptr` (every non-loader caller) lowering is
// byte-identical to the pre-elision JIT.
struct JitClaims {
  const RangeTrace* verifier = nullptr;
  const RangeTrace* staticcheck = nullptr;
};

struct JitImage {
  Program image;
  DecodedImage decoded;
  JitStats stats;
};

// Lowers a finalized image into the micro-op form the threaded engine
// executes. Purely per-slot: each MicroOp encodes exactly what the legacy
// interpreter's decode would do if pc landed on that slot, so the two
// engines stay observationally identical even on corrupted control flow.
// The registries are optional; without them call sites resolve lazily at
// run time. When `gate_version` is given, every helper call site is
// re-checked against the declared contract (family admits image.type,
// helper introduced by the gate version) and marked gate_denied on
// failure — the runtime's independent access-control layer. `faults`
// carries the dispatch-layer defect that skips this re-check.
DecodedImage DecodeProgram(const Program& image,
                           const HelperRegistry* helpers,
                           const KfuncRegistry* kfuncs,
                           JitStats* stats = nullptr,
                           const simkern::KernelVersion* gate_version =
                               nullptr,
                           const FaultRegistry* faults = nullptr,
                           const JitClaims* claims = nullptr);

// Translates a verified program into an executable image (branch
// relocation/corruption, then lowering). `gate_version` is the version the
// program was verified against; the Loader always passes it, so dispatch
// gating is on for every loaded program.
xbase::Result<JitImage> JitCompile(const Program& prog,
                                   const FaultRegistry& faults,
                                   const HelperRegistry* helpers = nullptr,
                                   const KfuncRegistry* kfuncs = nullptr,
                                   const simkern::KernelVersion*
                                       gate_version = nullptr,
                                   const JitClaims* claims = nullptr);

}  // namespace ebpf
