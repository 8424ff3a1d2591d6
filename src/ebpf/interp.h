// The BPF executor: interprets a loaded program image against the simulated
// kernel. Runs inside an RCU read-side critical section like the real
// dispatcher, charges simulated time per instruction and helper, and — this
// is the point the paper's §2.2 termination demonstration rests on — has
// *no* runtime termination mechanism of its own. The only cap an execution
// can carry is the harness-level `max_insns` safety net, which models
// nothing in the kernel and is set enormous by default.
#pragma once

#include <vector>

#include "src/ebpf/loader.h"
#include "src/ebpf/runtime.h"

namespace ebpf {

// Observes every interpreted instruction *before* it executes: pc is the
// index into the running image and regs the live register file of the
// executing frame. Used by analysis/rangefuzz to check concrete register
// values against static range claims.
class InsnTracer {
 public:
  virtual ~InsnTracer() = default;
  virtual void OnInsn(u32 pc, const u64* regs) = 0;
};

// Which executor runs the image. kThreaded is the production engine:
// computed-goto threaded dispatch over the pre-decoded micro-ops the JIT
// lowered. kLegacy is the original decode-per-step
// interpreter, kept selectable so the differential tests and
// bench/dispatch_hotpath can prove the engines observationally identical
// and measure the gap.
enum class ExecEngine {
  kThreaded,
  kLegacy,
};

struct ExecOptions {
  // Harness safety net (NOT a kernel mechanism): abort after this many
  // interpreted instructions. Defaults high enough that every legitimate
  // experiment completes.
  u64 max_insns = 1ULL << 34;
  // Simulated-time multiplier per charge; lets the long-running experiments
  // compress wall-clock while keeping simulated time honest (documented in
  // EXPERIMENTS.md).
  u64 cost_multiplier = 1;
  // Optional per-instruction observer (not owned; may be null).
  InsnTracer* tracer = nullptr;
  // Executor selection (see ExecEngine).
  ExecEngine engine = ExecEngine::kThreaded;
};

struct ExecStats {
  u64 insns = 0;
  u64 helper_calls = 0;
  u64 sim_time_charged_ns = 0;
  u32 tail_calls = 0;
  u32 max_frame_depth = 0;
};

struct ExecResult {
  u64 r0 = 0;
  ExecStats stats;
};

// Executes `prog` with r1 = ctx_addr. `loader` resolves tail-call targets
// (may be null if the program cannot tail-call). Any kernel fault aborts
// execution with the fault status after the oops is recorded. `prog` must
// carry the decoded image of its `image` (the loader's JIT lowers it; a
// hand-built program calls DecodeProgram); a program with instructions but
// no decoded image is refused with FailedPrecondition before it runs.
xbase::Result<ExecResult> Execute(Bpf& bpf, const LoadedProgram& prog,
                                  simkern::Addr ctx_addr,
                                  const ExecOptions& options = {},
                                  const Loader* loader = nullptr);

}  // namespace ebpf
