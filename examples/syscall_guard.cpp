// Syscall guard: the programmable syscall-security scenario the paper's
// intro cites ([26], eBPF-based syscall policies). A policy engine attaches
// to the syscall-enter hook and decides allow/deny per (task, syscall).
// Both frameworks are attached to the same hook; the safex variant then
// implements the part that defeats verified eBPF: a *string-typed* policy
// ("deny any comm matching a prefix list") that needs loops over text.
//
// Run: ./build/examples/syscall_guard
#include <cstdio>

#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/ebpf/asm.h"
#include "src/xbase/bytes.h"

namespace {

// Event ctx block layout for kSyscallEnter (64 bytes, written per event):
// offset 0: u32 syscall nr; offset 4: u32 pid.
constexpr xbase::u32 kCtxSyscallNr = 0;
constexpr xbase::u32 kCtxPid = 4;
constexpr xbase::u64 kEPermVerdict = 1;

// The eBPF policy: deny syscall 59 (execve) for every task. Anything
// fancier (per-comm policies) needs string handling the bytecode can't
// express without more helpers.
ebpf::Program BuildEbpfGuard() {
  using namespace ebpf;  // NOLINT
  ProgramBuilder b("execve_guard", ProgType::kSyscall);
  b.Ins(LdxMem(BPF_W, R6, R1, kCtxSyscallNr))
      .JmpTo(BPF_JEQ, R6, 59, "deny")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit())
      .Bind("deny")
      .Ins(Mov64Imm(R0, static_cast<s32>(kEPermVerdict)))
      .Ins(Exit());
  return b.Build().value();
}

// The safex policy: deny execve for tasks whose comm starts with any
// denylisted prefix — plain string code over the crate API.
class CommPolicyGuard : public safex::Extension {
 public:
  xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
    auto task = ctx.CurrentTask();
    XB_RETURN_IF_ERROR(task.status());
    static const char* kDenyPrefixes[] = {"nginx", "cryptominer"};
    for (const char* prefix : kDenyPrefixes) {
      XB_RETURN_IF_ERROR(ctx.Tick());
      const std::string_view comm = task.value().comm();
      const std::string_view want(prefix);
      if (comm.size() >= want.size() &&
          safex::Ctx::StrCmp(comm.substr(0, want.size()), want,
                             static_cast<xbase::u32>(want.size())) == 0) {
        XB_RETURN_IF_ERROR(ctx.Trace("denied syscall for " +
                                     std::string(comm)));
        return kEPermVerdict;
      }
    }
    return xbase::u64{0};
  }
};

}  // namespace

int main() {
  safex::System sys;
  simkern::Kernel& kernel = sys.kernel;
  safex::HookRegistry& hooks = *sys.hooks;

  // Attach the eBPF nr-based guard.
  const auto prog_id = sys.loader.Load(BuildEbpfGuard()).value();
  (void)hooks.AttachProgram(safex::HookPoint::kSyscallEnter, prog_id);

  // Attach the safex comm-based guard.
  safex::Toolchain toolchain(safex::System::VendorKey());
  safex::ExtensionManifest manifest;
  manifest.name = "comm-policy";
  manifest.version = "1.0";
  manifest.caps = {safex::Capability::kTaskInspect,
                   safex::Capability::kTracing};
  auto artifact =
      toolchain
          .Build(manifest,
                 []() { return std::make_unique<CommPolicyGuard>(); },
                 crypto::Sha256::HashString("comm-policy-1.0"))
          .value();
  const auto ext_id = sys.ext_loader->Load(artifact).value();
  (void)hooks.AttachExtension(safex::HookPoint::kSyscallEnter, ext_id);

  // One reusable ctx block for syscall events.
  const simkern::Addr ctx =
      kernel.mem()
          .Map(64, simkern::MemPerm::kReadWrite,
               simkern::RegionKind::kKernelData, "sys-ctx")
          .value();

  struct Event {
    xbase::u32 pid;
    xbase::u32 nr;
    const char* what;
  };
  const Event events[] = {
      {1234, 1, "memcached write()"},   // allowed by both
      {1234, 59, "memcached execve()"}, // denied by the eBPF nr guard
      {4321, 1, "nginx write()"},       // denied by the safex comm guard
      {4321, 59, "nginx execve()"},     // denied by both
      {1, 1, "init write()"},           // allowed
  };

  std::printf("%-24s %-8s %s\n", "event", "verdict", "who decided");
  safex::HookFireReport report;
  for (const Event& event : events) {
    (void)kernel.tasks().SetCurrent(kernel.current_cpu(), event.pid);
    xbase::u8 block[8];
    xbase::StoreLe32(block + kCtxSyscallNr, event.nr);
    xbase::StoreLe32(block + kCtxPid, event.pid);
    (void)kernel.mem().Write(ctx, block);

    hooks.FireInto(safex::HookPoint::kSyscallEnter, ctx, report);
    std::string who = "-";
    for (const auto& verdict : report.verdicts) {
      if (verdict.status.ok() && verdict.value != 0) {
        who = verdict.from_safex ? "safex comm policy" : "eBPF nr policy";
        break;
      }
    }
    std::printf("%-24s %-8s %s\n", event.what,
                report.denied ? "DENY" : "allow", who.c_str());
  }

  std::printf("\nnote: the per-comm policy needs string loops; in eBPF that "
              "means either bpf_strncmp (an escape-hatch helper) or manual "
              "unrolling under the verifier's limits. In safex it is five "
              "lines of the language.\n");
  return 0;
}
