#include "src/ebpf/loader.h"

#include <chrono>
#include <string>

#include "src/xbase/strfmt.h"

namespace ebpf {

namespace {

u64 ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - since)
                              .count());
}

}  // namespace

xbase::Status StaticcheckGate(
    xbase::usize error_count,
    const std::vector<staticcheck::Finding>& findings) {
  if (error_count == 0) {
    return xbase::Status::Ok();
  }
  for (const staticcheck::Finding& finding : findings) {
    if (finding.severity == staticcheck::Severity::kError) {
      return xbase::Rejected(xbase::StrFormat(
          "staticcheck prepass: pc %u: %s: %s", finding.pc,
          finding.rule.c_str(), finding.message.c_str()));
    }
  }
  // The report claims errors but lists none with error severity. The old
  // load path fell through here and admitted the program — a failing
  // prepass silently ignored. Fail closed instead.
  return xbase::Rejected(xbase::StrFormat(
      "staticcheck prepass: report counts %zu error(s) but lists no "
      "error-severity finding; rejecting (inconsistent report)",
      error_count));
}

xbase::Result<PreparedLoad> Loader::Prepare(const Program& prog,
                                            const LoadOptions& options,
                                            PrepareTimes* times) const {
  simkern::Kernel& kernel = bpf_.kernel();
  if (!options.privileged && kernel.config().unprivileged_bpf_disabled) {
    // The v5.15+ default the paper cites [22]: the community no longer
    // trusts the verifier enough to expose it to unprivileged users.
    return xbase::PermissionDenied(
        "unprivileged BPF is disabled (kernel.unprivileged_bpf_disabled=1)");
  }
  if (ProgTypeRequiresPrivilege(prog.type) && !options.privileged) {
    // Installing a decision-maker is a root-only operation regardless of
    // the unprivileged-bpf sysctl: a pick policy controls every task's CPU,
    // an lsm policy every open() verdict.
    return xbase::PermissionDenied(
        xbase::StrFormat("%s programs require a privileged loader",
                         ProgTypeName(prog.type).data()));
  }

  // Per-pc in-bounds claims the JIT consumes for check elision. mem_only
  // keeps the recording cheap on the load path (no per-pc register ranges,
  // just one MemClaim per instruction). Claims are AND-ed across paths and
  // fail closed: an instruction the analysis never saw keeps its check.
  RangeTrace elide_trace;
  elide_trace.mem_only = true;
  RangeTrace prepass_trace;
  prepass_trace.mem_only = true;

  if (options.staticcheck_prepass) {
    const auto prepass_start = std::chrono::steady_clock::now();
    staticcheck::CheckOptions copts;
    copts.maps = &bpf_.maps();
    copts.helpers = &bpf_.helpers();
    if (options.elide_checks) {
      copts.range_trace = &prepass_trace;
    }
    XB_ASSIGN_OR_RETURN(staticcheck::Report prepass,
                        staticcheck::RunChecks(prog, copts));
    if (times != nullptr) {
      times->prepass_ran = true;
      times->prepass_ns = ElapsedNs(prepass_start);
    }
    XB_RETURN_IF_ERROR(StaticcheckGate(prepass.errors(), prepass.findings));
  }

  VerifyOptions vopts;
  vopts.version = options.version_override.value_or(kernel.version());
  vopts.privileged = options.privileged;
  vopts.faults = &bpf_.faults();
  vopts.kfuncs = &bpf_.kfuncs();
  if (options.elide_checks) {
    vopts.range_trace = &elide_trace;
  }

  const auto verify_start = std::chrono::steady_clock::now();
  XB_ASSIGN_OR_RETURN(VerifyResult verify,
                      Verify(prog, bpf_.maps(), bpf_.helpers(), vopts));
  if (times != nullptr) {
    times->verify_ns = ElapsedNs(verify_start);
  }

  const auto jit_start = std::chrono::steady_clock::now();
  // The lowering re-checks every helper call site against the contract at
  // the same version the verifier used — independent enforcement, so a
  // gate the verifier dropped still denies at dispatch.
  // Elision requires the verifier's claim; when the staticcheck prepass ran
  // it must agree (two independent provers, defense in depth).
  JitClaims jit_claims;
  jit_claims.verifier = &elide_trace;
  jit_claims.staticcheck = options.staticcheck_prepass ? &prepass_trace : nullptr;
  XB_ASSIGN_OR_RETURN(
      JitImage jit,
      JitCompile(prog, bpf_.faults(), &bpf_.helpers(), &bpf_.kfuncs(),
                 &vopts.version,
                 options.elide_checks ? &jit_claims : nullptr));
  if (times != nullptr) {
    times->jit_ns = ElapsedNs(jit_start);
  }

  PreparedLoad prepared;
  prepared.source = prog;
  prepared.image = std::move(jit.image);
  prepared.decoded = std::move(jit.decoded);
  prepared.verify = std::move(verify);
  prepared.jit = jit.stats;
  return prepared;
}

xbase::Result<u32> Loader::Install(PreparedLoad prepared) {
  const std::string name = prepared.source.name;
  const ProgType type = prepared.source.type;
  const u32 len = prepared.source.len();
  const u64 insns_processed = prepared.verify.stats.insns_processed;
  const u64 states_explored = prepared.verify.stats.states_explored;
  XB_ASSIGN_OR_RETURN(const u32 id,
                      progs_.Insert(LoadedProgram{std::move(prepared)}));
  bpf_.kernel().Printk(xbase::StrFormat(
      "bpf: prog %u (%s) loaded, type %s, %u insns, verifier processed "
      "%llu insns / %llu states",
      id, name.c_str(), ProgTypeName(type).data(), len,
      static_cast<unsigned long long>(insns_processed),
      static_cast<unsigned long long>(states_explored)));
  return id;
}

xbase::Result<u32> Loader::Load(const Program& prog,
                                const LoadOptions& options) {
  XB_ASSIGN_OR_RETURN(PreparedLoad prepared, Prepare(prog, options));
  return Install(std::move(prepared));
}

xbase::Result<const LoadedProgram*> Loader::Find(u32 id) const {
  return progs_.Find(id);
}

xbase::Status Loader::Unload(u32 id) {
  XB_RETURN_IF_ERROR(progs_.Erase(id));
  bpf_.kernel().Printk(xbase::StrFormat("bpf: prog %u unloaded", id));
  return xbase::Status::Ok();
}

xbase::Result<const LoadedProgram*> Loader::Pin(u32 id) {
  return progs_.Pin(id);
}

void Loader::Unpin(u32 id) { progs_.Unpin(id); }

xbase::usize Loader::size() const { return progs_.size(); }

void Loader::SetNextIdForTest(u32 next_id) { progs_.set_next(next_id); }

}  // namespace ebpf
