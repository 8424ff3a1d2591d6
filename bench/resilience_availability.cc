// RESIL — availability under a persistent crasher. One hook carries a
// healthy policy extension and a repeat offender; the bench fires the hook
// 1000 times and measures what fraction of fires the healthy policy
// actually served *on a live kernel*, supervised vs unsupervised.
//
// Two offender flavors close the loop on the paper's argument:
//  - a signed safex extension that panics every time (the runtime contains
//    each panic; the supervisor additionally stops paying for it), and
//  - a *verifier-approved* eBPF program (the §2.2 sys_bpf union-NULL crash)
//    whose very first run oopses the kernel. Verification said yes; only
//    supervision keeps the machine up, by containing the oops, attributing
//    it to the attachment on CPU, and quarantining it.
#include "bench/harness.h"
#include "src/analysis/workloads.h"
#include "src/xbase/strfmt.h"

namespace {

constexpr int kFires = 1000;

class ConstExt : public safex::Extension {
 public:
  xbase::Result<xbase::u64> Run(safex::Ctx&) override { return xbase::u64{0}; }
};

class PanickerExt : public safex::Extension {
 public:
  xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
    ctx.Panic("persistent crasher");
    return xbase::u64{0};
  }
};

struct Outcome {
  int healthy_served_alive = 0;  // healthy policy ran OK, kernel still up
  int crasher_invocations = 0;   // how often the offender actually ran
  int crasher_skipped = 0;       // refused by quarantine/eviction
  bool kernel_survived = false;
  std::string crasher_health = "unsupervised";
};

Outcome RunScenario(bool supervised, bool bpf_crasher) {
  simkern::KernelConfig kernel_config;
  kernel_config.unprivileged_bpf_disabled = false;
  safex::System rig(kernel_config,
                    supervised ? std::optional(safex::SupervisorConfig{})
                               : std::nullopt);
  safex::HookRegistry& hooks = *rig.hooks;

  safex::Toolchain toolchain(safex::System::VendorKey());
  auto build_ext = [&toolchain](const char* name,
                                safex::ExtensionFactory factory) {
    safex::ExtensionManifest manifest;
    manifest.name = name;
    manifest.version = "1";
    return toolchain.Build(manifest, std::move(factory),
                           std::span<const xbase::u8>());
  };

  // The offender attaches first, so every fire meets it before the healthy
  // policy — the worst case for availability.
  xbase::u32 crasher_attachment = 0;
  if (bpf_crasher) {
    auto prog = analysis::BuildSysBpfNullCrash();
    const auto prog_id = rig.loader.Load(prog.value()).value();
    crasher_attachment =
        hooks.AttachProgram(safex::HookPoint::kSyscallEnter, prog_id)
            .value();
  } else {
    auto artifact = build_ext("crasher", []() {
      return std::make_unique<PanickerExt>();
    });
    const auto ext_id = rig.ext_loader->Load(artifact.value()).value();
    crasher_attachment =
        hooks.AttachExtension(safex::HookPoint::kSyscallEnter, ext_id)
            .value();
  }
  auto healthy_artifact =
      build_ext("healthy", []() { return std::make_unique<ConstExt>(); });
  const auto healthy_id =
      rig.ext_loader->Load(healthy_artifact.value()).value();
  const auto healthy_attachment =
      hooks.AttachExtension(safex::HookPoint::kSyscallEnter, healthy_id)
          .value();

  const simkern::Addr ctx = rig.kernel.mem()
                                .Map(64, simkern::MemPerm::kReadWrite,
                                     simkern::RegionKind::kKernelData,
                                     "resil-ctx")
                                .value();
  Outcome outcome;
  safex::HookFireReport report;
  for (int fire = 0; fire < kFires; ++fire) {
    hooks.FireInto(safex::HookPoint::kSyscallEnter, ctx, report);
    for (const safex::HookVerdict& verdict : report.verdicts) {
      if (verdict.attachment_id == healthy_attachment && verdict.status.ok() &&
          !rig.kernel.crashed()) {
        // Service only counts while the machine it runs on is alive.
        ++outcome.healthy_served_alive;
      }
      if (verdict.attachment_id == crasher_attachment) {
        verdict.skipped ? ++outcome.crasher_skipped
                        : ++outcome.crasher_invocations;
      }
    }
  }
  outcome.kernel_survived = !rig.kernel.crashed();
  if (supervised) {
    outcome.crasher_health =
        std::string(ExtHealthName(
            rig.supervisor->HealthOf(crasher_attachment)));
  }
  return outcome;
}

void PrintRow(const char* scenario, const Outcome& outcome) {
  std::printf("%-34s | %-8s | %6.1f%% | %6d | %7d | %s\n", scenario,
              outcome.kernel_survived ? "intact" : "CRASHED",
              100.0 * outcome.healthy_served_alive / kFires,
              outcome.crasher_invocations, outcome.crasher_skipped,
              outcome.crasher_health.c_str());
}

}  // namespace

int main() {
  harness::Title(xbase::StrFormat(
      "Availability under a persistent crasher (%d hook fires)", kFires));
  std::printf("%-34s | %-8s | %7s | %6s | %7s | %s\n", "scenario", "kernel",
              "avail", "ran", "skipped", "crasher health");
  harness::Rule(100);
  PrintRow("safex panicker, unsupervised", RunScenario(false, false));
  PrintRow("safex panicker, supervised", RunScenario(true, false));
  PrintRow("verified eBPF oops, unsupervised", RunScenario(false, true));
  PrintRow("verified eBPF oops, supervised", RunScenario(true, true));
  harness::Rule(100);
  harness::Note("avail = fires where the healthy policy served on a live "
                "kernel; ran/skipped count the offender");
  harness::Note("the eBPF offender is verifier-APPROVED (the sys_bpf "
                "union-NULL crash needs no injected defect): verification "
                "cannot keep the kernel up, supervision can");
  return 0;
}
