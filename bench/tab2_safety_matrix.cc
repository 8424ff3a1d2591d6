// TAB2 — reproduces Table 2: "Safety properties and the enforcement
// mechanisms of the proposed extension framework". Beyond printing the
// matrix, each row is demonstrated live: a hostile probe extension attempts
// the violation and the bench reports which mechanism stopped it. The
// paper's point — achieved "without restrictions on loop and program size"
// — is checked by the probes themselves being ordinary unbounded C++.
#include "bench/harness.h"
#include "src/analysis/matrix.h"
#include "src/xbase/strfmt.h"

namespace {

using safex::Capability;
using safex::Ctx;
using safex::InvokeOutcome;

class LambdaExt : public safex::Extension {
 public:
  using Body = std::function<xbase::Result<xbase::u64>(Ctx&)>;
  explicit LambdaExt(Body body) : body_(std::move(body)) {}
  xbase::Result<xbase::u64> Run(Ctx& ctx) override { return body_(ctx); }

 private:
  Body body_;
};

struct ProbeResult {
  std::string property;
  std::string mechanism_fired;
  bool contained = false;
};

ProbeResult RunProbe(const std::string& property, LambdaExt::Body body,
                     safex::CapSet caps) {
  safex::System rig;
  const int fd = harness::MustCreateArrayMap(rig, "probe", 8, 4);
  (void)fd;
  LambdaExt ext(std::move(body));
  const InvokeOutcome outcome = rig.runtime->Invoke(ext, caps, {});
  ProbeResult result;
  result.property = property;
  result.contained = !rig.kernel.crashed();
  if (outcome.panicked) {
    result.mechanism_fired = outcome.panic_reason;
  } else if (!outcome.status.ok()) {
    result.mechanism_fired = "refused: " + outcome.status.message();
  } else if (outcome.cleanup.entries_run > 0) {
    result.mechanism_fired = xbase::StrFormat(
        "cleanup registry released %u leaked resource(s)",
        outcome.cleanup.entries_run);
  } else {
    result.mechanism_fired = "no violation possible through the API";
  }
  return result;
}

// The "Fault containment / availability" row needs a hook, not a single
// invocation: a supervised registry carries a persistent panicker next to a
// healthy policy, and the row reports whether the breaker quarantined the
// offender while the healthy attachment kept serving.
ProbeResult RunContainmentProbe() {
  safex::System rig({}, safex::SupervisorConfig{});
  safex::HookRegistry& hooks = *rig.hooks;
  const safex::Supervisor& supervisor = *rig.supervisor;
  safex::Toolchain toolchain(safex::System::VendorKey());
  auto build = [&toolchain](const char* name, LambdaExt::Body body) {
    safex::ExtensionManifest manifest;
    manifest.name = name;
    manifest.version = "1";
    return toolchain.Build(
        manifest,
        [body]() { return std::make_unique<LambdaExt>(body); },
        std::span<const xbase::u8>());
  };
  auto crasher = build("crasher", [](Ctx& ctx) -> xbase::Result<xbase::u64> {
    ctx.Panic("always down");
    return xbase::u64{0};
  });
  auto healthy = build("healthy", [](Ctx&) -> xbase::Result<xbase::u64> {
    return xbase::u64{0};
  });
  const auto crasher_id = rig.ext_loader->Load(crasher.value()).value();
  const auto healthy_id = rig.ext_loader->Load(healthy.value()).value();
  const auto crasher_attachment =
      hooks.AttachExtension(safex::HookPoint::kSyscallEnter, crasher_id)
          .value();
  (void)hooks.AttachExtension(safex::HookPoint::kSyscallEnter, healthy_id);
  const simkern::Addr ctx = rig.kernel.mem()
                                .Map(64, simkern::MemPerm::kReadWrite,
                                     simkern::RegionKind::kKernelData,
                                     "tab2ctx")
                                .value();
  xbase::u32 healthy_served = 0;
  const int fires = 20;
  safex::HookFireReport report;
  for (int i = 0; i < fires; ++i) {
    hooks.FireInto(safex::HookPoint::kSyscallEnter, ctx, report);
    if (report.served > 0) {
      ++healthy_served;
    }
  }
  ProbeResult result;
  result.property = "Fault containment / availability";
  result.contained =
      !rig.kernel.crashed() &&
      supervisor.HealthOf(crasher_attachment) == safex::ExtHealth::kQuarantined &&
      healthy_served == fires;
  result.mechanism_fired = xbase::StrFormat(
      "breaker tripped after %llu failure(s): crasher %s, healthy policy "
      "served %u/%d fires",
      static_cast<unsigned long long>(supervisor.failures()),
      std::string(ExtHealthName(supervisor.HealthOf(crasher_attachment)))
          .c_str(),
      healthy_served, fires);
  return result;
}

}  // namespace

int main() {
  harness::Title("Table 2: safety properties and enforcement mechanisms");
  std::printf("%-36s %s\n", "Safety properties", "Enforcement");
  harness::Rule(64);
  for (const analysis::SafetyProperty& row : analysis::SafetyMatrix()) {
    std::printf("%-36s %s\n", row.property.c_str(),
                row.enforcement.c_str());
  }
  harness::Rule(64);

  harness::Title("Live probes (hostile extension per row)");
  std::vector<ProbeResult> probes;

  probes.push_back(RunProbe(
      "No arbitrary memory access",
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        auto map = ctx.Map(3);
        XB_RETURN_IF_ERROR(map.status());
        auto value = map.value().LookupIndex(0);
        XB_RETURN_IF_ERROR(value.status());
        // 8-byte value, read at +4096: must die before touching memory.
        return value.value().ReadU64(4096).ok() ? 1 : 0;
      },
      {Capability::kMapAccess}));

  probes.push_back(RunProbe(
      "No arbitrary control-flow transfer",
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        // There is nothing to probe: the crate has no jump primitive, no
        // function-pointer import, no way to name an address. The strongest
        // attempt is asking for memory the extension could overwrite code
        // with — which is the previous row's probe.
        (void)ctx;
        return xbase::u64{0};
      },
      {}));

  probes.push_back(RunProbe(
      "Type safety",
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        // Use a capability outside the signed manifest: typed/capability
        // confusion is caught at the crate boundary.
        auto sock = ctx.LookupTcp(simkern::SockTuple{1, 2, 3, 4});
        return sock.ok() ? 1 : 0;
      },
      {Capability::kMapAccess}));  // kSockLookup deliberately missing

  probes.push_back(RunProbe(
      "Safe resource management",
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        auto sock = ctx.LookupTcp(
            simkern::SockTuple{0x0a000001, 0x0a000002, 8080, 40000});
        XB_RETURN_IF_ERROR(sock.status());
        auto* leak = new safex::SockRef(std::move(sock).value());
        (void)leak;  // leaked on purpose; cleanup registry must cover it
        return xbase::u64{0};
      },
      {Capability::kSockLookup}));

  probes.push_back(RunProbe(
      "Termination",
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        for (;;) {
          XB_RETURN_IF_ERROR(ctx.Tick());
        }
      },
      {}));

  probes.push_back(RunProbe(
      "Stack protection",
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        std::function<xbase::Status(int)> recurse =
            [&](int depth) -> xbase::Status {
          XB_RETURN_IF_ERROR(ctx.EnterFrame());
          if (depth > 0) {
            XB_RETURN_IF_ERROR(recurse(depth - 1));
          }
          ctx.LeaveFrame();
          return xbase::Status::Ok();
        };
        XB_RETURN_IF_ERROR(recurse(1000));
        return xbase::u64{0};
      },
      {}));

  probes.push_back(RunContainmentProbe());

  std::printf("%-36s | %-9s | %s\n", "property probed", "kernel",
              "what stopped the violation");
  harness::Rule(110);
  for (const ProbeResult& probe : probes) {
    std::printf("%-36s | %-9s | %s\n", probe.property.c_str(),
                probe.contained ? "intact" : "CRASHED",
                probe.mechanism_fired.c_str());
  }
  harness::Rule(110);
  harness::Note("all probes are plain C++ with unbounded loops and "
                "recursion — no program-size or loop restrictions were "
                "needed to contain them (Table 2's closing claim)");
  return 0;
}
