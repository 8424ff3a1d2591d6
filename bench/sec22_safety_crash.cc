// E-SAFE — reproduces the §2.2 "Safety" demonstration: a fully *verified*
// eBPF program crashes the kernel through bpf_sys_bpf by placing a NULL
// pointer inside the attr union (the verifier checks that attr points to
// attr_size readable bytes; it cannot see the pointer stored inside —
// CVE-2022-2785). The second half runs the safex counterpart: the hardened
// typed wrapper (§3.2) makes the crash unrepresentable.
#include "bench/harness.h"
#include "src/analysis/workloads.h"

namespace {

class SysBpfProbe : public safex::Extension {
 public:
  xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
    // Attempt 1: a dead Slice — the closest expressible thing to the NULL
    // insns pointer. The wrapper refuses it before any dereference.
    safex::Slice dead;
    if (ctx.SysBpfProgLoad(dead).ok()) {
      return xbase::u64{1};
    }
    // Attempt 2: the legitimate path with a live buffer works.
    auto insns = ctx.Alloc(16);
    XB_RETURN_IF_ERROR(insns.status());
    auto ret = ctx.SysBpfProgLoad(insns.value());
    XB_RETURN_IF_ERROR(ret.status());
    return xbase::u64{0};
  }
};

}  // namespace

int main() {
  harness::Title("§2.2 Safety: kernel crash through bpf_sys_bpf");

  // ---- eBPF path -------------------------------------------------------
  {
    safex::System rig;
    auto prog = analysis::BuildSysBpfNullCrash();
    auto id = rig.loader.Load(prog.value());
    std::printf("[eBPF ] verifier verdict: %s\n",
                id.ok() ? "ACCEPTED (the union pointer is invisible to it)"
                        : id.status().ToString().c_str());
    if (id.ok()) {
      auto loaded = rig.loader.Find(id.value());
      auto ctx = rig.kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                      simkern::RegionKind::kKernelData,
                                      "ctx");
      auto result = ebpf::Execute(rig.bpf, *loaded.value(), ctx.value(), {},
                                  &rig.loader);
      std::printf("[eBPF ] runtime: %s\n",
                  rig.kernel.crashed() ? "KERNEL OOPSED"
                                       : "no crash (unexpected)");
      (void)result;
      std::printf("[eBPF ] dmesg tail:\n");
      int shown = 0;
      for (auto it = rig.kernel.dmesg().rbegin();
           it != rig.kernel.dmesg().rend() && shown < 4; ++it, ++shown) {
        std::printf("         %s\n", it->c_str());
      }
    }
  }

  // ---- safex path ------------------------------------------------------
  {
    safex::System rig;
    safex::Toolchain toolchain(safex::System::VendorKey());
    safex::ExtensionManifest manifest;
    manifest.name = "sys-bpf-probe";
    manifest.version = "1.0";
    manifest.caps = {safex::Capability::kSysBpf,
                     safex::Capability::kDynAlloc};
    auto artifact = toolchain.Build(
        manifest, []() { return std::make_unique<SysBpfProbe>(); },
        std::span<const xbase::u8>());
    auto id = rig.ext_loader->Load(artifact.value());
    auto outcome = rig.ext_loader->Invoke(id.value());
    std::printf("\n[safex] load: signature validated, no verifier run\n");
    std::printf("[safex] probe result: %s (ret=%llu)\n",
                outcome.value().status.ok() ? "completed"
                                            : outcome.value().status
                                                  .ToString()
                                                  .c_str(),
                static_cast<unsigned long long>(outcome.value().ret));
    std::printf("[safex] kernel state: %s\n",
                rig.kernel.crashed() ? "CRASHED (unexpected!)" : "intact");
  }

  std::printf("\nPaper parity: eBPF path = verified program -> kernel "
              "crash; safex path = typed interface, crash "
              "unrepresentable, legitimate use still works.\n");
  return 0;
}
