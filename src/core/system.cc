#include "src/core/system.h"

#include <utility>

#include "src/core/ext.h"

namespace safex {

System::System(const simkern::KernelConfig& kernel_config,
               std::optional<SupervisorConfig> supervisor_config)
    : kernel(kernel_config), bpf(kernel), loader(bpf) {
  kernel.set_oops_recovery(supervisor_config.has_value());
  status = kernel.BootstrapWorkload();
  if (!status.ok()) {
    return;
  }
  auto created = Runtime::Create(kernel, bpf);
  if (!created.ok()) {
    status = created.status();
    return;
  }
  runtime = std::move(created).value();
  (void)runtime->keyring().Enroll(VendorKey());
  runtime->keyring().Seal();
  ext_loader = std::make_unique<ExtLoader>(*runtime);
  HookRegistryConfig hook_config;
  if (supervisor_config.has_value()) {
    supervisor = std::make_unique<Supervisor>(*supervisor_config);
    hook_config.supervisor = supervisor.get();
  }
  hooks = std::make_unique<HookRegistry>(bpf, loader, *ext_loader,
                                         hook_config);
}

const crypto::SigningKey& System::VendorKey() {
  static const crypto::SigningKey key =
      crypto::SigningKey::FromPassphrase("vendor", "safex");
  return key;
}

}  // namespace safex
