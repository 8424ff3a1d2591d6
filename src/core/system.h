// The extension stack, wired once. Every rig that runs both frameworks on
// one simulated kernel needs the same assembly, in the same order:
//
//   Kernel → Bpf → ebpf::Loader → safex::Runtime → vendor SigningKey
//   (enrolled, keyring sealed) → ExtLoader → Supervisor → HookRegistry
//
// System builds exactly that from the two existing config structs. A
// supervisor config makes the system supervised, which also turns the
// kernel's oops recovery on (containment without recovery would let the
// first attributed oops take the machine down); no supervisor config runs
// the unsupervised baseline. Engine selection stays where it always lived,
// on hooks->config().
#pragma once

#include <memory>
#include <optional>

#include "src/core/hooks.h"
#include "src/core/loader.h"
#include "src/core/supervisor.h"
#include "src/crypto/keyring.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/loader.h"
#include "src/simkern/kernel.h"

namespace safex {

class System {
 public:
  explicit System(const simkern::KernelConfig& kernel_config = {},
                  std::optional<SupervisorConfig> supervisor = std::nullopt);
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // False when the workload bootstrap or the runtime failed; `status` says
  // which. The members past the failing step are null.
  bool ok() const { return status.ok(); }

  // The one vendor key every system enrolls: artifacts a Toolchain signs
  // with it load into any System.
  static const crypto::SigningKey& VendorKey();

  xbase::Status status;
  simkern::Kernel kernel;
  ebpf::Bpf bpf;
  ebpf::Loader loader;
  std::unique_ptr<Runtime> runtime;
  std::unique_ptr<ExtLoader> ext_loader;
  std::unique_ptr<Supervisor> supervisor;  // null: unsupervised
  std::unique_ptr<HookRegistry> hooks;
};

}  // namespace safex
