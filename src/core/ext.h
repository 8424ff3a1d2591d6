// The extension model and the runtime that hosts it. An Extension is the
// unit the trusted toolchain compiles and signs; Runtime::Invoke is the
// in-kernel dispatcher that arms the watchdog, hands the extension a Ctx,
// and — whatever happens — runs the cleanup registry and audits kernel
// state afterwards.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "src/core/api.h"
#include "src/crypto/keyring.h"
#include "src/ebpf/bpf.h"
#include "src/xbase/rwlock.h"

namespace safex {

class Extension {
 public:
  virtual ~Extension() = default;
  // The extension body. Returning a Status error is a recoverable failure;
  // a panic (via ctx.Panic or any crate violation) terminates the
  // invocation safely.
  virtual xbase::Result<u64> Run(Ctx& ctx) = 0;
};

struct InvokeOptions {
  u64 watchdog_budget_ns = kDefaultWatchdogBudgetNs;
  simkern::Addr skb_meta = 0;  // packet hook context, if any
};

struct InvokeOutcome {
  xbase::Status status;  // OK, or why the invocation ended abnormally
  u64 ret = 0;
  bool panicked = false;
  std::string panic_reason;
  CleanupReport cleanup;
  u64 sim_time_ns = 0;
  u64 crate_calls = 0;
};

struct RuntimeConfig {
  // Protection-domain key for extension memory; 0 disables the PKS/MPK
  // simulation (§4 ablation).
  u32 protection_key = 2;
  bool allow_unsafe_extensions = false;  // kernel-side policy
};

// One Runtime per kernel: owns the per-CPU pools, the lock identities, the
// trusted keyring, and the invocation harness. Shares the map table with
// the eBPF subsystem so both frameworks run identical workloads.
class Runtime {
 public:
  static xbase::Result<std::unique_ptr<Runtime>> Create(
      simkern::Kernel& kernel, ebpf::Bpf& bpf,
      const RuntimeConfig& config = {});

  simkern::Kernel& kernel() { return kernel_; }
  ebpf::MapTable& maps() { return bpf_.maps(); }
  ebpf::Bpf& bpf() { return bpf_; }
  crypto::Keyring& keyring() { return keyring_; }
  const RuntimeConfig& config() const { return config_; }
  MemoryPool& pool_for_cpu(u32 cpu) { return pools_->ForCpu(cpu); }

  // Lock identity for (map_fd, value_off); created on first use.
  simkern::LockId LockIdFor(int map_fd, u32 value_off);

  // Direct invocation with explicit capabilities (the loader supplies the
  // manifest's set; tests may call this directly).
  InvokeOutcome Invoke(Extension& ext, const CapSet& caps,
                       const InvokeOptions& options = {});

  // Counters across all invocations. Atomic because one runtime serves
  // every simulated CPU; relaxed increments, since they order nothing. The
  // invocation count is bumped on every fire, so it is striped per thread.
  u64 invocations() const { return invocations_.Sum(); }
  u64 watchdog_fires() const { return watchdog_fires_; }
  u64 panics() const { return panics_; }
  u64 foreign_exceptions() const { return foreign_exceptions_; }

 private:
  Runtime(simkern::Kernel& kernel, ebpf::Bpf& bpf,
          const RuntimeConfig& config)
      : kernel_(kernel), bpf_(bpf), config_(config) {}

  simkern::Kernel& kernel_;
  ebpf::Bpf& bpf_;
  RuntimeConfig config_;
  std::unique_ptr<PerCpuPools> pools_;
  crypto::Keyring keyring_;
  std::map<u64, simkern::LockId> lock_ids_;
  xbase::StripedCounter invocations_;
  std::atomic<u64> watchdog_fires_{0};
  std::atomic<u64> panics_{0};
  std::atomic<u64> foreign_exceptions_{0};
};

}  // namespace safex
