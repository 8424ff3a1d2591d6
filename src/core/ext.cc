#include "src/core/ext.h"

#include <exception>

#include "src/core/panic.h"
#include "src/xbase/strfmt.h"

namespace safex {

namespace {
// The size of each CPU's extension allocation pool.
constexpr u32 kPoolChunkSize = 256;
constexpr u32 kPoolChunkCount = 64;
}  // namespace

xbase::Result<std::unique_ptr<Runtime>> Runtime::Create(
    simkern::Kernel& kernel, ebpf::Bpf& bpf, const RuntimeConfig& config) {
  auto runtime =
      std::unique_ptr<Runtime>(new Runtime(kernel, bpf, config));
  XB_ASSIGN_OR_RETURN(
      PerCpuPools pools,
      PerCpuPools::Create(kernel, kPoolChunkSize, kPoolChunkCount,
                          config.protection_key));
  runtime->pools_ = std::make_unique<PerCpuPools>(std::move(pools));
  kernel.Printk("safex: runtime initialized (pools mapped, keyring empty)");
  return runtime;
}

simkern::LockId Runtime::LockIdFor(int map_fd, u32 value_off) {
  const u64 key = (static_cast<u64>(static_cast<u32>(map_fd)) << 32) |
                  value_off;
  auto it = lock_ids_.find(key);
  if (it != lock_ids_.end()) {
    return it->second;
  }
  const simkern::LockId id = kernel_.locks().Create(
      xbase::StrFormat("safex-lock:%d+%u", map_fd, value_off));
  lock_ids_.emplace(key, id);
  return id;
}

InvokeOutcome Runtime::Invoke(Extension& ext, const CapSet& caps,
                              const InvokeOptions& options) {
  invocations_.Add();
  InvokeOutcome outcome;
  const u64 start_ns = kernel_.clock().now_ns();

  kernel_.rcu().ReadLock(kernel_.clock(), "safex-ext");

  Ctx ctx(*this, caps, options.watchdog_budget_ns, options.skb_meta);
  try {
    auto result = ext.Run(ctx);
    if (result.ok()) {
      outcome.ret = result.value();
      outcome.status = xbase::Status::Ok();
    } else {
      outcome.status = result.status();
    }
  } catch (const TerminationSignal&) {
    outcome.panicked = true;
    outcome.panic_reason = ctx.termination_reason();
    outcome.status = xbase::Terminated(ctx.termination_reason());
    panics_.fetch_add(1, std::memory_order_relaxed);
    if (outcome.panic_reason.rfind("watchdog", 0) == 0) {
      watchdog_fires_.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    // A foreign exception escaping the extension body is a buggy extension,
    // not a kernel bug: contain it like a panic so the cleanup registry and
    // the RCU unlock below still run and the caller's dispatch loop keeps
    // going (the catch_unwind-at-the-FFI-boundary analogue).
    outcome.panicked = true;
    outcome.panic_reason = std::string("foreign exception: ") + e.what();
    outcome.status = xbase::Terminated(outcome.panic_reason);
    panics_.fetch_add(1, std::memory_order_relaxed);
    foreign_exceptions_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    outcome.panicked = true;
    outcome.panic_reason = "foreign exception: non-standard type";
    outcome.status = xbase::Terminated(outcome.panic_reason);
    panics_.fetch_add(1, std::memory_order_relaxed);
    foreign_exceptions_.fetch_add(1, std::memory_order_relaxed);
  }

  // Safe termination: release whatever is still recorded, normal exit or
  // not. Trusted destructors only; nothing here can fail silently.
  outcome.cleanup = ctx.cleanup().RunAll(kernel_, &pool_for_cpu(0));

  (void)kernel_.rcu().ReadUnlock();

  outcome.sim_time_ns = kernel_.clock().now_ns() - start_ns;
  outcome.crate_calls = ctx.stats().crate_calls;

  if (outcome.panicked) {
    kernel_.Printk(xbase::StrFormat(
        "safex: extension terminated (%s), %u cleanup action(s) ran",
        outcome.panic_reason.c_str(), outcome.cleanup.entries_run));
  }
  return outcome;
}

}  // namespace safex
