#include "src/core/hooks.h"

#include <algorithm>

#include "src/xbase/strfmt.h"

namespace safex {

namespace {

// Maps an invocation outcome to the failure class the supervisor charges.
FailureKind ClassifyTermination(const std::string& reason) {
  if (reason.rfind("watchdog", 0) == 0) {
    return FailureKind::kWatchdog;
  }
  if (reason.rfind("stack guard", 0) == 0) {
    return FailureKind::kStackOverflow;
  }
  if (reason.rfind("foreign exception", 0) == 0) {
    return FailureKind::kRuntimeError;
  }
  return FailureKind::kPanic;
}

// Decision-maker hooks are part of the privilege model: only the owning
// program type may decide (sched_ext on the pick hook, lsm on the access
// hook), and an owning type has no business on any other hook — the owner
// column is enforced both ways.
xbase::Status CheckOwner(HookPoint hook, xbase::u32 prog_id,
                         ebpf::ProgType type) {
  for (const HookFamily& family : kHookFamilies) {
    if (!family.owner || (family.hook == hook) == (type == *family.owner)) {
      continue;
    }
    return xbase::FailedPrecondition(
        family.hook == hook
            ? xbase::StrFormat("prog %u is not %s-typed; cannot attach to %s",
                               prog_id,
                               ebpf::ProgTypeName(*family.owner).data(),
                               family.name.data())
            : xbase::StrFormat("%s prog %u can only attach to %s",
                               ebpf::ProgTypeName(type).data(), prog_id,
                               family.name.data()));
  }
  return xbase::Status::Ok();
}

}  // namespace

xbase::Result<xbase::u32> HookRegistry::AttachProgram(HookPoint hook,
                                                      xbase::u32 prog_id) {
  return Attach(hook, false, prog_id);
}

xbase::Result<xbase::u32> HookRegistry::AttachExtension(HookPoint hook,
                                                        xbase::u32 ext_id) {
  return Attach(hook, true, ext_id);
}

xbase::Result<xbase::u32> HookRegistry::Attach(HookPoint hook, bool is_safex,
                                               xbase::u32 target_id) {
  const std::string_view name = FamilyOf(hook).name;
  const char* kind = is_safex ? "safex ext" : "bpf prog";
  xbase::u32 id = 0;
  {
    std::lock_guard<xbase::StripedRwLock> lock(table_lock_);
    std::vector<Attachment>& table = by_hook_[static_cast<xbase::usize>(hook)];
    for (const Attachment& attachment : table) {
      if (attachment.is_safex == is_safex &&
          attachment.target_id == target_id) {
        return xbase::AlreadyExists(xbase::StrFormat(
            "%s %u already attached to %s", kind, target_id, name.data()));
      }
    }
    // Ids are never 0 (HookFireReport::decider's "nobody") and never alias
    // a live attachment's supervisor record, even after the counter wraps.
    const auto in_use = [this](xbase::u32 candidate) {
      for (const std::vector<Attachment>& attachments : by_hook_) {
        for (const Attachment& attachment : attachments) {
          if (attachment.id == candidate) {
            return true;
          }
        }
      }
      return false;
    };
    const std::optional<xbase::u32> fresh =
        ids_.Allocate(AttachedCountLocked(), in_use);
    if (!fresh) {
      return xbase::ResourceExhausted("attachment id space exhausted");
    }
    id = *fresh;
    // Pin the target for the attachment's lifetime: Unload refuses while
    // the pin is held, so the pointer resolved here stays valid for every
    // fire. (Pin also subsumes the existence check.)
    Attachment attachment{
        .id = id,
        .hook = hook,
        .is_safex = is_safex,
        .target_id = target_id,
        .scope_label = xbase::StrFormat("%s:%u(%s)", is_safex ? "ext" : "bpf",
                                        target_id, name.data())};
    if (is_safex) {
      XB_ASSIGN_OR_RETURN(attachment.extension, ext_loader_.Pin(target_id));
    } else {
      XB_ASSIGN_OR_RETURN(attachment.program, bpf_loader_.Pin(target_id));
      if (xbase::Status owner =
              CheckOwner(hook, target_id, attachment.program->source.type);
          !owner.ok()) {
        bpf_loader_.Unpin(target_id);
        return owner;
      }
    }
    if (config_.supervisor != nullptr) {
      attachment.record = &config_.supervisor->Track(id);
    }
    table.push_back(std::move(attachment));
  }
  bpf_.kernel().Printk(xbase::StrFormat("hook %s: %s %u attached",
                                        name.data(), kind, target_id));
  return id;
}

xbase::Status HookRegistry::Detach(xbase::u32 attachment_id) {
  // Holding the writer side means every fire that could have been running
  // the attachment has returned, and no later fire can find it.
  std::lock_guard<xbase::StripedRwLock> lock(table_lock_);
  for (std::vector<Attachment>& table : by_hook_) {
    auto it = std::find_if(table.begin(), table.end(),
                           [attachment_id](const Attachment& attachment) {
                             return attachment.id == attachment_id;
                           });
    if (it == table.end()) {
      continue;
    }
    // Drop the unload pin taken at attach time.
    if (it->is_safex) {
      ext_loader_.Unpin(it->target_id);
    } else {
      bpf_loader_.Unpin(it->target_id);
    }
    table.erase(it);
    if (config_.supervisor != nullptr) {
      // Detaching while quarantined/evicted is always legal and drops the
      // health record with the attachment.
      config_.supervisor->Forget(attachment_id);
    }
    return xbase::Status::Ok();
  }
  return xbase::NotFound("no such attachment");
}

HookVerdict HookRegistry::RunAttachment(const Attachment& attachment,
                                        simkern::Addr ctx_addr) {
  simkern::Kernel& kernel = bpf_.kernel();
  HookVerdict verdict;
  verdict.from_safex = attachment.is_safex;
  verdict.attachment_id = attachment.id;

  Supervisor* supervisor = config_.supervisor;
  const xbase::u64 now = kernel.clock().now_ns();
  if (supervisor != nullptr) {
    const AdmitDecision decision = supervisor->Admit(*attachment.record, now);
    verdict.health = decision.health;
    if (!decision.allow) {
      verdict.skipped = true;
      verdict.status = xbase::FailedPrecondition(xbase::StrFormat(
          "attachment %u %s", attachment.id,
          std::string(ExtHealthName(decision.health)).c_str()));
      return verdict;
    }
  }

  // Pre-invocation kernel-state baseline, so anything the attachment leaks
  // can be attributed, repaired and charged to it afterwards. The baseline
  // is count/journal based: instead of copying the whole object table and
  // walking the lock table before every run, arm the (reused) refcount
  // journal and record the O(1) held-lock count; the expensive walks only
  // happen when those say something actually changed.
  // All repair scratch is per-CPU: concurrent fires on other CPUs use
  // their own slots, so the baselines can't cross-contaminate.
  FireScratch& scratch = scratch_[kernel.current_cpu()];
  const int rcu_depth_before = kernel.rcu().depth();
  if (supervisor != nullptr) {
    kernel.objects().BeginRefJournal();
    scratch.locks_before.clear();
    if (kernel.locks().held_count() != 0) {
      kernel.locks().HeldLocksInto(&scratch.locks_before);
    }
    kernel.BeginExtensionScope(attachment.scope_label);
  }

  try {
    if (attachment.is_safex) {
      InvokeOptions options;
      options.skb_meta = FamilyOf(attachment.hook).skb_ctx ? ctx_addr : 0;
      const InvokeOutcome outcome =
          ext_loader_.Invoke(*attachment.extension, options);
      verdict.value = outcome.ret;
      verdict.status = outcome.status;
    } else {
      auto result = ebpf::Execute(bpf_, *attachment.program, ctx_addr,
                                  config_.exec_options, &bpf_loader_);
      if (result.ok()) {
        verdict.value = result.value().r0;
      } else {
        verdict.status = result.status();
      }
    }
  } catch (...) {
    // Runtime::Invoke already contains foreign exceptions; this is the
    // dispatch loop's own belt-and-braces so no conceivable throw can
    // abort the remaining attachments on the hook.
    verdict.status =
        xbase::Terminated("foreign exception escaped attachment dispatch");
  }
  verdict.cost_ns = kernel.clock().now_ns() - now;

  if (supervisor == nullptr) {
    return verdict;
  }

  const xbase::u32 oopses = kernel.EndExtensionScope();

  // Repair what the attachment leaked: balance the RCU read-side section,
  // force-release locks it still holds, drop references it never put.
  int rcu_excess = kernel.rcu().depth() - rcu_depth_before;
  while (rcu_excess-- > 0) {
    (void)kernel.rcu().ReadUnlock();
  }
  xbase::u32 locks_repaired = 0;
  if (kernel.locks().held_count() != 0) {
    scratch.locks_after.clear();
    kernel.locks().HeldLocksInto(&scratch.locks_after);
    for (const simkern::LockId lock : scratch.locks_after) {
      if (std::find(scratch.locks_before.begin(),
                    scratch.locks_before.end(),
                    lock) == scratch.locks_before.end()) {
        kernel.locks().ForceRelease(lock);
        ++locks_repaired;
      }
    }
  }
  xbase::u32 refs_repaired = 0;
  const std::vector<simkern::RefJournalEvent>& journal =
      kernel.objects().EndRefJournal();
  if (!journal.empty()) {
    // Net the journal per object; a positive net on a still-live object is
    // exactly what Snapshot/DiffSince used to report (freed-in-scope
    // objects net out or fail the IsLive check, matching the old skip of
    // freed entries).
    scratch.ref_net.clear();
    for (const simkern::RefJournalEvent& event : journal) {
      bool merged = false;
      for (auto& [id, net] : scratch.ref_net) {
        if (id == event.id) {
          net += event.delta;
          merged = true;
          break;
        }
      }
      if (!merged) {
        scratch.ref_net.emplace_back(event.id, event.delta);
      }
    }
    for (const auto& [id, net] : scratch.ref_net) {
      if (net <= 0 || !kernel.objects().IsLive(id)) {
        continue;
      }
      for (xbase::s64 i = 0; i < net; ++i) {
        if (kernel.objects().Release(id).ok()) {
          ++refs_repaired;
        }
      }
    }
  }

  // Attribute the outcome. Priority: an on-CPU oops outranks the normal
  // termination reason, which outranks a repaired leak.
  const xbase::u64 after = kernel.clock().now_ns();
  ExtRecord& record = *attachment.record;
  if (oopses > 0 || verdict.status.code() == xbase::Code::kKernelFault) {
    verdict.health = supervisor->RecordFailure(
        record, FailureKind::kOops,
        verdict.status.ok() ? "oops on extension CPU time"
                            : verdict.status.message(),
        after);
  } else if (verdict.status.code() == xbase::Code::kTerminated) {
    verdict.health = supervisor->RecordFailure(
        record, ClassifyTermination(verdict.status.message()),
        verdict.status.message(), after);
  } else if (locks_repaired > 0 || refs_repaired > 0) {
    verdict.health = supervisor->RecordFailure(
        record, FailureKind::kResourceLeak,
        xbase::StrFormat("leaked %u ref(s), %u lock(s); repaired",
                         refs_repaired, locks_repaired),
        after);
    kernel.Printk(xbase::StrFormat(
        "supervisor: attachment %u leaked %u ref(s) %u lock(s); repaired",
        attachment.id, refs_repaired, locks_repaired));
  } else {
    verdict.health = supervisor->RecordSuccess(record, after);
  }
  if (verdict.health == ExtHealth::kQuarantined ||
      verdict.health == ExtHealth::kEvicted) {
    kernel.Printk(xbase::StrFormat(
        "supervisor: attachment %u -> %s (%s)", attachment.id,
        std::string(ExtHealthName(verdict.health)).c_str(),
        verdict.status.ok() ? "resource leak" :
                              verdict.status.message().c_str()));
  }
  return verdict;
}

void HookRegistry::FireInto(HookPoint hook, simkern::Addr ctx_addr,
                            HookFireReport& report) {
  const HookFamily& family = FamilyOf(hook);
  report.verdicts.clear();  // keeps capacity for the steady state
  report.verdict = family.neutral;
  report.denied = false;
  report.decider = 0;
  report.served = 0;
  report.failed = 0;
  report.skipped = 0;

  // Walk the hook's table under the reader side: no Attach or Detach can
  // edit it until the walk ends, and the reader touches only this thread's
  // stripe of the lock.
  const xbase::StripedRwLock::ReadGuard table_guard(table_lock_);
  for (const Attachment& attachment :
       by_hook_[static_cast<xbase::usize>(hook)]) {
    HookVerdict verdict = RunAttachment(attachment, ctx_addr);

    // Aggregate per the family's combine rule. A failed or skipped (never
    // OK) attachment contributes the family's fallback instead: nothing
    // when it fails open — the neutral aggregate stands, and the scheduler
    // core, seeing no decider, picks by its default policy — or a deny.
    if (verdict.status.ok()) {
      ++report.served;
      switch (family.combine) {
        case VerdictCombine::kAnyDropWins:
          if (verdict.value == 1) {
            report.verdict = 1;  // XDP_DROP
          }
          break;
        case VerdictCombine::kFirstNonzeroDenies:
          if (verdict.value != 0 && !report.denied) {
            report.denied = true;
            report.verdict = verdict.value;
          }
          break;
        case VerdictCombine::kFirstServedDecides:
          if (report.decider == 0) {
            report.verdict = verdict.value;
            report.decider = verdict.attachment_id;
          }
          break;
        case VerdictCombine::kIgnored:
          break;
      }
    } else {
      ++(verdict.skipped ? report.skipped : report.failed);
      if (family.fail_closed_errno != 0 && !report.denied) {
        report.denied = true;
        report.verdict = family.fail_closed_errno;
      }
    }
    report.verdicts.push_back(std::move(verdict));
  }
}

xbase::usize HookRegistry::AttachedCount(HookPoint hook) const {
  const xbase::StripedRwLock::ReadGuard table_guard(table_lock_);
  return by_hook_[static_cast<xbase::usize>(hook)].size();
}

xbase::usize HookRegistry::AttachedCountTotal() const {
  const xbase::StripedRwLock::ReadGuard table_guard(table_lock_);
  return AttachedCountLocked();
}

xbase::usize HookRegistry::AttachedCountLocked() const {
  xbase::usize total = 0;
  for (const std::vector<Attachment>& table : by_hook_) {
    total += table.size();
  }
  return total;
}

}  // namespace safex
