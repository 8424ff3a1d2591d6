// Reference-counted kernel objects with a full acquire/release audit trail.
// The paper's Table 1 counts two refcount-leak bugs in helpers
// (bpf_get_task_stack, bpf_sk_lookup); the audit here is what lets the
// experiments *observe* such leaks: after every extension invocation the
// harness snapshots counts and diffs them.
#pragma once

#include <array>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/simkern/cpu.h"
#include "src/simkern/mem.h"
#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace simkern {

using ObjectId = xbase::u64;

enum class ObjectType : xbase::u8 {
  kTask,
  kSock,
  kRequestSock,
  kMap,
  kStack,   // kernel stack buffer handed out by bpf_get_task_stack
  kOther,
};

struct KObject {
  ObjectId id = 0;
  ObjectType type = ObjectType::kOther;
  std::string name;
  xbase::s64 refcount = 1;
  Addr struct_addr = 0;  // backing region in SimMemory (0 if none)
  bool freed = false;
};

struct RefcountSnapshot {
  std::map<ObjectId, xbase::s64> counts;
};

struct RefLeak {
  ObjectId id;
  std::string name;
  xbase::s64 before;
  xbase::s64 after;
};

// One successful refcount mutation, recorded while a journal is active.
// Create and Acquire are +1, Release is -1. Failed operations (faults) do
// not mutate the count and are not journaled.
struct RefJournalEvent {
  ObjectId id;
  xbase::s32 delta;
};

class ObjectTable {
 public:
  // Binds the table to `owner` (the Kernel): the refcount journal becomes
  // per-CPU (each CPU's extension scope journals only its own mutations),
  // and the table itself is internally locked so concurrent CPUs can
  // acquire/release safely. Unconfigured tables behave single-CPU.
  void Configure(const void* owner, xbase::u32 num_cpus);

  ObjectId Create(ObjectType type, std::string name, Addr struct_addr = 0);

  // Refcount manipulation. Acquire on a freed object is a use-after-free:
  // it is reported as KernelFault. Release below zero is an underflow fault.
  xbase::Status Acquire(ObjectId id);
  xbase::Status Release(ObjectId id);

  // Drops the object once its refcount reaches zero via Release; Destroy
  // forces it (trusted teardown paths only).
  xbase::Status Destroy(ObjectId id);

  xbase::Result<KObject*> Find(ObjectId id);
  bool IsLive(ObjectId id) const;
  xbase::s64 RefcountOf(ObjectId id) const;  // -1 if unknown

  RefcountSnapshot Snapshot() const;
  // Objects whose refcount grew relative to the snapshot (leaks), plus
  // objects created since that are still referenced.
  std::vector<RefLeak> DiffSince(const RefcountSnapshot& snapshot) const;

  // Journal-based alternative to Snapshot/DiffSince for the dispatch hot
  // path: instead of copying the whole table before every extension run,
  // record the (usually zero) mutations made during the run. Journals are
  // per-CPU: Begin/End act on the calling thread's CPU slot, and mutations
  // land in the mutating thread's own slot — concurrent extension scopes
  // on different CPUs never see each other's refcount traffic. The buffers
  // are owned by the table and reused across scopes, so a run that touches
  // no refcounts costs two flag writes and no allocation.
  void BeginRefJournal();
  // Stops recording and returns the events since BeginRefJournal on this
  // CPU. The reference stays valid until this CPU's next BeginRefJournal.
  const std::vector<RefJournalEvent>& EndRefJournal();

 private:
  // One CPU's journal; only the thread bound to that CPU touches it.
  struct alignas(64) JournalSlot {
    std::vector<RefJournalEvent> events;
    bool active = false;
  };

  xbase::u32 Bound() const { return BoundCpuFor(owner_, num_cpus_); }
  void JournalEvent(ObjectId id, xbase::s32 delta) {
    JournalSlot& slot = journals_[Bound()];
    if (slot.active) {
      slot.events.push_back(RefJournalEvent{id, delta});
    }
  }

  mutable std::mutex mu_;
  std::map<ObjectId, KObject> objects_;
  ObjectId next_id_ = 1;
  std::array<JournalSlot, kMaxCpus> journals_;
  const void* owner_ = nullptr;
  xbase::u32 num_cpus_ = 1;
};

}  // namespace simkern
