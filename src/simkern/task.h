// Simulated task_structs. Each task owns a region in SimMemory laid out per
// TaskLayout, so helpers (bpf_get_current_pid_tgid, bpf_get_current_comm,
// bpf_get_task_stack, bpf_task_storage_get) read real bytes through the
// memory model — and a NULL task pointer dereferences the NULL guard page
// exactly like the bpf_task_storage_get bug the paper cites.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "src/simkern/cpu.h"
#include "src/simkern/mem.h"
#include "src/simkern/object.h"
#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace simkern {

// Byte offsets inside a task_struct region.
struct TaskLayout {
  static constexpr xbase::usize kPid = 0;        // u32
  static constexpr xbase::usize kTgid = 4;       // u32
  static constexpr xbase::usize kStartTime = 8;  // u64 ns
  static constexpr xbase::usize kComm = 16;      // char[16]
  static constexpr xbase::usize kStackPtr = 32;  // u64: kernel stack addr
  static constexpr xbase::usize kFlags = 40;     // u64
  static constexpr xbase::usize kSize = 64;
};

struct Task {
  xbase::u32 pid = 0;
  xbase::u32 tgid = 0;
  std::string comm;
  Addr struct_addr = 0;
  Addr stack_addr = 0;
  xbase::usize stack_size = 0;
  ObjectId object_id = 0;  // refcount identity in the ObjectTable
};

class TaskTable {
 public:
  // Creates the task, maps its struct + kernel stack, registers the
  // refcounted identity. The new task becomes current on every CPU that
  // has no current task.
  xbase::Result<xbase::u32> Create(SimMemory& mem, ObjectTable& objects,
                                   xbase::u32 pid, xbase::u32 tgid,
                                   const std::string& comm);

  // Task exit: unmaps the struct and stack, drops the create-time reference
  // on the ObjectTable identity (an extension still holding a reference
  // keeps the identity alive as a zombie until it releases), and clears
  // every CPU's current task that points at the removed one.
  xbase::Status Remove(SimMemory& mem, ObjectTable& objects, xbase::u32 pid);

  xbase::Result<const Task*> FindByPid(xbase::u32 pid) const;
  xbase::Result<const Task*> FindByAddr(Addr struct_addr) const;

  // All live pids, ascending.
  std::vector<xbase::u32> Pids() const;

  // "current" — the task on whose behalf an extension running on `cpu`
  // runs. One slot per simulated CPU: each CPU's scheduler writes only its
  // own, so concurrent SchedCores never share one.
  xbase::Status SetCurrent(xbase::u32 cpu, xbase::u32 pid);
  const Task* current(xbase::u32 cpu) const {
    return cpu < kMaxCpus ? current_[cpu] : nullptr;
  }

  xbase::usize size() const { return tasks_.size(); }

 private:
  std::map<xbase::u32, Task> tasks_;
  std::array<const Task*, kMaxCpus> current_{};
};

}  // namespace simkern
