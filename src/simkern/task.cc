#include "src/simkern/task.h"

#include <cstring>

#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace simkern {

using xbase::u32;
using xbase::u8;

xbase::Result<u32> TaskTable::Create(SimMemory& mem, ObjectTable& objects,
                                     u32 pid, u32 tgid,
                                     const std::string& comm) {
  if (tasks_.contains(pid)) {
    return xbase::AlreadyExists(xbase::StrFormat("pid %u exists", pid));
  }

  XB_ASSIGN_OR_RETURN(
      const Addr struct_addr,
      mem.Map(TaskLayout::kSize, MemPerm::kRead, RegionKind::kTaskStruct,
              xbase::StrFormat("task:%u", pid)));
  constexpr xbase::usize kStackSize = 8192;
  XB_ASSIGN_OR_RETURN(
      const Addr stack_addr,
      mem.Map(kStackSize, MemPerm::kReadWrite, RegionKind::kKernelData,
              xbase::StrFormat("task-stack:%u", pid)));

  // Populate the struct bytes.
  u8 buf[TaskLayout::kSize] = {};
  xbase::StoreLe32(buf + TaskLayout::kPid, pid);
  xbase::StoreLe32(buf + TaskLayout::kTgid, tgid);
  xbase::StoreLe64(buf + TaskLayout::kStartTime, 0);
  std::strncpy(reinterpret_cast<char*>(buf + TaskLayout::kComm), comm.c_str(),
               15);
  xbase::StoreLe64(buf + TaskLayout::kStackPtr, stack_addr);
  XB_RETURN_IF_ERROR(mem.Write(struct_addr, buf));

  Task task;
  task.pid = pid;
  task.tgid = tgid;
  task.comm = comm;
  task.struct_addr = struct_addr;
  task.stack_addr = stack_addr;
  task.stack_size = kStackSize;
  task.object_id = objects.Create(ObjectType::kTask,
                                  xbase::StrFormat("task:%u(%s)", pid,
                                                   comm.c_str()),
                                  struct_addr);
  const Task* created = &tasks_.emplace(pid, std::move(task)).first->second;
  for (const Task*& current : current_) {
    if (current == nullptr) {
      current = created;
    }
  }
  return pid;
}

xbase::Status TaskTable::Remove(SimMemory& mem, ObjectTable& objects,
                                u32 pid) {
  auto it = tasks_.find(pid);
  if (it == tasks_.end()) {
    return xbase::NotFound(xbase::StrFormat("no task with pid %u", pid));
  }
  Task& task = it->second;
  for (const Task*& current : current_) {
    if (current == &task) {
      current = nullptr;
    }
  }
  XB_RETURN_IF_ERROR(mem.Unmap(task.struct_addr));
  XB_RETURN_IF_ERROR(mem.Unmap(task.stack_addr));
  (void)objects.Release(task.object_id);
  tasks_.erase(it);
  return xbase::Status::Ok();
}

xbase::Result<const Task*> TaskTable::FindByPid(u32 pid) const {
  auto it = tasks_.find(pid);
  if (it == tasks_.end()) {
    return xbase::NotFound(xbase::StrFormat("no task with pid %u", pid));
  }
  return &it->second;
}

xbase::Result<const Task*> TaskTable::FindByAddr(Addr struct_addr) const {
  for (const auto& [_, task] : tasks_) {
    if (task.struct_addr == struct_addr) {
      return &task;
    }
  }
  return xbase::NotFound("no task at that address");
}

std::vector<u32> TaskTable::Pids() const {
  std::vector<u32> pids;
  pids.reserve(tasks_.size());
  for (const auto& [pid, _] : tasks_) {
    pids.push_back(pid);
  }
  return pids;
}

xbase::Status TaskTable::SetCurrent(u32 cpu, u32 pid) {
  if (cpu >= kMaxCpus) {
    return xbase::InvalidArgument(xbase::StrFormat("no cpu %u", cpu));
  }
  auto it = tasks_.find(pid);
  if (it == tasks_.end()) {
    return xbase::NotFound(xbase::StrFormat("no task with pid %u", pid));
  }
  current_[cpu] = &it->second;
  return xbase::Status::Ok();
}

}  // namespace simkern
