#include "src/ebpf/map.h"

#include <cstring>
#include <mutex>

#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace ebpf {

using simkern::MemPerm;
using simkern::RegionKind;
using xbase::StrFormat;
using xbase::u16;
using xbase::usize;

xbase::Status Map::CheckKeySize(std::span<const u8> key) const {
  if (key.size() != spec_.key_size) {
    return xbase::InvalidArgument(
        StrFormat("map %s: key size %zu != %u", spec_.name.c_str(),
                  key.size(), spec_.key_size));
  }
  return xbase::Status::Ok();
}

xbase::Status Map::CheckValueSize(std::span<const u8> value) const {
  if (value.size() != spec_.value_size) {
    return xbase::InvalidArgument(
        StrFormat("map %s: value size %zu != %u", spec_.name.c_str(),
                  value.size(), spec_.value_size));
  }
  return xbase::Status::Ok();
}

// ---- ArrayMap ----------------------------------------------------------------

xbase::Result<std::unique_ptr<ArrayMap>> ArrayMap::Create(
    simkern::Kernel& kernel, int fd, MapSpec spec) {
  if (spec.key_size != 4) {
    return xbase::InvalidArgument("array map key must be u32");
  }
  if (spec.max_entries == 0 || spec.value_size == 0) {
    return xbase::InvalidArgument("array map needs entries and value size");
  }
  auto map = std::unique_ptr<ArrayMap>(new ArrayMap(fd, std::move(spec)));
  XB_ASSIGN_OR_RETURN(
      map->values_base_,
      kernel.mem().Map(static_cast<usize>(map->spec().value_size) *
                           map->spec().max_entries,
                       MemPerm::kReadWrite, RegionKind::kMapData,
                       "map:" + map->spec().name));
  return map;
}

xbase::Result<Addr> ArrayMap::LookupAddr(simkern::Kernel& kernel,
                                         std::span<const u8> key) {
  (void)kernel;
  XB_RETURN_IF_ERROR(CheckKeySize(key));
  const u32 index = xbase::LoadLe32(key.data());
  if (index >= spec().max_entries) {
    return xbase::NotFound("array index out of range");
  }
  if (index_overflow_bug_) {
    // Injected defect (commit 87ac0d600943 class): the element offset is
    // computed in narrow arithmetic, so index * value_size wraps and
    // aliases a lower element. Linux wrapped at 32 bits with multi-GB
    // maps; the simulation wraps at 16 bits so the aliasing is observable
    // with kilobyte-scale maps — same bug shape, scaled geometry.
    const u16 wrapped = static_cast<u16>(index * spec().value_size);
    return values_base_ + wrapped;
  }
  return values_base_ + static_cast<u64>(index) * spec().value_size;
}

xbase::Status ArrayMap::Update(simkern::Kernel& kernel,
                               std::span<const u8> key,
                               std::span<const u8> value, u64 flags) {
  XB_RETURN_IF_ERROR(CheckValueSize(value));
  if (flags == kBpfNoExist) {
    return xbase::AlreadyExists("array elements always exist");
  }
  XB_ASSIGN_OR_RETURN(const Addr addr, LookupAddr(kernel, key));
  return kernel.mem().Write(addr, value);
}

xbase::Status ArrayMap::Delete(simkern::Kernel& kernel,
                               std::span<const u8> key) {
  (void)kernel;
  (void)key;
  return xbase::InvalidArgument("array map elements cannot be deleted");
}

// ---- HashMap -----------------------------------------------------------------

xbase::Result<std::unique_ptr<HashMap>> HashMap::Create(
    simkern::Kernel& kernel, int fd, MapSpec spec) {
  (void)kernel;
  if (spec.max_entries == 0 || spec.key_size == 0 || spec.value_size == 0) {
    return xbase::InvalidArgument("hash map needs sizes and entries");
  }
  return std::unique_ptr<HashMap>(new HashMap(fd, std::move(spec)));
}

xbase::Result<Addr> HashMap::LookupAddr(simkern::Kernel& kernel,
                                        std::span<const u8> key) {
  (void)kernel;
  XB_RETURN_IF_ERROR(CheckKeySize(key));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(std::vector<u8>(key.begin(), key.end()));
  if (it == entries_.end()) {
    return xbase::NotFound("no hash entry");
  }
  return it->second;
}

xbase::Status HashMap::Update(simkern::Kernel& kernel,
                              std::span<const u8> key,
                              std::span<const u8> value, u64 flags) {
  XB_RETURN_IF_ERROR(CheckKeySize(key));
  XB_RETURN_IF_ERROR(CheckValueSize(value));
  std::vector<u8> key_vec(key.begin(), key.end());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key_vec);
  if (it != entries_.end()) {
    if (flags == kBpfNoExist) {
      return xbase::AlreadyExists("hash key exists");
    }
    return kernel.mem().Write(it->second, value);
  }
  if (flags == kBpfExist) {
    return xbase::NotFound("hash key does not exist");
  }
  if (entries_.size() >= spec().max_entries) {
    return xbase::ResourceExhausted("hash map full");
  }
  XB_ASSIGN_OR_RETURN(
      const Addr addr,
      kernel.mem().Map(spec().value_size, MemPerm::kReadWrite,
                       RegionKind::kMapData,
                       StrFormat("map:%s[%s]", spec().name.c_str(),
                                 xbase::ToHex(key).c_str())));
  XB_RETURN_IF_ERROR(kernel.mem().Write(addr, value));
  entries_.emplace(std::move(key_vec), addr);
  return xbase::Status::Ok();
}

xbase::Status HashMap::Delete(simkern::Kernel& kernel,
                              std::span<const u8> key) {
  XB_RETURN_IF_ERROR(CheckKeySize(key));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(std::vector<u8>(key.begin(), key.end()));
  if (it == entries_.end()) {
    return xbase::NotFound("no hash entry");
  }
  // Unmapping makes any stale value pointer fault — the honest
  // use-after-free behaviour.
  XB_RETURN_IF_ERROR(kernel.mem().Unmap(it->second));
  entries_.erase(it);
  return xbase::Status::Ok();
}

// ---- PercpuArrayMap ------------------------------------------------------------

xbase::Result<std::unique_ptr<PercpuArrayMap>> PercpuArrayMap::Create(
    simkern::Kernel& kernel, int fd, MapSpec spec) {
  if (spec.key_size != 4) {
    return xbase::InvalidArgument("percpu array key must be u32");
  }
  auto map = std::unique_ptr<PercpuArrayMap>(
      new PercpuArrayMap(fd, std::move(spec)));
  // The backing store is genuinely per-CPU: one full value array per
  // configured CPU, cpu-major, so concurrent fires on different CPUs
  // write disjoint bytes with no locking.
  map->num_cpus_ = kernel.config().num_cpus;
  XB_ASSIGN_OR_RETURN(
      map->values_base_,
      kernel.mem().Map(static_cast<usize>(map->spec().value_size) *
                           map->spec().max_entries * map->num_cpus_,
                       MemPerm::kReadWrite, RegionKind::kPerCpu,
                       "map:" + map->spec().name));
  return map;
}

xbase::Result<Addr> PercpuArrayMap::LookupAddrForCpu(std::span<const u8> key,
                                                     u32 cpu) {
  XB_RETURN_IF_ERROR(CheckKeySize(key));
  const u32 index = xbase::LoadLe32(key.data());
  if (index >= spec().max_entries) {
    return xbase::NotFound("percpu index out of range");
  }
  if (cpu >= num_cpus_) {
    return xbase::InvalidArgument("bad cpu");
  }
  const u64 cpu_stride =
      static_cast<u64>(spec().value_size) * spec().max_entries;
  return values_base_ + cpu * cpu_stride +
         static_cast<u64>(index) * spec().value_size;
}

xbase::Result<Addr> PercpuArrayMap::LookupAddr(simkern::Kernel& kernel,
                                               std::span<const u8> key) {
  // Resolve against the CPU the extension is executing on. The old code
  // hardcoded cpu0, so every CPU's lookups aliased one slot and per-CPU
  // counters silently merged.
  return LookupAddrForCpu(key, kernel.current_cpu());
}

xbase::Status PercpuArrayMap::Update(simkern::Kernel& kernel,
                                     std::span<const u8> key,
                                     std::span<const u8> value, u64 flags) {
  XB_RETURN_IF_ERROR(CheckValueSize(value));
  if (flags == kBpfNoExist) {
    return xbase::AlreadyExists("percpu elements always exist");
  }
  XB_ASSIGN_OR_RETURN(const Addr addr, LookupAddr(kernel, key));
  return kernel.mem().Write(addr, value);
}

xbase::Status PercpuArrayMap::Delete(simkern::Kernel& kernel,
                                     std::span<const u8> key) {
  (void)kernel;
  (void)key;
  return xbase::InvalidArgument("percpu array elements cannot be deleted");
}

// ---- ProgArrayMap ---------------------------------------------------------------

xbase::Result<std::unique_ptr<ProgArrayMap>> ProgArrayMap::Create(
    simkern::Kernel& kernel, int fd, MapSpec spec) {
  (void)kernel;
  if (spec.key_size != 4 || spec.value_size != 4) {
    return xbase::InvalidArgument("prog array needs u32 key and value");
  }
  auto map =
      std::unique_ptr<ProgArrayMap>(new ProgArrayMap(fd, std::move(spec)));
  map->slots_.resize(map->spec().max_entries);
  return map;
}

xbase::Result<Addr> ProgArrayMap::LookupAddr(simkern::Kernel& kernel,
                                             std::span<const u8> key) {
  (void)kernel;
  (void)key;
  // Programs may not read prog-array values; only tail calls consume them.
  return xbase::PermissionDenied("prog array values are not readable");
}

xbase::Status ProgArrayMap::Update(simkern::Kernel& kernel,
                                   std::span<const u8> key,
                                   std::span<const u8> value, u64 flags) {
  (void)kernel;
  (void)flags;
  XB_RETURN_IF_ERROR(CheckKeySize(key));
  XB_RETURN_IF_ERROR(CheckValueSize(value));
  const u32 index = xbase::LoadLe32(key.data());
  if (index >= spec().max_entries) {
    return xbase::OutOfRange("prog array index");
  }
  std::lock_guard<std::mutex> lock(mu_);
  slots_[index] = xbase::LoadLe32(value.data());
  return xbase::Status::Ok();
}

xbase::Status ProgArrayMap::Delete(simkern::Kernel& kernel,
                                   std::span<const u8> key) {
  (void)kernel;
  XB_RETURN_IF_ERROR(CheckKeySize(key));
  const u32 index = xbase::LoadLe32(key.data());
  if (index >= spec().max_entries) {
    return xbase::OutOfRange("prog array index");
  }
  std::lock_guard<std::mutex> lock(mu_);
  slots_[index].reset();
  return xbase::Status::Ok();
}

u32 ProgArrayMap::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  u32 count = 0;
  for (const auto& slot : slots_) {
    if (slot.has_value()) {
      ++count;
    }
  }
  return count;
}

std::optional<u32> ProgArrayMap::ProgIdAt(u32 index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= slots_.size()) {
    return std::nullopt;
  }
  return slots_[index];
}

// ---- RingBufMap -----------------------------------------------------------------

xbase::Result<std::unique_ptr<RingBufMap>> RingBufMap::Create(
    simkern::Kernel& kernel, int fd, MapSpec spec) {
  if (spec.max_entries == 0 ||
      (spec.max_entries & (spec.max_entries - 1)) != 0) {
    return xbase::InvalidArgument("ringbuf size must be a power of two");
  }
  auto map = std::unique_ptr<RingBufMap>(new RingBufMap(fd, std::move(spec)));
  map->capacity_ = map->spec().max_entries;
  XB_ASSIGN_OR_RETURN(
      map->data_base_,
      kernel.mem().Map(map->capacity_, MemPerm::kReadWrite,
                       RegionKind::kMapData, "ringbuf:" + map->spec().name));
  return map;
}

xbase::Result<Addr> RingBufMap::LookupAddr(simkern::Kernel& kernel,
                                           std::span<const u8> key) {
  (void)kernel;
  (void)key;
  return xbase::PermissionDenied("ringbuf has no direct lookup");
}

xbase::Status RingBufMap::Update(simkern::Kernel& kernel,
                                 std::span<const u8> key,
                                 std::span<const u8> value, u64 flags) {
  (void)kernel;
  (void)key;
  (void)value;
  (void)flags;
  return xbase::PermissionDenied("ringbuf has no direct update");
}

xbase::Status RingBufMap::Delete(simkern::Kernel& kernel,
                                 std::span<const u8> key) {
  (void)kernel;
  (void)key;
  return xbase::PermissionDenied("ringbuf has no direct delete");
}

xbase::Result<Addr> RingBufMap::ReserveLocked(u32 size) {
  if (size == 0 || size > capacity_) {
    return xbase::InvalidArgument("bad ringbuf record size");
  }
  if (head_ + size > capacity_) {
    ++dropped_;
    return xbase::ResourceExhausted("ringbuf full");
  }
  const Addr addr = data_base_ + head_;
  head_ += size;
  ++pending_;
  records_.push_back(Record{addr, size, false});
  return addr;
}

xbase::Result<Addr> RingBufMap::Reserve(simkern::Kernel& kernel, u32 size) {
  (void)kernel;
  std::lock_guard<std::mutex> lock(mu_);
  return ReserveLocked(size);
}

xbase::Status RingBufMap::CommitLocked(Addr record) {
  for (Record& rec : records_) {
    if (rec.addr == record && !rec.committed) {
      rec.committed = true;
      return xbase::Status::Ok();
    }
  }
  return xbase::InvalidArgument("commit of unreserved ringbuf record");
}

xbase::Status RingBufMap::Commit(Addr record) {
  std::lock_guard<std::mutex> lock(mu_);
  return CommitLocked(record);
}

xbase::Status RingBufMap::Discard(Addr record) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = records_.begin(); it != records_.end(); ++it) {
    if (it->addr == record && !it->committed) {
      records_.erase(it);
      --pending_;
      return xbase::Status::Ok();
    }
  }
  return xbase::InvalidArgument("discard of unreserved ringbuf record");
}

xbase::Status RingBufMap::Output(simkern::Kernel& kernel,
                                 std::span<const u8> data) {
  // One critical section for reserve+write+commit so concurrent producers
  // can't interleave inside a record.
  std::lock_guard<std::mutex> lock(mu_);
  XB_ASSIGN_OR_RETURN(const Addr addr,
                      ReserveLocked(static_cast<u32>(data.size())));
  XB_RETURN_IF_ERROR(kernel.mem().Write(addr, data));
  return CommitLocked(addr);
}

xbase::Result<std::vector<u8>> RingBufMap::Consume(simkern::Kernel& kernel) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = records_.begin(); it != records_.end(); ++it) {
    if (it->committed) {
      std::vector<u8> out(it->size);
      XB_RETURN_IF_ERROR(kernel.mem().Read(it->addr, out));
      records_.erase(it);
      --pending_;
      return out;
    }
  }
  return xbase::NotFound("ringbuf empty");
}

// ---- TaskStorageMap --------------------------------------------------------------

xbase::Result<std::unique_ptr<TaskStorageMap>> TaskStorageMap::Create(
    simkern::Kernel& kernel, int fd, MapSpec spec) {
  (void)kernel;
  if (spec.key_size != 4) {
    return xbase::InvalidArgument("task storage key must be pid (u32)");
  }
  return std::unique_ptr<TaskStorageMap>(
      new TaskStorageMap(fd, std::move(spec)));
}

xbase::Result<Addr> TaskStorageMap::LookupAddr(simkern::Kernel& kernel,
                                               std::span<const u8> key) {
  (void)kernel;
  XB_RETURN_IF_ERROR(CheckKeySize(key));
  const u32 pid = xbase::LoadLe32(key.data());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(pid);
  if (it == entries_.end()) {
    return xbase::NotFound("no storage for task");
  }
  return it->second;
}

xbase::Status TaskStorageMap::Update(simkern::Kernel& kernel,
                                     std::span<const u8> key,
                                     std::span<const u8> value, u64 flags) {
  (void)flags;
  XB_RETURN_IF_ERROR(CheckKeySize(key));
  XB_RETURN_IF_ERROR(CheckValueSize(value));
  const u32 pid = xbase::LoadLe32(key.data());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(pid);
  if (it == entries_.end()) {
    XB_ASSIGN_OR_RETURN(
        const Addr addr,
        kernel.mem().Map(spec().value_size, MemPerm::kReadWrite,
                         RegionKind::kMapData,
                         StrFormat("task-storage:%s:%u", spec().name.c_str(),
                                   pid)));
    it = entries_.emplace(pid, addr).first;
  }
  return kernel.mem().Write(it->second, value);
}

xbase::Status TaskStorageMap::Delete(simkern::Kernel& kernel,
                                     std::span<const u8> key) {
  XB_RETURN_IF_ERROR(CheckKeySize(key));
  const u32 pid = xbase::LoadLe32(key.data());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(pid);
  if (it == entries_.end()) {
    return xbase::NotFound("no storage for task");
  }
  XB_RETURN_IF_ERROR(kernel.mem().Unmap(it->second));
  entries_.erase(it);
  return xbase::Status::Ok();
}

xbase::Result<Addr> TaskStorageMap::GetForTask(simkern::Kernel& kernel,
                                               Addr task_addr, bool create) {
  // Reading the pid out of the task struct *is* the dereference: a NULL
  // task pointer faults here, which is CVE-2021-xxxx (commit 1a9c72ad4c26)
  // when the helper forgets to check for NULL first.
  xbase::u8 pid_bytes[4];
  if (auto fault = kernel.mem().ReadChecked(
          task_addr + simkern::TaskLayout::kPid, pid_bytes,
          /*access_key=*/0)) {
    return fault->ToStatus();
  }
  const u32 pid = xbase::LoadLe32(pid_bytes);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(pid);
  if (it != entries_.end()) {
    return it->second;
  }
  if (!create) {
    return xbase::NotFound("no storage for task");
  }
  XB_ASSIGN_OR_RETURN(
      const Addr addr,
      kernel.mem().Map(spec().value_size, MemPerm::kReadWrite,
                       RegionKind::kMapData,
                       StrFormat("task-storage:%s:%u", spec().name.c_str(),
                                 pid)));
  entries_.emplace(pid, addr);
  return addr;
}

// ---- MapTable ---------------------------------------------------------------------

xbase::Result<int> MapTable::Create(const MapSpec& spec) {
  std::lock_guard<xbase::StripedRwLock> lock(lock_);
  const int fd = next_fd_++;
  std::unique_ptr<Map> map;
  switch (spec.type) {
    case MapType::kArray: {
      XB_ASSIGN_OR_RETURN(map, ArrayMap::Create(kernel_, fd, spec));
      break;
    }
    case MapType::kHash: {
      XB_ASSIGN_OR_RETURN(map, HashMap::Create(kernel_, fd, spec));
      break;
    }
    case MapType::kPercpuArray: {
      XB_ASSIGN_OR_RETURN(map, PercpuArrayMap::Create(kernel_, fd, spec));
      break;
    }
    case MapType::kProgArray: {
      XB_ASSIGN_OR_RETURN(map, ProgArrayMap::Create(kernel_, fd, spec));
      break;
    }
    case MapType::kRingBuf: {
      XB_ASSIGN_OR_RETURN(map, RingBufMap::Create(kernel_, fd, spec));
      break;
    }
    case MapType::kTaskStorage: {
      XB_ASSIGN_OR_RETURN(map, TaskStorageMap::Create(kernel_, fd, spec));
      break;
    }
  }
  kernel_.objects().Create(simkern::ObjectType::kMap, "map:" + spec.name);
  maps_.emplace(fd, std::move(map));
  return fd;
}

xbase::Result<Map*> MapTable::Find(int fd) {
  const auto guard = ReadTable();
  auto it = maps_.find(fd);
  if (it == maps_.end()) {
    return xbase::NotFound(StrFormat("no map with fd %d", fd));
  }
  return it->second.get();
}

xbase::Result<const Map*> MapTable::Find(int fd) const {
  const auto guard = ReadTable();
  auto it = maps_.find(fd);
  if (it == maps_.end()) {
    return xbase::NotFound(StrFormat("no map with fd %d", fd));
  }
  return static_cast<const Map*>(it->second.get());
}

xbase::Status MapTable::Destroy(int fd) {
  std::lock_guard<xbase::StripedRwLock> lock(lock_);
  if (maps_.erase(fd) == 0) {
    return xbase::NotFound(StrFormat("no map with fd %d", fd));
  }
  return xbase::Status::Ok();
}

}  // namespace ebpf
