// BPF maps. Map storage lives inside SimMemory, so value pointers handed to
// programs are real simulated-kernel addresses: a verifier bug that lets a
// program walk a value pointer out of bounds produces honest out-of-bounds
// traffic against the memory model, and a deleted hash entry leaves a stale
// address whose use faults — the use-after-free shape of Table 1.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/simkern/kernel.h"
#include "src/xbase/rwlock.h"
#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace ebpf {

using simkern::Addr;
using xbase::u32;
using xbase::u64;
using xbase::u8;

enum class MapType : u8 {
  kArray,
  kHash,
  kPercpuArray,
  kProgArray,    // tail-call targets
  kRingBuf,
  kTaskStorage,  // per-task local storage
};

// Update flags, as the kernel defines them.
inline constexpr u64 kBpfAny = 0;
inline constexpr u64 kBpfNoExist = 1;
inline constexpr u64 kBpfExist = 2;

struct MapSpec {
  MapType type = MapType::kArray;
  u32 key_size = 4;
  u32 value_size = 8;
  u32 max_entries = 1;
  std::string name;
};

class Map {
 public:
  Map(int fd, MapSpec spec) : fd_(fd), spec_(std::move(spec)) {}
  virtual ~Map() = default;
  Map(const Map&) = delete;
  Map& operator=(const Map&) = delete;

  int fd() const { return fd_; }
  const MapSpec& spec() const { return spec_; }

  // Address of the value bytes for `key`, or NotFound. What programs get
  // back from bpf_map_lookup_elem.
  virtual xbase::Result<Addr> LookupAddr(simkern::Kernel& kernel,
                                         std::span<const u8> key) = 0;
  virtual xbase::Status Update(simkern::Kernel& kernel,
                               std::span<const u8> key,
                               std::span<const u8> value, u64 flags) = 0;
  virtual xbase::Status Delete(simkern::Kernel& kernel,
                               std::span<const u8> key) = 0;
  virtual u32 entry_count() const = 0;

 protected:
  xbase::Status CheckKeySize(std::span<const u8> key) const;
  xbase::Status CheckValueSize(std::span<const u8> value) const;

 private:
  int fd_;
  MapSpec spec_;
};

// ---- array ------------------------------------------------------------------
class ArrayMap : public Map {
 public:
  static xbase::Result<std::unique_ptr<ArrayMap>> Create(
      simkern::Kernel& kernel, int fd, MapSpec spec);

  xbase::Result<Addr> LookupAddr(simkern::Kernel& kernel,
                                 std::span<const u8> key) override;
  xbase::Status Update(simkern::Kernel& kernel, std::span<const u8> key,
                       std::span<const u8> value, u64 flags) override;
  xbase::Status Delete(simkern::Kernel& kernel,
                       std::span<const u8> key) override;
  u32 entry_count() const override { return spec().max_entries; }

  // Injectable defect (CVE-2022-xxxx class, commit 87ac0d600943): compute
  // the element offset in 32 bits so a large index*value_size wraps.
  void InjectIndexOverflow(bool on) { index_overflow_bug_ = on; }

 private:
  ArrayMap(int fd, MapSpec spec) : Map(fd, std::move(spec)) {}

  Addr values_base_ = 0;
  bool index_overflow_bug_ = false;
};

// ---- hash -------------------------------------------------------------------
class HashMap : public Map {
 public:
  static xbase::Result<std::unique_ptr<HashMap>> Create(
      simkern::Kernel& kernel, int fd, MapSpec spec);

  xbase::Result<Addr> LookupAddr(simkern::Kernel& kernel,
                                 std::span<const u8> key) override;
  xbase::Status Update(simkern::Kernel& kernel, std::span<const u8> key,
                       std::span<const u8> value, u64 flags) override;
  xbase::Status Delete(simkern::Kernel& kernel,
                       std::span<const u8> key) override;
  u32 entry_count() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<u32>(entries_.size());
  }

 private:
  HashMap(int fd, MapSpec spec) : Map(fd, std::move(spec)) {}

  mutable std::mutex mu_;  // guards entries_ across CPUs
  std::map<std::vector<u8>, Addr> entries_;
};

// ---- per-CPU array ------------------------------------------------------------
class PercpuArrayMap : public Map {
 public:
  static xbase::Result<std::unique_ptr<PercpuArrayMap>> Create(
      simkern::Kernel& kernel, int fd, MapSpec spec);

  // Lookup resolves to the *current CPU's* slot, like the in-kernel helper.
  xbase::Result<Addr> LookupAddr(simkern::Kernel& kernel,
                                 std::span<const u8> key) override;
  xbase::Result<Addr> LookupAddrForCpu(std::span<const u8> key, u32 cpu);
  xbase::Status Update(simkern::Kernel& kernel, std::span<const u8> key,
                       std::span<const u8> value, u64 flags) override;
  xbase::Status Delete(simkern::Kernel& kernel,
                       std::span<const u8> key) override;
  u32 entry_count() const override { return spec().max_entries; }

  u32 num_cpus() const { return num_cpus_; }

 private:
  PercpuArrayMap(int fd, MapSpec spec) : Map(fd, std::move(spec)) {}

  Addr values_base_ = 0;  // cpu-major layout
  u32 num_cpus_ = 1;      // captured from KernelConfig::num_cpus at Create
};

// ---- prog array (tail calls) ---------------------------------------------------
class ProgArrayMap : public Map {
 public:
  static xbase::Result<std::unique_ptr<ProgArrayMap>> Create(
      simkern::Kernel& kernel, int fd, MapSpec spec);

  xbase::Result<Addr> LookupAddr(simkern::Kernel& kernel,
                                 std::span<const u8> key) override;
  xbase::Status Update(simkern::Kernel& kernel, std::span<const u8> key,
                       std::span<const u8> value, u64 flags) override;
  xbase::Status Delete(simkern::Kernel& kernel,
                       std::span<const u8> key) override;
  u32 entry_count() const override;

  std::optional<u32> ProgIdAt(u32 index) const;

 private:
  ProgArrayMap(int fd, MapSpec spec) : Map(fd, std::move(spec)) {}

  mutable std::mutex mu_;  // guards slots_ across CPUs
  std::vector<std::optional<u32>> slots_;
};

// ---- ring buffer ----------------------------------------------------------------
class RingBufMap : public Map {
 public:
  static xbase::Result<std::unique_ptr<RingBufMap>> Create(
      simkern::Kernel& kernel, int fd, MapSpec spec);

  xbase::Result<Addr> LookupAddr(simkern::Kernel& kernel,
                                 std::span<const u8> key) override;
  xbase::Status Update(simkern::Kernel& kernel, std::span<const u8> key,
                       std::span<const u8> value, u64 flags) override;
  xbase::Status Delete(simkern::Kernel& kernel,
                       std::span<const u8> key) override;
  u32 entry_count() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_;
  }

  // Producer API used by bpf_ringbuf_output / reserve+commit.
  xbase::Result<Addr> Reserve(simkern::Kernel& kernel, u32 size);
  xbase::Status Commit(Addr record);
  xbase::Status Discard(Addr record);
  xbase::Status Output(simkern::Kernel& kernel, std::span<const u8> data);

  // Consumer API for userspace-side tests.
  xbase::Result<std::vector<u8>> Consume(simkern::Kernel& kernel);
  u32 dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  RingBufMap(int fd, MapSpec spec) : Map(fd, std::move(spec)) {}

  xbase::Result<Addr> ReserveLocked(u32 size);
  xbase::Status CommitLocked(Addr record);

  struct Record {
    Addr addr;
    u32 size;
    bool committed;
  };

  // One producer/consumer lock: ringbuf ordering across CPUs is the
  // kernel's own contract (the real ringbuf serializes reservations too).
  mutable std::mutex mu_;
  Addr data_base_ = 0;
  u32 capacity_ = 0;
  u32 head_ = 0;  // next free byte offset
  u32 pending_ = 0;
  u32 dropped_ = 0;
  std::vector<Record> records_;
};

// ---- task storage ---------------------------------------------------------------
class TaskStorageMap : public Map {
 public:
  static xbase::Result<std::unique_ptr<TaskStorageMap>> Create(
      simkern::Kernel& kernel, int fd, MapSpec spec);

  // Keyed by pid (u32 key).
  xbase::Result<Addr> LookupAddr(simkern::Kernel& kernel,
                                 std::span<const u8> key) override;
  xbase::Status Update(simkern::Kernel& kernel, std::span<const u8> key,
                       std::span<const u8> value, u64 flags) override;
  xbase::Status Delete(simkern::Kernel& kernel,
                       std::span<const u8> key) override;
  u32 entry_count() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<u32>(entries_.size());
  }

  // The helper-facing entry point: get (optionally creating) the storage
  // for the task whose struct lives at `task_addr`.
  xbase::Result<Addr> GetForTask(simkern::Kernel& kernel, Addr task_addr,
                                 bool create);

 private:
  TaskStorageMap(int fd, MapSpec spec) : Map(fd, std::move(spec)) {}

  mutable std::mutex mu_;        // guards entries_ across CPUs
  std::map<u32, Addr> entries_;  // pid -> value region
};

// ---- table ------------------------------------------------------------------------
// The fd table's readers lock only once Kernel::StartCpus has armed SMP;
// the single-threaded dispatch path (which hits Find on every map helper)
// keeps paying just an untaken branch. Create and Destroy always take the
// writer side.
class MapTable {
 public:
  explicit MapTable(simkern::Kernel& kernel) : kernel_(kernel) {}

  xbase::Result<int> Create(const MapSpec& spec);
  xbase::Result<Map*> Find(int fd);
  xbase::Result<const Map*> Find(int fd) const;
  xbase::Status Destroy(int fd);

  xbase::usize size() const {
    const auto guard = ReadTable();
    return maps_.size();
  }

  xbase::RwLockStats lock_stats() const { return lock_.stats(); }

 private:
  xbase::StripedRwLock::ReadGuard ReadTable() const {
    return xbase::StripedRwLock::ReadGuard(lock_, kernel_.smp_active());
  }

  simkern::Kernel& kernel_;
  xbase::StripedRwLock lock_;  // guards maps_ and next_fd_
  std::map<int, std::unique_ptr<Map>> maps_;
  int next_fd_ = 3;
};

}  // namespace ebpf
