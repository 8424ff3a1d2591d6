// The simulated kernel address space. Extensions and helpers read and write
// through this layer; any access outside a mapped region, against region
// permissions, or through the NULL page is an *oops* — the simulation's
// equivalent of a kernel crash — recorded for the experiment harnesses
// instead of taking the process down.
//
// Layout mirrors x86-64 Linux: kernel addresses live high (0xffff8800...),
// the first page is never mapped so NULL dereferences are always caught.
#pragma once

#include <atomic>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/xbase/rwlock.h"
#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace simkern {

using Addr = xbase::u64;

inline constexpr Addr kKernelBase = 0xffff'8800'0000'0000ULL;
inline constexpr Addr kNullGuardSize = 4096;  // first page never mapped

enum class MemPerm : xbase::u8 {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
  kExec = 4,
  kReadExec = 5,
};

inline bool PermAllowsRead(MemPerm perm) {
  return (static_cast<xbase::u8>(perm) & 1) != 0;
}
inline bool PermAllowsWrite(MemPerm perm) {
  return (static_cast<xbase::u8>(perm) & 2) != 0;
}

// What kind of memory a region backs; the protection-domain experiments and
// the verifier's pointer-type rules both key off this.
enum class RegionKind : xbase::u8 {
  kKernelText,
  kKernelData,
  kTaskStruct,
  kSockStruct,
  kSkBuff,
  kMapData,
  kExtensionStack,
  kExtensionPool,
  kPerCpu,
};

struct Region {
  Addr base = 0;
  xbase::usize size = 0;
  MemPerm perm = MemPerm::kReadWrite;
  RegionKind kind = RegionKind::kKernelData;
  std::string name;
  // Protection-domain key (0 = kernel default). Used by the §4 PKS/MPK
  // simulation: accesses must present a matching key unless key is 0.
  xbase::u32 protection_key = 0;
  std::vector<xbase::u8> bytes;

  Addr end() const { return base + size; }
};

enum class FaultKind : xbase::u8 {
  kNullDeref,
  kUnmapped,
  kPermission,
  kProtectionKey,
};

std::string_view FaultKindName(FaultKind kind);

struct MemFault {
  FaultKind kind;
  Addr addr = 0;
  bool is_write = false;
  std::string detail;

  std::string ToString() const;
  // The KERNEL_FAULT status that Kernel::Route turns into an oops.
  xbase::Status ToStatus() const;
};

class SimMemory {
 public:
  SimMemory() = default;
  SimMemory(const SimMemory&) = delete;
  SimMemory& operator=(const SimMemory&) = delete;

  // Maps a fresh zero-filled region at the next free kernel address (or at
  // `fixed_base` if nonzero). Returns its base address.
  xbase::Result<Addr> Map(xbase::usize size, MemPerm perm, RegionKind kind,
                          std::string name, Addr fixed_base = 0);

  xbase::Status Unmap(Addr base);

  // Raw accessors used by trusted kernel code (helpers, map internals):
  // still bounds-checked, but exempt from permissions and protection keys.
  xbase::Status Read(Addr addr, std::span<xbase::u8> out) const;
  xbase::Status Write(Addr addr, std::span<const xbase::u8> data);

  // The checked access every extension load, store and atomic goes
  // through: resolves `size` bytes at `addr` for `need` (kRead, kWrite, or
  // kReadWrite for a read-modify-write) and runs fn(host bytes) while the
  // region table is held. Key 0 is the supervisor: kernel code (and eBPF
  // programs, which have no domain of their own) bypass protection keys;
  // nonzero keys must match the region's key. A disallowed access returns
  // its fault to this caller and nowhere else.
  template <typename Fn>
  std::optional<MemFault> AccessChecked(Addr addr, xbase::usize size,
                                        MemPerm need, xbase::u32 access_key,
                                        Fn&& fn) {
    const auto table_guard = ReadTable();
    const Resolved resolved =
        Resolve(addr, size, need, /*check=*/true, access_key);
    if (resolved.bytes == nullptr) {
      return Describe(resolved, addr, need);
    }
    fn(resolved.bytes);
    return std::nullopt;
  }
  std::optional<MemFault> ReadChecked(Addr addr, std::span<xbase::u8> out,
                                      xbase::u32 access_key);
  std::optional<MemFault> WriteChecked(Addr addr,
                                       std::span<const xbase::u8> data,
                                       xbase::u32 access_key);

  // Typed convenience (little-endian, as BPF defines).
  xbase::Result<xbase::u64> ReadU64(Addr addr) const;
  xbase::Result<xbase::u32> ReadU32(Addr addr) const;
  xbase::Status WriteU64(Addr addr, xbase::u64 value);
  xbase::Status WriteU32(Addr addr, xbase::u32 value);

  // Direct byte access to a whole region for trusted code that already
  // resolved it (map storage, stacks). Null if not mapped at exactly `base`.
  Region* FindRegion(Addr base);
  const Region* FindRegionContaining(Addr addr) const;

  // Region translation for the elided-check execution path. When the JIT
  // has a static proof that an access is in bounds, the engine skips
  // AccessChecked entirely and caches {base, len, bytes} windows from this
  // call. Deliberately performs NO permission,
  // protection-key, or NULL-guard enforcement and records no MemFault:
  // if the proof was wrong (a buggy verifier), the access must *succeed
  // silently* against whatever memory is there — the paper's
  // "buggy verifier ⇒ silent corruption" chain, not a caught oops.
  struct DirectWindow {
    Addr base = 0;
    xbase::u64 len = 0;
    xbase::u8* bytes = nullptr;
  };
  DirectWindow TranslateForUnchecked(Addr addr);

  // Wild (unmapped-address) accesses taken through the unchecked path.
  // The corruption-witness tests read these: a nonzero count after a run
  // that raised no fault is the observable signature of an elided check
  // that was actually load-bearing.
  void NoteWildRead() {
    unchecked_wild_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteWildWrite() {
    unchecked_wild_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  xbase::u64 unchecked_wild_reads() const {
    return unchecked_wild_reads_.load(std::memory_order_relaxed);
  }
  xbase::u64 unchecked_wild_writes() const {
    return unchecked_wild_writes_.load(std::memory_order_relaxed);
  }

  // Arms the reader side of the region-table lock. Off by default so the
  // single-threaded dispatch hot path pays only an untaken branch per
  // access; Kernel::StartCpus flips it before any worker thread runs.
  // Writers (Map, Unmap, SetRegionKey) always lock.
  // Note the lock protects the region *table* (Map/Unmap vs lookups), not
  // region byte contents: every byte access made through this class is a
  // relaxed atomic one (xbase::CopyRelaxed and friends), so concurrent
  // accesses never race, but a read-modify-write other than BPF_ATOMIC add
  // can still lose an update another CPU made in between.
  void EnableConcurrentAccess() {
    concurrent_.store(true, std::memory_order_release);
  }

  void SetRegionKey(Addr base, xbase::u32 key);

  xbase::usize region_count() const { return regions_.size(); }
  xbase::RwLockStats table_lock_stats() const { return table_lock_.stats(); }

 private:
  // Where an access lands: the host bytes at `addr` inside `region`, or
  // (bytes null) the check it failed. The region is null when none holds
  // the access.
  struct Resolved {
    Region* region = nullptr;
    xbase::u8* bytes = nullptr;
    FaultKind fault = FaultKind::kUnmapped;
  };
  // The one path from an address to region bytes. `check` adds the NULL
  // guard, permission and key checks of an access on an extension's
  // behalf; without it only the bounds are checked. Caller holds the
  // table guard.
  Resolved Resolve(Addr addr, xbase::usize size, MemPerm need, bool check,
                   xbase::u32 access_key) const {
    if (check && addr < kNullGuardSize) {
      return {nullptr, nullptr, FaultKind::kNullDeref};
    }
    // Locate returns const; regions_ is ours, so the const_cast is local.
    Region* region = const_cast<Region*>(Locate(addr, size));
    if (region == nullptr) {
      return {nullptr, nullptr, FaultKind::kUnmapped};
    }
    if (check && ((PermAllowsRead(need) && !PermAllowsRead(region->perm)) ||
                  (PermAllowsWrite(need) && !PermAllowsWrite(region->perm)))) {
      return {region, nullptr, FaultKind::kPermission};
    }
    if (check && region->protection_key != 0 && access_key != 0 &&
        region->protection_key != access_key) {
      return {region, nullptr, FaultKind::kProtectionKey};
    }
    return {region, region->bytes.data() + (addr - region->base)};
  }
  // The MemFault a failed checked Resolve stands for. Its text is built
  // here, off the path of accesses that succeed. Caller holds the table
  // guard, which keeps the region's name alive.
  static MemFault Describe(const Resolved& resolved, Addr addr, MemPerm need);
  const Region* Locate(Addr addr, xbase::usize size) const;

  // The reader side of the region table; a no-op until
  // EnableConcurrentAccess.
  xbase::StripedRwLock::ReadGuard ReadTable() const {
    return xbase::StripedRwLock::ReadGuard(
        table_lock_, concurrent_.load(std::memory_order_acquire));
  }

  // Keyed by base address.
  std::map<Addr, Region> regions_;
  Addr next_base_ = kKernelBase + 0x10000;
  std::atomic<xbase::u64> unchecked_wild_reads_{0};
  std::atomic<xbase::u64> unchecked_wild_writes_{0};
  std::atomic<bool> concurrent_{false};
  // Guards regions_ and next_base_ (not region bytes).
  xbase::StripedRwLock table_lock_;
};

}  // namespace simkern
