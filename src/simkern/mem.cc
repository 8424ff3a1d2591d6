#include "src/simkern/mem.h"

#include <iterator>

#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace simkern {

using xbase::u32;
using xbase::u64;
using xbase::u8;
using xbase::usize;

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNullDeref:
      return "null-deref";
    case FaultKind::kUnmapped:
      return "unmapped";
    case FaultKind::kPermission:
      return "permission";
    case FaultKind::kProtectionKey:
      return "pkey";
  }
  return "unknown";
}

std::string MemFault::ToString() const {
  return xbase::StrFormat("BUG: %s %s at 0x%016llx (%s)",
                          FaultKindName(kind).data(),
                          is_write ? "write" : "read",
                          static_cast<unsigned long long>(addr),
                          detail.c_str());
}

xbase::Status MemFault::ToStatus() const {
  return xbase::KernelFault(ToString());
}

xbase::Result<Addr> SimMemory::Map(usize size, MemPerm perm, RegionKind kind,
                                   std::string name, Addr fixed_base) {
  if (size == 0) {
    return xbase::InvalidArgument("cannot map empty region: " + name);
  }
  if (fixed_base != 0 && fixed_base < kNullGuardSize) {
    return xbase::InvalidArgument("cannot map over the NULL guard page");
  }
  // Zero-fill outside the lock: the table is held exclusively only for the
  // address pick, the neighbour check and the insert.
  Region region;
  region.size = size;
  region.perm = perm;
  region.kind = kind;
  region.name = std::move(name);
  region.bytes.assign(size, 0);
  std::lock_guard<xbase::StripedRwLock> table_guard(table_lock_);
  Addr base = fixed_base;
  if (base == 0) {
    base = next_base_;
    // Keep a guard gap between regions so off-the-end accesses fault
    // instead of landing in a neighbour.
    next_base_ += (size + 0xfff) / 0x1000 * 0x1000 + 0x1000;
  }
  // Regions never overlap each other, so only the nearest region at or
  // below `base` and the nearest one above it can overlap the new one.
  const auto next = regions_.upper_bound(base);
  const Region* overlap = nullptr;
  if (next != regions_.begin() && std::prev(next)->second.end() > base) {
    overlap = &std::prev(next)->second;
  } else if (next != regions_.end() && next->second.base < base + size) {
    overlap = &next->second;
  }
  if (overlap != nullptr) {
    return xbase::AlreadyExists(
        xbase::StrFormat("region overlap at 0x%llx (%s vs %s)",
                         static_cast<unsigned long long>(base),
                         region.name.c_str(), overlap->name.c_str()));
  }
  region.base = base;
  regions_.emplace(base, std::move(region));
  return base;
}

xbase::Status SimMemory::Unmap(Addr base) {
  // The region's bytes are freed after the table is released.
  std::map<Addr, Region>::node_type unmapped;
  {
    std::lock_guard<xbase::StripedRwLock> table_guard(table_lock_);
    auto it = regions_.find(base);
    if (it == regions_.end()) {
      return xbase::NotFound(
          xbase::StrFormat("no region mapped at 0x%llx",
                           static_cast<unsigned long long>(base)));
    }
    unmapped = regions_.extract(it);
  }
  return xbase::Status::Ok();
}

const Region* SimMemory::Locate(Addr addr, usize size) const {
  // regions_ is keyed by base; upper_bound-1 is the candidate region.
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) {
    return nullptr;
  }
  --it;
  const Region& region = it->second;
  if (addr < region.base || addr + size > region.end()) {
    return nullptr;
  }
  return &region;
}

MemFault SimMemory::Describe(const Resolved& resolved, Addr addr,
                             MemPerm need) {
  // A read-modify-write faults as its read would, unless only the write
  // is refused.
  const bool write =
      !PermAllowsRead(need) || (resolved.fault == FaultKind::kPermission &&
                                PermAllowsRead(resolved.region->perm));
  const char* verb = write ? "write" : "read";
  std::string detail;
  switch (resolved.fault) {
    case FaultKind::kNullDeref:
      detail = xbase::StrFormat("%s through NULL", verb);
      break;
    case FaultKind::kPermission:
      detail = (write ? "write to read-only region "
                      : "read of non-readable region ") +
               resolved.region->name;
      break;
    case FaultKind::kProtectionKey:
      detail = "pkey mismatch on region " + resolved.region->name;
      break;
    default:
      detail = xbase::StrFormat("%s of unmapped kernel address", verb);
  }
  return {resolved.fault, addr, write, std::move(detail)};
}

xbase::Status SimMemory::Read(Addr addr, std::span<u8> out) const {
  const auto table_guard = ReadTable();
  const Resolved resolved =
      Resolve(addr, out.size(), MemPerm::kRead, /*check=*/false, 0);
  if (resolved.bytes == nullptr) {
    return xbase::OutOfRange(
        xbase::StrFormat("trusted read of unmapped 0x%llx+%zu",
                         static_cast<unsigned long long>(addr), out.size()));
  }
  xbase::CopyRelaxed(out.data(), resolved.bytes, out.size());
  return xbase::Status::Ok();
}

xbase::Status SimMemory::Write(Addr addr, std::span<const u8> data) {
  const auto table_guard = ReadTable();
  const Resolved resolved =
      Resolve(addr, data.size(), MemPerm::kWrite, /*check=*/false, 0);
  if (resolved.bytes == nullptr) {
    return xbase::OutOfRange(
        xbase::StrFormat("trusted write of unmapped 0x%llx+%zu",
                         static_cast<unsigned long long>(addr), data.size()));
  }
  xbase::CopyRelaxed(resolved.bytes, data.data(), data.size());
  return xbase::Status::Ok();
}

std::optional<MemFault> SimMemory::ReadChecked(Addr addr, std::span<u8> out,
                                               u32 access_key) {
  return AccessChecked(addr, out.size(), MemPerm::kRead, access_key,
                       [&](const u8* bytes) {
                         xbase::CopyRelaxed(out.data(), bytes, out.size());
                       });
}

std::optional<MemFault> SimMemory::WriteChecked(Addr addr,
                                                std::span<const u8> data,
                                                u32 access_key) {
  return AccessChecked(addr, data.size(), MemPerm::kWrite, access_key,
                       [&](u8* bytes) {
                         xbase::CopyRelaxed(bytes, data.data(), data.size());
                       });
}

xbase::Result<u64> SimMemory::ReadU64(Addr addr) const {
  u8 buf[8];
  XB_RETURN_IF_ERROR(Read(addr, buf));
  return xbase::LoadLe64(buf);
}

xbase::Result<u32> SimMemory::ReadU32(Addr addr) const {
  u8 buf[4];
  XB_RETURN_IF_ERROR(Read(addr, buf));
  return xbase::LoadLe32(buf);
}

xbase::Status SimMemory::WriteU64(Addr addr, u64 value) {
  u8 buf[8];
  xbase::StoreLe64(buf, value);
  return Write(addr, buf);
}

xbase::Status SimMemory::WriteU32(Addr addr, u32 value) {
  u8 buf[4];
  xbase::StoreLe32(buf, value);
  return Write(addr, buf);
}

Region* SimMemory::FindRegion(Addr base) {
  const auto table_guard = ReadTable();
  auto it = regions_.find(base);
  return it == regions_.end() ? nullptr : &it->second;
}

const Region* SimMemory::FindRegionContaining(Addr addr) const {
  const auto table_guard = ReadTable();
  return Locate(addr, 1);
}

SimMemory::DirectWindow SimMemory::TranslateForUnchecked(Addr addr) {
  // Bounds only — no NULL-guard, permission, key, or fault bookkeeping (see
  // header). Region byte storage is stable for the region's lifetime, so
  // the returned window stays valid until Unmap.
  const auto table_guard = ReadTable();
  const Resolved resolved =
      Resolve(addr, 1, MemPerm::kReadWrite, /*check=*/false, 0);
  if (resolved.bytes == nullptr) {
    return {};
  }
  Region& region = *resolved.region;
  return {region.base, static_cast<u64>(region.size), region.bytes.data()};
}

void SimMemory::SetRegionKey(Addr base, u32 key) {
  std::lock_guard<xbase::StripedRwLock> table_guard(table_lock_);
  auto it = regions_.find(base);
  if (it != regions_.end()) {
    it->second.protection_key = key;
  }
}

}  // namespace simkern
