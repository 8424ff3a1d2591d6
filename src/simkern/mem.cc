#include "src/simkern/mem.h"

#include <cstring>
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
    case FaultKind::kOutOfBounds:
      return "out-of-bounds";
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

xbase::Status SimMemory::Fault(FaultKind kind, Addr addr, bool is_write,
                               std::string detail) {
  MemFault fault{kind, addr, is_write, std::move(detail)};
  const std::string text = fault.ToString();
  {
    std::lock_guard<std::mutex> guard(fault_mu_);
    fault_ = std::move(fault);
  }
  return xbase::KernelFault(text);
}

xbase::Status SimMemory::Read(Addr addr, std::span<u8> out) const {
  const auto table_guard = ReadTable();
  const Region* region = Locate(addr, out.size());
  if (region == nullptr) {
    return xbase::OutOfRange(
        xbase::StrFormat("trusted read of unmapped 0x%llx+%zu",
                         static_cast<unsigned long long>(addr), out.size()));
  }
  std::memcpy(out.data(), region->bytes.data() + (addr - region->base),
              out.size());
  return xbase::Status::Ok();
}

xbase::Status SimMemory::Write(Addr addr, std::span<const u8> data) {
  const auto table_guard = ReadTable();
  const Region* region = Locate(addr, data.size());
  if (region == nullptr) {
    return xbase::OutOfRange(
        xbase::StrFormat("trusted write of unmapped 0x%llx+%zu",
                         static_cast<unsigned long long>(addr), data.size()));
  }
  // Locate returns const; regions_ is ours, so the const_cast is local.
  Region* mut = const_cast<Region*>(region);
  std::memcpy(mut->bytes.data() + (addr - region->base), data.data(),
              data.size());
  return xbase::Status::Ok();
}

xbase::Status SimMemory::ReadChecked(Addr addr, std::span<u8> out,
                                     u32 access_key) {
  const auto table_guard = ReadTable();
  if (addr < kNullGuardSize) {
    return Fault(FaultKind::kNullDeref, addr, false, "read through NULL");
  }
  const Region* region = Locate(addr, out.size());
  if (region == nullptr) {
    return Fault(FaultKind::kUnmapped, addr, false,
                 "read of unmapped kernel address");
  }
  if (!PermAllowsRead(region->perm)) {
    return Fault(FaultKind::kPermission, addr, false,
                 "read of non-readable region " + region->name);
  }
  if (region->protection_key != 0 && access_key != 0 &&
      region->protection_key != access_key) {
    return Fault(FaultKind::kProtectionKey, addr, false,
                 "pkey mismatch on region " + region->name);
  }
  std::memcpy(out.data(), region->bytes.data() + (addr - region->base),
              out.size());
  return xbase::Status::Ok();
}

xbase::Status SimMemory::WriteChecked(Addr addr, std::span<const u8> data,
                                      u32 access_key) {
  const auto table_guard = ReadTable();
  if (addr < kNullGuardSize) {
    return Fault(FaultKind::kNullDeref, addr, true, "write through NULL");
  }
  const Region* region = Locate(addr, data.size());
  if (region == nullptr) {
    return Fault(FaultKind::kUnmapped, addr, true,
                 "write of unmapped kernel address");
  }
  if (!PermAllowsWrite(region->perm)) {
    return Fault(FaultKind::kPermission, addr, true,
                 "write to read-only region " + region->name);
  }
  if (region->protection_key != 0 && access_key != 0 &&
      region->protection_key != access_key) {
    return Fault(FaultKind::kProtectionKey, addr, true,
                 "pkey mismatch on region " + region->name);
  }
  Region* mut = const_cast<Region*>(region);
  std::memcpy(mut->bytes.data() + (addr - region->base), data.data(),
              data.size());
  return xbase::Status::Ok();
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
  // Pure region lookup — no NULL-guard, permission, key, or fault
  // bookkeeping (see header). Region byte storage is stable for the
  // region's lifetime, so the returned window stays valid until Unmap.
  const auto table_guard = ReadTable();
  const Region* region = Locate(addr, 1);
  if (region == nullptr) {
    return {};
  }
  // Locate is const-qualified over our own regions_; the unchecked path
  // needs mutable bytes for stores.
  Region& mut = const_cast<Region&>(*region);
  return {mut.base, static_cast<xbase::u64>(mut.size), mut.bytes.data()};
}

void SimMemory::SetRegionKey(Addr base, u32 key) {
  std::lock_guard<xbase::StripedRwLock> table_guard(table_lock_);
  auto it = regions_.find(base);
  if (it != regions_.end()) {
    it->second.protection_key = key;
  }
}

std::optional<MemFault> SimMemory::TakeFault() {
  std::lock_guard<std::mutex> guard(fault_mu_);
  std::optional<MemFault> fault = std::move(fault_);
  fault_.reset();
  return fault;
}

}  // namespace simkern
