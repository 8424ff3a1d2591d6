#include "src/core/api.h"

#include <limits>

#include "src/core/ext.h"
#include "src/core/panic.h"
#include "src/ebpf/helper.h"
#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace safex {

using simkern::Addr;
using xbase::StrFormat;

// ---- checked integers ------------------------------------------------------------

std::optional<s64> CheckedAdd(s64 a, s64 b) {
  s64 out;
  if (__builtin_add_overflow(a, b, &out)) {
    return std::nullopt;
  }
  return out;
}
std::optional<s64> CheckedSub(s64 a, s64 b) {
  s64 out;
  if (__builtin_sub_overflow(a, b, &out)) {
    return std::nullopt;
  }
  return out;
}
std::optional<s64> CheckedMul(s64 a, s64 b) {
  s64 out;
  if (__builtin_mul_overflow(a, b, &out)) {
    return std::nullopt;
  }
  return out;
}

// ---- Slice -----------------------------------------------------------------------

xbase::Status Slice::CheckRange(u32 off, u32 size) const {
  if (ctx_ == nullptr) {
    return xbase::FailedPrecondition("use of an invalid slice");
  }
  if (ctx_->terminated()) {
    return xbase::Terminated(ctx_->termination_reason());
  }
  if (static_cast<u64>(off) + size > len_) {
    // The Rust analogue is an index-out-of-bounds panic: the access never
    // reaches memory.
    ctx_->Panic(StrFormat("slice index out of bounds: off %u size %u len %u",
                          off, size, len_));
  }
  return xbase::Status::Ok();
}

xbase::Result<u64> Slice::ReadU64(u32 off) const {
  XB_RETURN_IF_ERROR(CheckRange(off, 8));
  u8 buf[8];
  XB_RETURN_IF_ERROR(ctx_->DomainRead(base_ + off, buf));
  return xbase::LoadLe64(buf);
}
xbase::Result<u32> Slice::ReadU32(u32 off) const {
  XB_RETURN_IF_ERROR(CheckRange(off, 4));
  u8 buf[4];
  XB_RETURN_IF_ERROR(ctx_->DomainRead(base_ + off, buf));
  return xbase::LoadLe32(buf);
}
xbase::Result<u16> Slice::ReadU16(u32 off) const {
  XB_RETURN_IF_ERROR(CheckRange(off, 2));
  u8 buf[2];
  XB_RETURN_IF_ERROR(ctx_->DomainRead(base_ + off, buf));
  return xbase::LoadLe16(buf);
}
xbase::Result<u8> Slice::ReadU8(u32 off) const {
  XB_RETURN_IF_ERROR(CheckRange(off, 1));
  u8 value;
  XB_RETURN_IF_ERROR(ctx_->DomainRead(base_ + off, {&value, 1}));
  return value;
}
xbase::Result<std::vector<u8>> Slice::ReadBytes(u32 off, u32 len) const {
  XB_RETURN_IF_ERROR(CheckRange(off, len));
  std::vector<u8> out(len);
  XB_RETURN_IF_ERROR(ctx_->DomainRead(base_ + off, out));
  return out;
}

xbase::Status Slice::WriteU64(u32 off, u64 value) {
  XB_RETURN_IF_ERROR(CheckRange(off, 8));
  u8 buf[8];
  xbase::StoreLe64(buf, value);
  return ctx_->DomainWrite(base_ + off, buf);
}
xbase::Status Slice::WriteU32(u32 off, u32 value) {
  XB_RETURN_IF_ERROR(CheckRange(off, 4));
  u8 buf[4];
  xbase::StoreLe32(buf, value);
  return ctx_->DomainWrite(base_ + off, buf);
}
xbase::Status Slice::WriteU16(u32 off, u16 value) {
  XB_RETURN_IF_ERROR(CheckRange(off, 2));
  u8 buf[2];
  xbase::StoreLe16(buf, value);
  return ctx_->DomainWrite(base_ + off, buf);
}
xbase::Status Slice::WriteU8(u32 off, u8 value) {
  XB_RETURN_IF_ERROR(CheckRange(off, 1));
  return ctx_->DomainWrite(base_ + off, {&value, 1});
}
xbase::Status Slice::WriteBytes(u32 off, std::span<const u8> data) {
  XB_RETURN_IF_ERROR(CheckRange(off, static_cast<u32>(data.size())));
  return ctx_->DomainWrite(base_ + off, data);
}

xbase::Result<Slice> Slice::SubSlice(u32 off, u32 len) const {
  XB_RETURN_IF_ERROR(CheckRange(off, len));
  return Slice(ctx_, base_ + off, len);
}

// ---- SockRef ----------------------------------------------------------------------

SockRef::SockRef(SockRef&& other) noexcept
    : ctx_(other.ctx_), object_id_(other.object_id_),
      struct_addr_(other.struct_addr_) {
  other.ctx_ = nullptr;
}
SockRef& SockRef::operator=(SockRef&& other) noexcept {
  if (this != &other) {
    Release();
    ctx_ = other.ctx_;
    object_id_ = other.object_id_;
    struct_addr_ = other.struct_addr_;
    other.ctx_ = nullptr;
  }
  return *this;
}
SockRef::~SockRef() { Release(); }

void SockRef::Release() {
  if (ctx_ != nullptr) {
    ctx_->ReleaseSock(object_id_);
    ctx_ = nullptr;
  }
}

namespace {
u32 ReadSockField32(Ctx* ctx, Addr addr, xbase::usize off) {
  u8 buf[4] = {};
  if (ctx != nullptr) {
    (void)ctx->kernel().mem().Read(addr + off, buf);
  }
  return xbase::LoadLe32(buf);
}
u16 ReadSockField16(Ctx* ctx, Addr addr, xbase::usize off) {
  u8 buf[2] = {};
  if (ctx != nullptr) {
    (void)ctx->kernel().mem().Read(addr + off, buf);
  }
  return xbase::LoadLe16(buf);
}
}  // namespace

u32 SockRef::src_ip() const {
  return ReadSockField32(ctx_, struct_addr_, simkern::SockLayout::kSrcIp);
}
u16 SockRef::src_port() const {
  return ReadSockField16(ctx_, struct_addr_, simkern::SockLayout::kSrcPort);
}
u16 SockRef::dst_port() const {
  return ReadSockField16(ctx_, struct_addr_, simkern::SockLayout::kDstPort);
}
u32 SockRef::protocol() const {
  return ReadSockField32(ctx_, struct_addr_, simkern::SockLayout::kProtocol);
}

// ---- LockGuard --------------------------------------------------------------------

LockGuard::LockGuard(LockGuard&& other) noexcept
    : ctx_(other.ctx_), lock_id_(other.lock_id_) {
  other.ctx_ = nullptr;
}
LockGuard& LockGuard::operator=(LockGuard&& other) noexcept {
  if (this != &other) {
    Release();
    ctx_ = other.ctx_;
    lock_id_ = other.lock_id_;
    other.ctx_ = nullptr;
  }
  return *this;
}
LockGuard::~LockGuard() { Release(); }

void LockGuard::Release() {
  if (ctx_ != nullptr) {
    ctx_->ReleaseLock(lock_id_);
    ctx_ = nullptr;
  }
}

// ---- MapRef ------------------------------------------------------------------------

u32 MapRef::key_size() const {
  return map_ == nullptr ? 0 : map_->spec().key_size;
}
u32 MapRef::value_size() const {
  return map_ == nullptr ? 0 : map_->spec().value_size;
}

xbase::Result<Slice> MapRef::Lookup(std::span<const u8> key) {
  if (ctx_ == nullptr || map_ == nullptr) {
    return xbase::FailedPrecondition("use of an invalid map handle");
  }
  XB_RETURN_IF_ERROR(ctx_->Charge(simkern::kCostMapOpNs));
  auto addr = map_->LookupAddr(ctx_->kernel(), key);
  if (!addr.ok()) {
    return addr.status();
  }
  return Slice(ctx_, addr.value(), map_->spec().value_size);
}

xbase::Status MapRef::Update(std::span<const u8> key,
                             std::span<const u8> value, u64 flags) {
  if (ctx_ == nullptr || map_ == nullptr) {
    return xbase::FailedPrecondition("use of an invalid map handle");
  }
  XB_RETURN_IF_ERROR(ctx_->Charge(simkern::kCostMapOpNs));
  return map_->Update(ctx_->kernel(), key, value, flags);
}

xbase::Status MapRef::Delete(std::span<const u8> key) {
  if (ctx_ == nullptr || map_ == nullptr) {
    return xbase::FailedPrecondition("use of an invalid map handle");
  }
  XB_RETURN_IF_ERROR(ctx_->Charge(simkern::kCostMapOpNs));
  return map_->Delete(ctx_->kernel(), key);
}

xbase::Result<Slice> MapRef::LookupOrInit(std::span<const u8> key) {
  auto found = Lookup(key);
  if (found.ok()) {
    return found;
  }
  std::vector<u8> zero(map_->spec().value_size, 0);
  XB_RETURN_IF_ERROR(Update(key, zero, ebpf::kBpfAny));
  return Lookup(key);
}

xbase::Result<Slice> MapRef::LookupIndex(u32 index) {
  u8 key[4];
  xbase::StoreLe32(key, index);
  return Lookup(key);
}

xbase::Status MapRef::UpdateIndex(u32 index, std::span<const u8> value) {
  u8 key[4];
  xbase::StoreLe32(key, index);
  return Update(key, value, ebpf::kBpfAny);
}

// ---- Ctx ----------------------------------------------------------------------------

Ctx::Ctx(Runtime& runtime, const CapSet& caps, u64 watchdog_budget_ns,
         Addr skb_meta)
    : runtime_(runtime), caps_(caps), skb_meta_(skb_meta) {
  watchdog_.Arm(runtime.kernel().clock(), watchdog_budget_ns);
}

simkern::Kernel& Ctx::kernel() { return runtime_.kernel(); }

void Ctx::Panic(std::string reason) {
  if (!terminated_) {
    terminated_ = true;
    reason_ = std::move(reason);
  }
  // Models the asynchronous kill: control leaves the extension immediately.
  // The only frames unwound belong to the extension body and the trusted
  // crate; the harness in Runtime::Invoke catches this and runs the
  // cleanup registry (see DESIGN.md on the no-ABI-unwinding substitution).
  throw TerminationSignal{};
}

xbase::Status Ctx::Charge(u64 cost_ns) {
  if (terminated_) {
    return xbase::Terminated(reason_);
  }
  ++stats_.crate_calls;
  stats_.charged_ns += cost_ns;
  runtime_.kernel().clock().Advance(cost_ns);
  if (watchdog_.Expired(runtime_.kernel().clock())) {
    Panic("watchdog: invocation budget exceeded");
  }
  return xbase::Status::Ok();
}

xbase::Status Ctx::RequireCap(Capability cap) {
  if (terminated_) {
    return xbase::Terminated(reason_);
  }
  if (!HasCap(caps_, cap)) {
    Panic(StrFormat("capability violation: %s not in signed manifest",
                    CapabilityName(cap).data()));
  }
  return xbase::Status::Ok();
}

xbase::Status Ctx::DomainRead(Addr addr, std::span<u8> out) {
  if (auto fault = runtime_.kernel().mem().ReadChecked(
          addr, out, runtime_.config().protection_key)) {
    // A domain fault is contained: panic the extension instead of oopsing
    // the kernel.
    Panic("memory domain violation on read");
    return fault->ToStatus();
  }
  return xbase::Status::Ok();
}

xbase::Status Ctx::DomainWrite(Addr addr, std::span<const u8> data) {
  if (auto fault = runtime_.kernel().mem().WriteChecked(
          addr, data, runtime_.config().protection_key)) {
    Panic("memory domain violation on write");
    return fault->ToStatus();
  }
  return xbase::Status::Ok();
}

u64 Ctx::KtimeNs() {
  (void)Charge(5);
  return runtime_.kernel().clock().now_ns();
}

u64 Ctx::PidTgid() {
  (void)Charge(5);
  const simkern::Task* task = runtime_.kernel().tasks().current(
      runtime_.kernel().current_cpu());
  if (task == nullptr) {
    return 0;
  }
  return (static_cast<u64>(task->tgid) << 32) | task->pid;
}

xbase::Result<TaskRef> Ctx::CurrentTask() {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kTaskInspect));
  XB_RETURN_IF_ERROR(Charge(10));
  const simkern::Task* task = runtime_.kernel().tasks().current(
      runtime_.kernel().current_cpu());
  if (task == nullptr) {
    return xbase::FailedPrecondition("no current task");
  }
  return TaskRef(task->pid, task->tgid, task->comm, task->struct_addr);
}

xbase::Result<s64> Ctx::ParseInt(std::string_view text) {
  XB_RETURN_IF_ERROR(Charge(10));
  // core::str::parse::<i64> semantics: optional sign, decimal digits, the
  // whole string must be consumed.
  if (text.empty()) {
    return xbase::InvalidArgument("empty string");
  }
  xbase::usize pos = 0;
  bool negative = false;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    pos = 1;
  }
  if (pos >= text.size()) {
    return xbase::InvalidArgument("no digits");
  }
  s64 value = 0;
  for (; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c < '0' || c > '9') {
      return xbase::InvalidArgument("invalid digit");
    }
    auto scaled = CheckedMul(value, 10);
    if (!scaled.has_value()) {
      return xbase::OutOfRange("integer overflow");
    }
    auto summed = CheckedAdd(*scaled, c - '0');
    if (!summed.has_value()) {
      return xbase::OutOfRange("integer overflow");
    }
    value = *summed;
  }
  return negative ? -value : value;
}

int Ctx::StrCmp(std::string_view a, std::string_view b, u32 max_len) {
  const xbase::usize len =
      std::min<xbase::usize>({a.size(), b.size(), max_len});
  for (xbase::usize i = 0; i < len; ++i) {
    if (a[i] != b[i]) {
      return static_cast<int>(static_cast<u8>(a[i])) -
             static_cast<int>(static_cast<u8>(b[i]));
    }
  }
  if (len == max_len) {
    return 0;
  }
  return static_cast<int>(a.size()) - static_cast<int>(b.size());
}

xbase::Status Ctx::Tick() { return Charge(1); }

xbase::Result<MapRef> Ctx::Map(int fd) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kMapAccess));
  XB_RETURN_IF_ERROR(Charge(5));
  auto map = runtime_.maps().Find(fd);
  if (!map.ok()) {
    return map.status();
  }
  return MapRef(this, map.value());
}

xbase::Result<Slice> Ctx::Packet() {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kPacketAccess));
  XB_RETURN_IF_ERROR(Charge(10));
  if (skb_meta_ == 0) {
    return xbase::FailedPrecondition("no packet context on this hook");
  }
  auto data = runtime_.kernel().mem().ReadU64(
      skb_meta_ + simkern::SkBuffLayout::kDataPtr);
  auto len = runtime_.kernel().mem().ReadU32(
      skb_meta_ + simkern::SkBuffLayout::kLen);
  if (!data.ok() || !len.ok()) {
    return xbase::Internal("corrupt skb metadata");
  }
  return Slice(this, data.value(), len.value());
}

xbase::Result<u32> Ctx::PacketLen() {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kPacketAccess));
  XB_RETURN_IF_ERROR(Charge(5));
  if (skb_meta_ == 0) {
    return xbase::FailedPrecondition("no packet context on this hook");
  }
  return runtime_.kernel().mem().ReadU32(skb_meta_ +
                                         simkern::SkBuffLayout::kLen);
}

xbase::Result<SockRef> Ctx::LookupSock(const simkern::SockTuple& tuple,
                                       u32 protocol) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kSockLookup));
  XB_RETURN_IF_ERROR(Charge(350));
  const auto sock = runtime_.kernel().net().Lookup(tuple);
  if (!sock.has_value() || sock->protocol != protocol) {
    return xbase::NotFound("no matching socket");
  }
  // Record the release *before* taking the reference: if the registry is
  // full we refuse the acquisition, never the release.
  XB_RETURN_IF_ERROR(
      cleanup_.Record(CleanupKind::kReleaseObject, sock->object_id));
  const xbase::Status acquired =
      runtime_.kernel().objects().Acquire(sock->object_id);
  if (!acquired.ok()) {
    cleanup_.Discharge(CleanupKind::kReleaseObject, sock->object_id);
    return acquired;
  }
  return SockRef(this, sock->object_id, sock->struct_addr);
}

xbase::Result<SockRef> Ctx::LookupTcp(const simkern::SockTuple& tuple) {
  return LookupSock(tuple, 6);
}

void Ctx::ReleaseSock(simkern::ObjectId id) {
  (void)runtime_.kernel().objects().Release(id);
  cleanup_.Discharge(CleanupKind::kReleaseObject, id);
}

xbase::Result<Slice> Ctx::TaskStorage(int fd, const TaskRef& task,
                                      bool create) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kTaskInspect));
  XB_RETURN_IF_ERROR(RequireCap(Capability::kMapAccess));
  XB_RETURN_IF_ERROR(Charge(simkern::kCostMapOpNs));
  auto map = runtime_.maps().Find(fd);
  if (!map.ok()) {
    return map.status();
  }
  auto* storage = dynamic_cast<ebpf::TaskStorageMap*>(map.value());
  if (storage == nullptr) {
    return xbase::InvalidArgument("not a task-storage map");
  }
  // `task` is a reference type: there is no NULL to dereference. This is
  // the §3.2 hardening of bpf_task_storage_get.
  auto addr =
      storage->GetForTask(runtime_.kernel(), task.struct_addr_, create);
  if (!addr.ok()) {
    return addr.status();
  }
  return Slice(this, addr.value(), storage->spec().value_size);
}

xbase::Result<LockGuard> Ctx::Lock(int map_fd, u32 value_off) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kSpinLock));
  XB_RETURN_IF_ERROR(Charge(20));
  const simkern::LockId id = runtime_.LockIdFor(map_fd, value_off);
  XB_RETURN_IF_ERROR(cleanup_.Record(CleanupKind::kReleaseLock, id));
  const xbase::Status acquired =
      runtime_.kernel().locks().Acquire(id, "safex");
  if (!acquired.ok()) {
    cleanup_.Discharge(CleanupKind::kReleaseLock, id);
    // Double-acquire through the RAII API means the extension author held
    // two guards; the runtime refuses rather than deadlocks.
    return acquired;
  }
  return LockGuard(this, id);
}

void Ctx::ReleaseLock(simkern::LockId id) {
  (void)runtime_.kernel().locks().Release(id);
  cleanup_.Discharge(CleanupKind::kReleaseLock, id);
}

xbase::Status Ctx::RingbufOutput(int fd, std::span<const u8> data) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kRingBuf));
  XB_RETURN_IF_ERROR(Charge(120));
  auto map = runtime_.maps().Find(fd);
  if (!map.ok()) {
    return map.status();
  }
  auto* ringbuf = dynamic_cast<ebpf::RingBufMap*>(map.value());
  if (ringbuf == nullptr) {
    return xbase::InvalidArgument("not a ringbuf map");
  }
  return ringbuf->Output(runtime_.kernel(), data);
}

xbase::Result<Slice> Ctx::Alloc(u32 size) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kDynAlloc));
  XB_RETURN_IF_ERROR(Charge(30));
  MemoryPool& pool = runtime_.pool_for_cpu(0);
  if (size > pool.chunk_size()) {
    return xbase::InvalidArgument(
        StrFormat("allocation of %u exceeds pool chunk size %u", size,
                  pool.chunk_size()));
  }
  XB_ASSIGN_OR_RETURN(const Addr addr, pool.Alloc(runtime_.kernel()));
  XB_RETURN_IF_ERROR(cleanup_.Record(CleanupKind::kFreePoolChunk, addr));
  return Slice(this, addr, size);
}

xbase::Status Ctx::Free(const Slice& slice) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kDynAlloc));
  XB_RETURN_IF_ERROR(Charge(10));
  MemoryPool& pool = runtime_.pool_for_cpu(0);
  XB_RETURN_IF_ERROR(pool.Free(slice.raw_addr_for_crate()));
  cleanup_.Discharge(CleanupKind::kFreePoolChunk,
                     slice.raw_addr_for_crate());
  return xbase::Status::Ok();
}

xbase::Result<s64> Ctx::SysBpfMapCreate(u32 value_size, u32 max_entries) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kSysBpf));
  XB_RETURN_IF_ERROR(Charge(500));
  // Build a well-formed attr and call the *same* unsafe kernel
  // implementation the eBPF helper uses — the §3.2 pattern: a typed safe
  // interface wrapping unchanged unsafe code.
  auto fn = runtime_.bpf().helpers().FindFn(ebpf::kHelperSysBpf);
  if (!fn.ok()) {
    return fn.status();
  }
  XB_ASSIGN_OR_RETURN(Slice attr, Alloc(64));
  XB_RETURN_IF_ERROR(attr.WriteU32(4, value_size));
  XB_RETURN_IF_ERROR(attr.WriteU32(8, max_entries));
  ebpf::HelperCtx hctx = runtime_.bpf().MakeHelperCtx(nullptr);
  const ebpf::HelperArgs args = {ebpf::kSysBpfMapCreate,
                                 attr.raw_addr_for_crate(), 64, 0, 0};
  auto ret = (*fn.value())(hctx, args);
  (void)Free(attr);
  if (!ret.ok()) {
    return ret.status();
  }
  return static_cast<s64>(ret.value());
}

xbase::Result<s64> Ctx::SysBpfProgLoad(const Slice& insns) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kSysBpf));
  XB_RETURN_IF_ERROR(Charge(500));
  if (!insns.valid()) {
    // The type system analogue: a dead Slice cannot stand in for an
    // instruction buffer, so the §2.2 NULL-union crash is unrepresentable.
    return xbase::InvalidArgument("instruction buffer slice is invalid");
  }
  auto fn = runtime_.bpf().helpers().FindFn(ebpf::kHelperSysBpf);
  if (!fn.ok()) {
    return fn.status();
  }
  XB_ASSIGN_OR_RETURN(Slice attr, Alloc(64));
  XB_RETURN_IF_ERROR(
      attr.WriteU64(ebpf::kSysBpfAttrInsnsPtrOff,
                    insns.raw_addr_for_crate()));
  ebpf::HelperCtx hctx = runtime_.bpf().MakeHelperCtx(nullptr);
  const ebpf::HelperArgs args = {ebpf::kSysBpfProgLoad,
                                 attr.raw_addr_for_crate(), 64, 0, 0};
  auto ret = (*fn.value())(hctx, args);
  (void)Free(attr);
  if (!ret.ok()) {
    return ret.status();
  }
  return static_cast<s64>(ret.value());
}

xbase::Status Ctx::Trace(std::string_view message) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kTracing));
  XB_RETURN_IF_ERROR(Charge(100));
  runtime_.kernel().Printk("safex: " + std::string(message));
  return xbase::Status::Ok();
}

xbase::Status Ctx::SendSignal(u32 sig) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kSignal));
  XB_RETURN_IF_ERROR(Charge(50));
  const simkern::Task* task = runtime_.kernel().tasks().current(
      runtime_.kernel().current_cpu());
  runtime_.kernel().Printk(StrFormat("safex: signal %u to pid %u", sig,
                                     task == nullptr ? 0 : task->pid));
  return xbase::Status::Ok();
}

xbase::Result<u64> Ctx::UnsafeReadKernel(Addr addr) {
  XB_RETURN_IF_ERROR(RequireCap(Capability::kUnsafeRaw));
  XB_RETURN_IF_ERROR(Charge(10));
  u8 buf[8];
  if (auto fault = runtime_.kernel().mem().ReadChecked(
          addr, buf, runtime_.config().protection_key)) {
    if (fault->kind == simkern::FaultKind::kProtectionKey) {
      // §4: the hardware domain contains even unsafe code — the extension
      // dies, the kernel does not.
      Panic("pkey violation in unsafe block: " + fault->ToString());
      return fault->ToStatus();
    }
    // Without a protection key the wild access is a genuine kernel fault.
    return runtime_.kernel().Route(fault->ToStatus());
  }
  return xbase::LoadLe64(buf);
}

xbase::Status Ctx::EnterFrame() {
  XB_RETURN_IF_ERROR(Charge(2));
  if (++frame_depth_ > kMaxExtensionFrames) {
    Panic(StrFormat("stack guard: recursion deeper than %u frames",
                    kMaxExtensionFrames));
  }
  stats_.max_stack_depth = std::max(stats_.max_stack_depth, frame_depth_);
  return xbase::Status::Ok();
}

void Ctx::LeaveFrame() {
  if (frame_depth_ > 0) {
    --frame_depth_;
  }
}

}  // namespace safex
