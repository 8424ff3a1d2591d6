// The trusted kernel crate (§3.1): the only interface safe extensions have
// to the kernel. It plays the role safe Rust plays in the paper — no raw
// pointers, no unchecked arithmetic, resources held by RAII handles whose
// releases are also recorded in the cleanup registry so that *any*
// termination (normal return, panic, watchdog) restores kernel state.
//
// C++ cannot reproduce rustc's compile-time proofs, so every guarantee the
// paper gets from the type system is enforced here as a *total* dynamic
// check inside the crate boundary: out-of-bounds slice access, integer
// overflow and use of a dead handle do not touch kernel memory at all; they
// panic the extension, which is terminated safely. The observable outcomes
// — kernel integrity preserved, extension stopped — match the paper's
// design point for point (see DESIGN.md §2, substitution table).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/caps.h"
#include "src/core/cleanup.h"
#include "src/core/pool.h"
#include "src/core/watchdog.h"
#include "src/ebpf/map.h"
#include "src/simkern/kernel.h"
#include "src/xbase/status.h"

namespace safex {

using xbase::s64;
using xbase::u16;
using xbase::u32;
using xbase::u64;
using xbase::u8;

class Ctx;
class Runtime;

// ---- checked integers (Rust integer semantics) --------------------------------

std::optional<s64> CheckedAdd(s64 a, s64 b);
std::optional<s64> CheckedSub(s64 a, s64 b);
std::optional<s64> CheckedMul(s64 a, s64 b);

// ---- Slice: the only window onto memory ---------------------------------------

// A bounds-checked view over a region the crate handed out (map value, pool
// chunk, packet bytes). Every accessor validates offset+size against the
// slice length *before* touching the memory model, so out-of-bounds access
// through the safe API is impossible by construction; a violation panics
// the extension instead.
class Slice {
 public:
  Slice() = default;

  bool valid() const { return ctx_ != nullptr && len_ > 0; }
  u32 size() const { return len_; }

  xbase::Result<u64> ReadU64(u32 off) const;
  xbase::Result<u32> ReadU32(u32 off) const;
  xbase::Result<u16> ReadU16(u32 off) const;
  xbase::Result<u8> ReadU8(u32 off) const;
  xbase::Result<std::vector<u8>> ReadBytes(u32 off, u32 len) const;

  xbase::Status WriteU64(u32 off, u64 value);
  xbase::Status WriteU32(u32 off, u32 value);
  xbase::Status WriteU16(u32 off, u16 value);
  xbase::Status WriteU8(u32 off, u8 value);
  xbase::Status WriteBytes(u32 off, std::span<const u8> data);

  // Sub-view; fails (panics) if the window escapes this slice.
  xbase::Result<Slice> SubSlice(u32 off, u32 len) const;

  // The underlying kernel address — exposed only so the hardened sys_bpf
  // wrapper can build a valid attr; extensions have no use for it.
  simkern::Addr raw_addr_for_crate() const { return base_; }

 private:
  friend class Ctx;
  friend class MapRef;
  Slice(Ctx* ctx, simkern::Addr base, u32 len)
      : ctx_(ctx), base_(base), len_(len) {}

  xbase::Status CheckRange(u32 off, u32 size) const;

  Ctx* ctx_ = nullptr;
  simkern::Addr base_ = 0;
  u32 len_ = 0;
};

// ---- RAII handles ----------------------------------------------------------------

// An acquired socket reference. Move-only; releasing is automatic at scope
// exit, and the cleanup registry covers every other termination path.
class SockRef {
 public:
  SockRef() = default;
  SockRef(SockRef&& other) noexcept;
  SockRef& operator=(SockRef&& other) noexcept;
  SockRef(const SockRef&) = delete;
  SockRef& operator=(const SockRef&) = delete;
  ~SockRef();

  bool valid() const { return ctx_ != nullptr; }
  u32 src_ip() const;
  u16 src_port() const;
  u16 dst_port() const;
  u32 protocol() const;

 private:
  friend class Ctx;
  SockRef(Ctx* ctx, simkern::ObjectId id, simkern::Addr addr)
      : ctx_(ctx), object_id_(id), struct_addr_(addr) {}

  void Release();

  Ctx* ctx_ = nullptr;
  simkern::ObjectId object_id_ = 0;
  simkern::Addr struct_addr_ = 0;
};

// A held spin lock; released on destruction (RAII replaces the verifier's
// lock-balance checking, per Table 2).
class LockGuard {
 public:
  LockGuard() = default;
  LockGuard(LockGuard&& other) noexcept;
  LockGuard& operator=(LockGuard&& other) noexcept;
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;
  ~LockGuard();

  bool held() const { return ctx_ != nullptr; }

 private:
  friend class Ctx;
  LockGuard(Ctx* ctx, simkern::LockId id) : ctx_(ctx), lock_id_(id) {}

  void Release();

  Ctx* ctx_ = nullptr;
  simkern::LockId lock_id_ = 0;
};

// A *reference* to a live task — cannot be null by construction, which is
// how §3.2 proposes to fix the bpf_task_storage_get NULL-owner bug.
class TaskRef {
 public:
  u32 pid() const { return pid_; }
  u32 tgid() const { return tgid_; }
  const std::string& comm() const { return comm_; }

 private:
  friend class Ctx;
  TaskRef(u32 pid, u32 tgid, std::string comm, simkern::Addr addr)
      : pid_(pid), tgid_(tgid), comm_(std::move(comm)), struct_addr_(addr) {}

  u32 pid_;
  u32 tgid_;
  std::string comm_;
  simkern::Addr struct_addr_;
};

// Typed map handle.
class MapRef {
 public:
  MapRef() = default;

  u32 key_size() const;
  u32 value_size() const;

  // Lookup returns a bounds-checked view of the value, or NotFound.
  xbase::Result<Slice> Lookup(std::span<const u8> key);
  xbase::Status Update(std::span<const u8> key, std::span<const u8> value,
                       u64 flags);
  xbase::Status Delete(std::span<const u8> key);
  // Lookup, inserting a zero value first if absent.
  xbase::Result<Slice> LookupOrInit(std::span<const u8> key);

  // u32-keyed conveniences for the common array-map shape.
  xbase::Result<Slice> LookupIndex(u32 index);
  xbase::Status UpdateIndex(u32 index, std::span<const u8> value);

 private:
  friend class Ctx;
  MapRef(Ctx* ctx, ebpf::Map* map) : ctx_(ctx), map_(map) {}

  Ctx* ctx_ = nullptr;
  ebpf::Map* map_ = nullptr;
};

// ---- invocation context -----------------------------------------------------------

struct CtxStats {
  u64 crate_calls = 0;
  u64 charged_ns = 0;
  u32 max_stack_depth = 0;
};

class Ctx {
 public:
  // Constructed by the Runtime invocation harness; extensions only ever see
  // a reference.
  Ctx(Runtime& runtime, const CapSet& caps, u64 watchdog_budget_ns,
      simkern::Addr skb_meta);
  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;

  // --- scalars & current task ------------------------------------------
  u64 KtimeNs();
  u64 PidTgid();
  xbase::Result<TaskRef> CurrentTask();  // kTaskInspect

  // --- retired helpers (§3.2): language features instead of escape hatches
  xbase::Result<s64> ParseInt(std::string_view text);   // vs bpf_strtol
  static int StrCmp(std::string_view a, std::string_view b,
                    u32 max_len);                        // vs bpf_strncmp
  // Loops need no helper at all: extensions use the language's `for`, and
  // the watchdog bounds them. Tick() is the explicit cancellation point for
  // long compute loops.
  xbase::Status Tick();

  // --- maps ---------------------------------------------------------------
  xbase::Result<MapRef> Map(int fd);  // kMapAccess

  // --- packet ---------------------------------------------------------------
  xbase::Result<Slice> Packet();  // kPacketAccess; requires an skb hook
  xbase::Result<u32> PacketLen();

  // --- sockets -----------------------------------------------------------------
  xbase::Result<SockRef> LookupTcp(const simkern::SockTuple& tuple);

  // --- task storage (reference-typed owner: the §3.2 hardening) -----------------
  xbase::Result<Slice> TaskStorage(int fd, const TaskRef& task, bool create);

  // --- locks ----------------------------------------------------------------------
  xbase::Result<LockGuard> Lock(int map_fd, u32 value_off);  // kSpinLock

  // --- ring buffer ------------------------------------------------------------------
  xbase::Status RingbufOutput(int fd, std::span<const u8> data);  // kRingBuf

  // --- dynamic allocation (§4) ---------------------------------------------------------
  xbase::Result<Slice> Alloc(u32 size);  // kDynAlloc; auto-freed at exit
  xbase::Status Free(const Slice& slice);

  // --- hardened syscall surface (§3.2's bpf_sys_bpf fix) --------------------------------
  // The attr union is replaced by typed parameters; the instruction buffer
  // must be a live Slice, so the NULL-inside-union crash of §2.2 cannot be
  // expressed.
  xbase::Result<s64> SysBpfMapCreate(u32 value_size, u32 max_entries);
  xbase::Result<s64> SysBpfProgLoad(const Slice& insns);

  // --- diagnostics ------------------------------------------------------------------------
  xbase::Status Trace(std::string_view message);  // kTracing
  xbase::Status SendSignal(u32 sig);              // kSignal

  // --- the unsafe escape hatch (models an `unsafe` block) -----------------------------------
  // Requires kUnsafeRaw, which the default toolchain policy refuses to
  // sign. Reads go through the protection domain, so even a signed unsafe
  // extension cannot read another domain's memory when PKS is enabled.
  xbase::Result<u64> UnsafeReadKernel(simkern::Addr addr);

  // --- stack protection ----------------------------------------------------------------------
  xbase::Status EnterFrame();  // panics past kMaxExtensionFrames
  void LeaveFrame();
  static constexpr u32 kMaxExtensionFrames = 32;

  // --- panic machinery --------------------------------------------------------------------------
  void Panic(std::string reason);
  bool terminated() const { return terminated_; }
  const std::string& termination_reason() const { return reason_; }

  // Charges simulated time and polls the watchdog; the universal
  // cancellation point every crate method passes through.
  xbase::Status Charge(u64 cost_ns);

  const CtxStats& stats() const { return stats_; }
  CleanupRegistry& cleanup() { return cleanup_; }
  Runtime& runtime() { return runtime_; }
  simkern::Kernel& kernel();

 private:
  friend class Slice;
  friend class SockRef;
  friend class LockGuard;
  friend class MapRef;

  xbase::Status RequireCap(Capability cap);
  xbase::Result<SockRef> LookupSock(const simkern::SockTuple& tuple,
                                    u32 protocol);
  void ReleaseSock(simkern::ObjectId id);
  void ReleaseLock(simkern::LockId id);
  // Memory access on behalf of the extension, inside its domain.
  xbase::Status DomainRead(simkern::Addr addr, std::span<u8> out);
  xbase::Status DomainWrite(simkern::Addr addr, std::span<const u8> data);

  Runtime& runtime_;
  CapSet caps_;
  Watchdog watchdog_;
  CleanupRegistry cleanup_;
  simkern::Addr skb_meta_ = 0;
  bool terminated_ = false;
  std::string reason_;
  u32 frame_depth_ = 0;
  CtxStats stats_;
};

}  // namespace safex
