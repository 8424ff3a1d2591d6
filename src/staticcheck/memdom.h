// Memory domain for staticcheck: the abstract value lattice shared by the
// register file and the stack, a typed per-slot stack domain (spill/fill
// tracking — the verifier's STACK_SPILL analog, re-derived independently),
// and a packet-pointer domain relating `data`-derived pointers to
// `data_end` through a proven byte range (the FindGoodPktPointers analog).
//
// Split out of dataflow.h so the zone domain, the stack domain and the
// dataflow proper can share AbsVal without a dependency cycle. Like every
// staticcheck header, this must not include any verifier header.
#pragma once

#include <algorithm>
#include <vector>

#include "src/ebpf/prog.h"
#include "src/staticcheck/range.h"

namespace staticcheck {

// Abstract value kinds. kTop is "initialized, nothing else known".
enum class VK : u8 {
  kUninit = 0,
  kTop,
  kConst,      // fully-known 64-bit scalar
  kCtx,        // the context pointer (R1 at entry)
  kStack,      // frame pointer with a fixed byte offset
  kMapPtr,     // ld_imm64 map reference
  kMapVal,     // pointer into a map value
  kMem,        // helper-provided memory (ringbuf record)
  kSock,       // socket object pointer
  kTask,       // task_struct pointer
  kPacket,     // skb->data-derived pointer; mem_size = proven range
  kPacketEnd,  // skb->data_end (compare-only, never dereferenced)
  kFunc,       // callback reference
};

inline bool IsPointerKind(VK kind) {
  return kind >= VK::kCtx && kind <= VK::kPacketEnd;
}

struct AbsVal {
  VK kind = VK::kUninit;
  bool or_null = false;  // pointer kinds: may still be NULL
  bool var_off = false;  // pointer offset includes an unknown scalar
  s64 off_min = 0;       // pointer offset range (kStack/kMapVal/kMem/kPacket)
  s64 off_max = 0;
  u64 cval = 0;          // kConst
  int map_fd = -1;       // kMapPtr/kMapVal
  u32 mem_size = 0;      // kMem size; kPacket: bytes proven readable from
                         // data (established by compares against data_end)
  u32 id = 0;            // null-refinement / reference / packet-lineage key
  // Numeric range claim; meaningful for kTop/kConst scalars only (kConst
  // keeps rng == RangeVal::Const(cval) as an invariant).
  RangeVal rng;
  bool operator==(const AbsVal&) const = default;
};

// ---------------------------------------------------------------------------
// Stack domain: up to 64 eight-byte slots over the 512-byte frame, each
// either untouched, scribbled-on (kMisc: bytes written but no tracked
// value), or holding a full 8-byte spill of an abstract value. A spill
// survives only as an aligned 8-byte store; any narrower or misaligned
// overwrite downgrades the slot to kMisc — precisely the invariant whose
// omission is the spill-width-confusion fault class (kernel commit
// 27113c59b6d0).
// ---------------------------------------------------------------------------

enum class SlotKind : u8 {
  kEmpty = 0,  // never written
  kMisc,       // written, contents untracked
  kSpill,      // full 8-byte spill; `val` is the spilled abstract value
};

struct StackSlot {
  SlotKind kind = SlotKind::kEmpty;
  AbsVal val;
  bool operator==(const StackSlot&) const = default;
};

// Equality of two vectors that stand for longer ones padded with `empty`.
template <typename T>
bool EqualPadded(const std::vector<T>& a, const std::vector<T>& b,
                 const T& empty) {
  const std::vector<T>& shorter = a.size() <= b.size() ? a : b;
  const std::vector<T>& longer = a.size() <= b.size() ? b : a;
  const auto tail =
      longer.begin() + static_cast<std::ptrdiff_t>(shorter.size());
  return std::equal(shorter.begin(), shorter.end(), longer.begin()) &&
         std::all_of(tail, longer.end(),
                     [&empty](const T& x) { return x == empty; });
}

// Slot i covers bytes [-8*(i+1), -8*i). The vector grows with the deepest
// write; a slot past its end is kEmpty.
struct StackDom {
  std::vector<StackSlot> slots;

  const StackSlot& At(int i) const {
    static const StackSlot kEmptySlot;
    return static_cast<xbase::usize>(i) < slots.size()
               ? slots[static_cast<xbase::usize>(i)]
               : kEmptySlot;
  }
  StackSlot& Grow(int i) {
    if (static_cast<xbase::usize>(i) >= slots.size()) {
      slots.resize(static_cast<xbase::usize>(i) + 1);
    }
    return slots[static_cast<xbase::usize>(i)];
  }
  bool operator==(const StackDom& other) const {
    return EqualPadded(slots, other.slots, StackSlot{});
  }
};

// Slot index for a frame offset (off < 0, relative to R10); slot i covers
// bytes [-8*(i+1), -8*i). Returns -1 if out of frame.
inline int StackSlotIndex(s64 off) {
  if (off < -static_cast<s64>(ebpf::kMaxStackBytes) || off >= 0) return -1;
  return static_cast<int>((-off - 1) / 8);
}

// True when a store at [off, off+size) is a full aligned slot write — the
// only shape that preserves a tracked spill.
inline bool IsFullSlotAccess(s64 off, u32 size) {
  return size == 8 && off % 8 == 0 && off >= -static_cast<s64>(ebpf::kMaxStackBytes) &&
         off <= -8;
}

// ---------------------------------------------------------------------------
// Packet domain support.
// ---------------------------------------------------------------------------

// Program types whose context exposes direct packet pointers (mirrors the
// verifier's CtxRules but re-derived here: the sk_buff-style layout is a
// simkern contract, not a verifier one).
inline bool HasPacketPtrs(ebpf::ProgType type) {
  switch (type) {
    case ebpf::ProgType::kXdp:
    case ebpf::ProgType::kSocketFilter:
    case ebpf::ProgType::kCgroupSkb:
      return true;
    default:
      return false;
  }
}

}  // namespace staticcheck
