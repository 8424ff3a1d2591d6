// Byte-level utilities: explicit little-endian loads/stores (the simulated
// kernel memory and the BPF ISA are little-endian regardless of host), hex
// rendering, and a simple FNV-1a hash used by the map substrate.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/xbase/types.h"

namespace xbase {

inline u16 LoadLe16(const u8* p) {
  return static_cast<u16>(p[0]) | static_cast<u16>(p[1]) << 8;
}
inline u32 LoadLe32(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}
inline u64 LoadLe64(const u8* p) {
  return static_cast<u64>(LoadLe32(p)) |
         static_cast<u64>(LoadLe32(p + 4)) << 32;
}

inline void StoreLe16(u8* p, u16 v) {
  p[0] = static_cast<u8>(v);
  p[1] = static_cast<u8>(v >> 8);
}
inline void StoreLe32(u8* p, u32 v) {
  p[0] = static_cast<u8>(v);
  p[1] = static_cast<u8>(v >> 8);
  p[2] = static_cast<u8>(v >> 16);
  p[3] = static_cast<u8>(v >> 24);
}
inline void StoreLe64(u8* p, u64 v) {
  StoreLe32(p, static_cast<u32>(v));
  StoreLe32(p + 4, static_cast<u32>(v >> 32));
}

inline u32 LoadBe32(const u8* p) {
  return static_cast<u32>(p[0]) << 24 | static_cast<u32>(p[1]) << 16 |
         static_cast<u32>(p[2]) << 8 | static_cast<u32>(p[3]);
}
inline void StoreBe32(u8* p, u32 v) {
  p[0] = static_cast<u8>(v >> 24);
  p[1] = static_cast<u8>(v >> 16);
  p[2] = static_cast<u8>(v >> 8);
  p[3] = static_cast<u8>(v);
}
inline void StoreBe64(u8* p, u64 v) {
  StoreBe32(p, static_cast<u32>(v >> 32));
  StoreBe32(p + 4, static_cast<u32>(v));
}

// ---- memory another CPU may touch at the same time -------------------------
// The simulated kernel's memory model. An aligned 1/2/4/8-byte access is one
// relaxed atomic load or store of the host word: single-copy atomic, never a
// data race, and on x86-64 the same plain `mov` a non-atomic access compiles
// to. An unaligned access goes byte by byte and can tear. The host word is
// used as-is, so the host must be little-endian like BPF.
static_assert(std::endian::native == std::endian::little,
              "simulated memory is little-endian host words");

namespace bytes_internal {
inline bool Aligned(const void* p, usize bytes) {
  return (reinterpret_cast<std::uintptr_t>(p) & (bytes - 1)) == 0;
}
// Calls f(W{}) with W the unsigned type `bytes` (1, 2, 4 or 8) wide.
template <typename F>
auto ByWidth(u32 bytes, F&& f) {
  switch (bytes) {
    case 1:
      return f(u8{});
    case 2:
      return f(u16{});
    case 4:
      return f(u32{});
    default:
      return f(u64{});
  }
}
// W, allowed to alias the bytes it is accessed through.
template <typename W>
struct Word {
  typedef W __attribute__((may_alias)) T;
};
template <typename W>
W LoadWord(const u8* p) {
  return __atomic_load_n(reinterpret_cast<const typename Word<W>::T*>(p),
                         __ATOMIC_RELAXED);
}
template <typename W>
void StoreWord(u8* p, W v) {
  __atomic_store_n(reinterpret_cast<typename Word<W>::T*>(p), v,
                   __ATOMIC_RELAXED);
}

// The unaligned paths, kept out of line: the engines inline the aligned
// path at every memory handler, and inlined byte loops there cost more
// hook-fire time than the accesses themselves.
[[gnu::noinline, gnu::cold]] inline u64 LoadBytes(const u8* p, u32 bytes) {
  u64 v = 0;
  for (u32 i = 0; i < bytes; ++i) {
    v |= static_cast<u64>(LoadWord<u8>(p + i)) << (8 * i);
  }
  return v;
}
[[gnu::noinline, gnu::cold]] inline void StoreBytes(u8* p, u32 bytes,
                                                    u64 v) {
  for (u32 i = 0; i < bytes; ++i) {
    StoreWord<u8>(p + i, static_cast<u8>(v >> (8 * i)));
  }
}
}  // namespace bytes_internal

// A `bytes`-wide little-endian load.
inline u64 LoadRelaxed(const u8* p, u32 bytes) {
  using namespace bytes_internal;
  if (__builtin_expect(Aligned(p, bytes), 1)) {
    return ByWidth(bytes, [p](auto w) -> u64 {
      return LoadWord<decltype(w)>(p);
    });
  }
  return LoadBytes(p, bytes);
}

// A `bytes`-wide little-endian store of the low bytes of `v`.
inline void StoreRelaxed(u8* p, u32 bytes, u64 v) {
  using namespace bytes_internal;
  if (__builtin_expect(Aligned(p, bytes), 1)) {
    ByWidth(bytes, [p, v](auto w) {
      StoreWord(p, static_cast<decltype(w)>(v));
    });
    return;
  }
  StoreBytes(p, bytes, v);
}

// BPF_ATOMIC add: one locked fetch_add on the host word when aligned, so
// concurrent adds are never lost. An unaligned one is a load then a store.
inline void AddRelaxed(u8* p, u32 bytes, u64 v) {
  using namespace bytes_internal;
  if (!Aligned(p, bytes)) {
    StoreRelaxed(p, bytes, LoadRelaxed(p, bytes) + v);
    return;
  }
  ByWidth(bytes, [p, v](auto w) {
    using W = decltype(w);
    __atomic_fetch_add(reinterpret_cast<typename Word<W>::T*>(p),
                       static_cast<W>(v), __ATOMIC_RELAXED);
  });
}

// An n-byte copy where either side may be shared: word by word when both
// ends and n are word-aligned, byte by byte otherwise.
inline void CopyRelaxed(u8* dst, const u8* src, usize n) {
  const std::uintptr_t align = reinterpret_cast<std::uintptr_t>(dst) |
                               reinterpret_cast<std::uintptr_t>(src) | n;
  const u32 step = align % 8 == 0 ? 8 : 1;
  for (usize i = 0; i < n; i += step) {
    StoreRelaxed(dst + i, step, LoadRelaxed(src + i, step));
  }
}

// Lowercase hex, no separators.
std::string ToHex(std::span<const u8> data);

// FNV-1a 64-bit over arbitrary bytes; stable across platforms.
inline u64 Fnv1a(std::span<const u8> data) {
  u64 hash = 0xcbf29ce484222325ULL;
  for (u8 byte : data) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Byte-vector view of any trivially copyable value.
template <typename T>
std::span<const u8> AsBytes(const T& value) {
  return std::span<const u8>(reinterpret_cast<const u8*>(&value), sizeof(T));
}

}  // namespace xbase
