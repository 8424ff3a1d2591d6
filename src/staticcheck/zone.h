// Zone (difference-bound matrix) relational domain over the registers and
// a handful of tracked stack slots: conjunctions of constraints
// `v_i - v_j <= c` over the *mathematical* signed-64 views of the tracked
// values, closed under Floyd-Warshall shortest paths. This is the piece
// the reduced product of known-bits x intervals (range.h) is structurally
// blind to — `r1 < r2 && r2 <= k  =>  r1 <= k-1` — and the precision class
// PREVAIL's split_dbm demonstrates is tractable where the in-kernel
// verifier instead pays with per-path state enumeration.
//
// Soundness contract (what rangefuzz checks against concrete execution):
// every constraint with a finite bound is a *may* claim — for all concrete
// states at the pc, (s64)value(v_i) - (s64)value(v_j) <= c computed
// without wraparound (in 128-bit). Constraints are therefore only ever
// introduced from
//   - exact value copies (mov, spill, fill),
//   - shifts by deltas the range domain proves non-overflowing,
//   - branch refinements on signed compares (exact on s64 views) or on
//     unsigned compares whose operands the range domain proves
//     non-negative (where unsigned and signed order coincide), and
//   - interval seeding from range-domain claims within +-kZoneSafe,
// and closure combines them with saturating arithmetic that only ever
// weakens (a sum clamped *up* is a weaker upper bound; a sum too large
// becomes "no constraint").
//
// Independence invariant: like range.h, this file may not include any
// verifier header — the whole point is a second implementation.
#pragma once

#include <array>
#include <string>

#include "src/xbase/types.h"

namespace staticcheck {

using xbase::s64;
using xbase::u8;

// Variable indices: R0..R9, the constant-zero pseudo-variable, then four
// tracked 8-byte stack slots (fp-8, fp-16, fp-24, fp-32 — the slots the
// spill/fill idiom and the fuzz generator actually use).
inline constexpr int kZoneRegs = 10;
inline constexpr int kZoneZero = 10;
inline constexpr int kZoneSlot0 = 11;
inline constexpr int kZoneSlots = 4;
inline constexpr int kZoneVars = kZoneSlot0 + kZoneSlots;

// "No constraint" sentinel.
inline constexpr s64 kZoneInf = s64{0x7fffffffffffffff};
// Bounds are clamped to (-kZoneCap, kZoneCap) so closure sums can never
// overflow back into the representable range.
inline constexpr s64 kZoneCap = kZoneInf / 4;
// Interval facts are only seeded for values within +-kZoneSafe: BPF
// arithmetic wraps at 2^64, and the non-wrapping reading of a constraint
// is only justified while every operand stays far from the s64 edges.
inline constexpr s64 kZoneSafe = s64{1} << 60;

// The zone element. Default-constructed = top (no constraints). `bot`
// (set by Close() on a negative cycle) = unreachable: no concrete state
// satisfies the constraints.
struct Zone {
  std::array<s64, kZoneVars * kZoneVars> m;
  bool bot = false;

  Zone() {
    m.fill(kZoneInf);
    for (int i = 0; i < kZoneVars; ++i) {
      At(i, i) = 0;
    }
  }

  s64& At(int i, int j) { return m[static_cast<xbase::usize>(i * kZoneVars + j)]; }
  s64 At(int i, int j) const {
    return m[static_cast<xbase::usize>(i * kZoneVars + j)];
  }

  bool IsTop() const;

  // Adds `v_i - v_j <= c` (intersection: keeps the tighter bound). Bounds
  // at or above kZoneCap are dropped (no constraint), bounds at or below
  // -kZoneCap are weakened to -kZoneCap; both directions are sound.
  void AddUpper(int i, int j, s64 c);

  // Drops every constraint mentioning v (fresh unknown value).
  void Forget(int v);

  // v_dst := v_src (exact copy): dst inherits every constraint of src plus
  // the equality. Closure-preserving when the input is closed.
  void AssignCopy(int dst, int src);

  // v := v + [lo, hi] where the caller proved the concrete addition cannot
  // wrap: every bound on v shifts by the delta interval.
  void AssignShift(int v, s64 lo, s64 hi);

  // v := the known constant c; like SeedRange, a constant beyond
  // +-kZoneSafe only forgets v.
  void AssignConst(int v, s64 c);

  // Seeds range-domain facts smin <= v <= smax; ignored unless both
  // endpoints are within +-kZoneSafe.
  void SeedRange(int v, s64 smin, s64 smax);

  // Branch refinement for a 64-bit reg-reg compare along one edge, in
  // terms of the *signed* order: jmp_op is one of BPF_JEQ/JNE/JSGT/JSGE/
  // JSLT/JSLE (callers map unsigned compares to the signed forms only
  // after proving both operands non-negative). Unknown ops are ignored.
  void RefineCompare(u8 jmp_op, bool taken, int dst, int src);

  // Floyd-Warshall closure; sets `bot` on a negative cycle. Idempotent.
  void Close();

  // Tightest known difference v_i - v_j <= bound (kZoneInf = unknown).
  s64 DiffUpper(int i, int j) const { return At(i, j); }
  // Interval view: v <= Upper(v), v >= Lower(v) (kZoneInf/-kZoneCap-ish
  // sentinels mean unknown; callers test against kZoneInf).
  s64 Upper(int v) const { return At(v, kZoneZero); }
  s64 Lower(int v) const {
    const s64 c = At(kZoneZero, v);
    return c == kZoneInf ? -kZoneInf : -c;
  }

  // Join (least upper bound): pointwise max. The pointwise max of two
  // closed DBMs is closed. Bottom is the identity.
  static Zone Join(const Zone& a, const Zone& b);

  // Widening: any bound that grew past `prev` jumps to "no constraint",
  // so chains of joins stabilize. Not re-closed (standard caution:
  // closing a widened element can reintroduce the growth).
  static Zone Widen(const Zone& prev, const Zone& next);

  std::string ToString() const;

  bool operator==(const Zone&) const = default;
};

// The zone variable tracking stack slot at frame offset `off` (which must
// be the start of an 8-byte-aligned slot), or -1 if untracked.
inline int ZoneSlotVar(s64 off) {
  if (off >= -8 * kZoneSlots && off <= -8 && (off % 8) == 0) {
    return kZoneSlot0 + static_cast<int>((-off / 8) - 1);
  }
  return -1;
}

}  // namespace staticcheck
