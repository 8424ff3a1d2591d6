#include "src/staticcheck/zone.h"

#include <cstdio>

#include "src/ebpf/insn.h"

namespace staticcheck {
namespace {

// Saturating bound addition: inf absorbs, and finite sums are clamped back
// into (-kZoneCap, kZoneCap]. Clamping a sum *up* to -kZoneCap weakens the
// constraint (sound); a sum reaching kZoneCap is treated as "no
// constraint". 128-bit intermediates because two caps can sum past s64.
s64 SatAdd(s64 a, s64 b) {
  if (a == kZoneInf || b == kZoneInf) return kZoneInf;
  const __int128 s = static_cast<__int128>(a) + b;
  if (s >= static_cast<__int128>(kZoneCap)) return kZoneInf;
  if (s <= static_cast<__int128>(-kZoneCap)) return -kZoneCap;
  return static_cast<s64>(s);
}

s64 Clamp(s64 c) {
  if (c >= kZoneCap) return kZoneInf;
  if (c <= -kZoneCap) return -kZoneCap;
  return c;
}

}  // namespace

bool Zone::IsTop() const {
  if (bot) return false;
  for (int i = 0; i < kZoneVars; ++i) {
    for (int j = 0; j < kZoneVars; ++j) {
      if (At(i, j) != (i == j ? 0 : kZoneInf)) return false;
    }
  }
  return true;
}

void Zone::AddUpper(int i, int j, s64 c) {
  if (bot || i == j) return;
  c = Clamp(c);
  if (c < At(i, j)) At(i, j) = c;
}

void Zone::Forget(int v) {
  if (bot) return;
  for (int k = 0; k < kZoneVars; ++k) {
    if (k == v) continue;
    At(v, k) = kZoneInf;
    At(k, v) = kZoneInf;
  }
  At(v, v) = 0;
}

void Zone::AssignCopy(int dst, int src) {
  if (bot || dst == src) return;
  // Copy src's row and column, then record equality. On a closed input the
  // result is closed: dst has exactly src's shortest paths.
  for (int k = 0; k < kZoneVars; ++k) {
    if (k == dst || k == src) continue;
    At(dst, k) = At(src, k);
    At(k, dst) = At(k, src);
  }
  At(dst, src) = 0;
  At(src, dst) = 0;
  At(dst, dst) = 0;
}

void Zone::AssignShift(int v, s64 lo, s64 hi) {
  if (bot) return;
  // v' = v + d with d in [lo, hi]:
  //   v' - k = (v - k) + d <= At(v,k) + hi
  //   k - v' = (k - v) - d <= At(k,v) - lo
  for (int k = 0; k < kZoneVars; ++k) {
    if (k == v) continue;
    At(v, k) = SatAdd(At(v, k), hi);
    At(k, v) = SatAdd(At(k, v), -lo);
  }
}

void Zone::AssignConst(int v, s64 c) {
  if (bot) return;
  Forget(v);
  // INT64_MIN has no negation; SeedRange's bound keeps -c representable.
  if (c < -kZoneSafe || c > kZoneSafe) return;
  AddUpper(v, kZoneZero, c);
  AddUpper(kZoneZero, v, -c);
}

void Zone::SeedRange(int v, s64 smin, s64 smax) {
  if (bot) return;
  if (smin < -kZoneSafe || smax > kZoneSafe || smin > smax) return;
  AddUpper(v, kZoneZero, smax);
  AddUpper(kZoneZero, v, -smin);
}

void Zone::RefineCompare(u8 jmp_op, bool taken, int dst, int src) {
  if (bot || dst == src) return;
  // Normalise to the constraint that holds on this edge. All constraints
  // are over the signed-64 order; the fall-through edge of `Jop` is the
  // taken edge of the negated op.
  u8 op = jmp_op;
  if (!taken) {
    switch (jmp_op) {
      case ebpf::BPF_JEQ: op = ebpf::BPF_JNE; break;
      case ebpf::BPF_JNE: op = ebpf::BPF_JEQ; break;
      case ebpf::BPF_JSGT: op = ebpf::BPF_JSLE; break;
      case ebpf::BPF_JSGE: op = ebpf::BPF_JSLT; break;
      case ebpf::BPF_JSLT: op = ebpf::BPF_JSGE; break;
      case ebpf::BPF_JSLE: op = ebpf::BPF_JSGT; break;
      default: return;
    }
  }
  switch (op) {
    case ebpf::BPF_JEQ:  // dst == src
      AddUpper(dst, src, 0);
      AddUpper(src, dst, 0);
      break;
    case ebpf::BPF_JNE:
      // Disequality is not expressible as a difference bound.
      break;
    case ebpf::BPF_JSGT:  // dst > src  <=>  src - dst <= -1
      AddUpper(src, dst, -1);
      break;
    case ebpf::BPF_JSGE:  // dst >= src
      AddUpper(src, dst, 0);
      break;
    case ebpf::BPF_JSLT:  // dst < src  <=>  dst - src <= -1
      AddUpper(dst, src, -1);
      break;
    case ebpf::BPF_JSLE:  // dst <= src
      AddUpper(dst, src, 0);
      break;
    default:
      break;
  }
}

void Zone::Close() {
  if (bot) return;
  for (int k = 0; k < kZoneVars; ++k) {
    for (int i = 0; i < kZoneVars; ++i) {
      const s64 ik = At(i, k);
      if (ik == kZoneInf) continue;
      for (int j = 0; j < kZoneVars; ++j) {
        const s64 via = SatAdd(ik, At(k, j));
        if (via < At(i, j)) At(i, j) = via;
      }
    }
  }
  for (int i = 0; i < kZoneVars; ++i) {
    if (At(i, i) < 0) {
      bot = true;
      return;
    }
    At(i, i) = 0;
  }
}

Zone Zone::Join(const Zone& a, const Zone& b) {
  if (a.bot) return b;
  if (b.bot) return a;
  Zone out;
  for (int i = 0; i < kZoneVars * kZoneVars; ++i) {
    const s64 x = a.m[static_cast<xbase::usize>(i)];
    const s64 y = b.m[static_cast<xbase::usize>(i)];
    out.m[static_cast<xbase::usize>(i)] = x > y ? x : y;
  }
  return out;
}

Zone Zone::Widen(const Zone& prev, const Zone& next) {
  if (prev.bot) return next;
  if (next.bot) return prev;
  Zone out;
  for (int i = 0; i < kZoneVars * kZoneVars; ++i) {
    const s64 p = prev.m[static_cast<xbase::usize>(i)];
    const s64 n = next.m[static_cast<xbase::usize>(i)];
    out.m[static_cast<xbase::usize>(i)] = n > p ? kZoneInf : p;
  }
  for (int i = 0; i < kZoneVars; ++i) {
    out.At(i, i) = 0;
  }
  return out;
}

std::string Zone::ToString() const {
  if (bot) return "zone{bot}";
  if (IsTop()) return "zone{top}";
  std::string out = "zone{";
  bool first = true;
  char buf[96];
  auto name = [](int v, char* s) {
    if (v == kZoneZero) {
      std::snprintf(s, 16, "0");
    } else if (v >= kZoneSlot0) {
      std::snprintf(s, 16, "fp-%d", 8 * (v - kZoneSlot0 + 1));
    } else {
      std::snprintf(s, 16, "r%d", v);
    }
  };
  for (int i = 0; i < kZoneVars; ++i) {
    for (int j = 0; j < kZoneVars; ++j) {
      if (i == j || At(i, j) == kZoneInf) continue;
      char ni[16], nj[16];
      name(i, ni);
      name(j, nj);
      std::snprintf(buf, sizeof(buf), "%s%s-%s<=%lld", first ? "" : ", ", ni,
                    nj, static_cast<long long>(At(i, j)));
      out += buf;
      first = false;
    }
  }
  out += "}";
  return out;
}

}  // namespace staticcheck
