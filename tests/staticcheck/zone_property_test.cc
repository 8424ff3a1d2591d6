// Soundness properties for the zone (difference-bound matrix) domain
// (zone.cc), checked against exhaustive concrete valuations the same way
// tnum_property_test checks the tnum algebra: over a small box [-W, W]^3
// the full concretization of a 3-variable zone is enumerable, so every
// claim the domain makes — closure, join, widening, assignment transfer,
// branch refinement — can be tested against the ground-truth set of
// satisfying valuations rather than against hand-picked examples.
//
// Randomized zones run 200 trials over W=4 by default; setting
// ZONE_EXHAUSTIVE in the environment widens the box to W=6 and runs 2000
// trials (a few seconds).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <vector>

#include "src/ebpf/insn.h"
#include "src/staticcheck/zone.h"

namespace staticcheck {
namespace {

using xbase::s64;
using xbase::u32;
using xbase::u64;
using xbase::u8;

// The three tracked variables valuations range over; everything else in
// the matrix stays unconstrained (top) throughout.
constexpr int kVars[] = {0, 1, 2};

s64 BoxWidth() {
  return std::getenv("ZONE_EXHAUSTIVE") != nullptr ? 6 : 4;
}

u32 Trials() {
  return std::getenv("ZONE_EXHAUSTIVE") != nullptr ? 2000 : 200;
}

// Deterministic xorshift so failures replay.
struct Rng {
  u64 state;
  explicit Rng(u64 seed) : state(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  u64 Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  s64 Bound(s64 w) {  // uniform-ish in [-w, w]
    return static_cast<s64>(Next() % static_cast<u64>(2 * w + 1)) - w;
  }
  int Var() { return kVars[Next() % 3]; }
};

struct Valuation {
  s64 v[3];
  s64 Of(int var) const { return var == kZoneZero ? 0 : v[var]; }
};

// Every valuation of (v0, v1, v2) in the box.
std::vector<Valuation> Box(s64 w) {
  std::vector<Valuation> out;
  for (s64 a = -w; a <= w; ++a) {
    for (s64 b = -w; b <= w; ++b) {
      for (s64 c = -w; c <= w; ++c) {
        out.push_back(Valuation{{a, b, c}});
      }
    }
  }
  return out;
}

bool Satisfies(const Zone& z, const Valuation& val) {
  if (z.bot) {
    return false;
  }
  const int tracked[] = {0, 1, 2, kZoneZero};
  for (const int i : tracked) {
    for (const int j : tracked) {
      const s64 c = z.At(i, j);
      if (i != j && c != kZoneInf && val.Of(i) - val.Of(j) > c) {
        return false;
      }
    }
  }
  return true;
}

struct Constraint {
  int i;
  int j;
  s64 c;
};

bool SatisfiesRaw(const std::vector<Constraint>& cons, const Valuation& val) {
  for (const Constraint& con : cons) {
    if (val.Of(con.i) - val.Of(con.j) > con.c) {
      return false;
    }
  }
  return true;
}

// A random zone: up to 6 difference constraints over the tracked vars and
// the zero pseudo-variable, bounds within the box scale.
std::vector<Constraint> RandomConstraints(Rng& rng, s64 w) {
  std::vector<Constraint> cons;
  const u64 count = rng.Next() % 7;
  for (u64 k = 0; k < count; ++k) {
    int i = rng.Next() % 4 == 0 ? kZoneZero : rng.Var();
    int j = rng.Next() % 4 == 0 ? kZoneZero : rng.Var();
    if (i == j) {
      continue;
    }
    cons.push_back(Constraint{i, j, rng.Bound(2 * w)});
  }
  return cons;
}

Zone FromConstraints(const std::vector<Constraint>& cons) {
  Zone z;
  for (const Constraint& con : cons) {
    z.AddUpper(con.i, con.j, con.c);
  }
  return z;
}

TEST(ZonePropertyTest, CloseIsSemanticsPreserving) {
  // Closure must neither drop satisfying valuations (soundness) nor admit
  // new ones (it only derives consequences); bot must imply emptiness.
  const std::vector<Valuation> box = Box(BoxWidth());
  for (u32 t = 0; t < Trials(); ++t) {
    Rng rng(t);
    const std::vector<Constraint> cons = RandomConstraints(rng, BoxWidth());
    Zone z = FromConstraints(cons);
    z.Close();
    for (const Valuation& val : box) {
      ASSERT_EQ(SatisfiesRaw(cons, val), Satisfies(z, val))
          << "trial " << t << " at (" << val.v[0] << "," << val.v[1] << ","
          << val.v[2] << "): " << z.ToString();
    }
  }
}

TEST(ZonePropertyTest, CloseIsIdempotent) {
  for (u32 t = 0; t < Trials(); ++t) {
    Rng rng(t + 1000000);
    Zone z = FromConstraints(RandomConstraints(rng, BoxWidth()));
    z.Close();
    Zone again = z;
    again.Close();
    EXPECT_EQ(z, again) << "trial " << t << ": " << z.ToString();
  }
}

TEST(ZonePropertyTest, JoinOverApproximatesBothSides) {
  const std::vector<Valuation> box = Box(BoxWidth());
  for (u32 t = 0; t < Trials(); ++t) {
    Rng rng(t + 2000000);
    Zone a = FromConstraints(RandomConstraints(rng, BoxWidth()));
    Zone b = FromConstraints(RandomConstraints(rng, BoxWidth()));
    a.Close();
    b.Close();
    const Zone j = Zone::Join(a, b);
    for (const Valuation& val : box) {
      if (Satisfies(a, val) || Satisfies(b, val)) {
        ASSERT_TRUE(Satisfies(j, val))
            << "trial " << t << ": join dropped (" << val.v[0] << ","
            << val.v[1] << "," << val.v[2] << ")";
      }
    }
  }
}

TEST(ZonePropertyTest, JoinOfClosedIsClosed) {
  // The pointwise max of two closed DBMs is closed — the property the
  // dataflow relies on to skip re-closing after every merge.
  for (u32 t = 0; t < Trials(); ++t) {
    Rng rng(t + 3000000);
    Zone a = FromConstraints(RandomConstraints(rng, BoxWidth()));
    Zone b = FromConstraints(RandomConstraints(rng, BoxWidth()));
    a.Close();
    b.Close();
    Zone j = Zone::Join(a, b);
    Zone closed = j;
    closed.Close();
    EXPECT_EQ(j, closed) << "trial " << t;
  }
}

TEST(ZonePropertyTest, WideningTerminates) {
  // A widening chain acc = Widen(acc, Join(acc, next_i)) must stabilize:
  // every entry that ever grows jumps straight to kZoneInf, so the chain
  // changes at most once per matrix entry.
  const int kMaxSteps = kZoneVars * kZoneVars + 1;
  for (u32 t = 0; t < Trials(); ++t) {
    Rng rng(t + 4000000);
    Zone acc = FromConstraints(RandomConstraints(rng, BoxWidth()));
    acc.Close();
    int steps = 0;
    for (; steps < kMaxSteps + 1; ++steps) {
      Zone next = FromConstraints(RandomConstraints(rng, BoxWidth()));
      next.Close();
      const Zone merged = Zone::Join(acc, next);
      const Zone widened = Zone::Widen(acc, merged);
      if (widened == acc) {
        break;  // would re-check forever; one fixpoint hit is enough
      }
      acc = widened;
    }
    EXPECT_LE(steps, kMaxSteps) << "trial " << t << " did not stabilize";
  }
}

TEST(ZonePropertyTest, WideningOverApproximatesNext) {
  const std::vector<Valuation> box = Box(BoxWidth());
  for (u32 t = 0; t < Trials(); ++t) {
    Rng rng(t + 5000000);
    Zone prev = FromConstraints(RandomConstraints(rng, BoxWidth()));
    Zone next = FromConstraints(RandomConstraints(rng, BoxWidth()));
    prev.Close();
    next.Close();
    const Zone w = Zone::Widen(prev, Zone::Join(prev, next));
    for (const Valuation& val : box) {
      if (Satisfies(prev, val) || Satisfies(next, val)) {
        ASSERT_TRUE(Satisfies(w, val)) << "trial " << t;
      }
    }
  }
}

TEST(ZonePropertyTest, AssignCopySound) {
  // After v_dst := v_src, any model of the original with val[dst]
  // overwritten by val[src] models the transformed zone.
  const std::vector<Valuation> box = Box(BoxWidth());
  for (u32 t = 0; t < Trials(); ++t) {
    Rng rng(t + 6000000);
    Zone z = FromConstraints(RandomConstraints(rng, BoxWidth()));
    z.Close();
    const int dst = rng.Var();
    const int src = rng.Var();
    Zone after = z;
    after.AssignCopy(dst, src);
    for (const Valuation& val : box) {
      if (!Satisfies(z, val)) {
        continue;
      }
      Valuation moved = val;
      moved.v[dst] = moved.Of(src);
      ASSERT_TRUE(Satisfies(after, moved))
          << "trial " << t << ": r" << dst << " = r" << src;
    }
  }
}

TEST(ZonePropertyTest, AssignShiftSound) {
  const std::vector<Valuation> box = Box(BoxWidth());
  for (u32 t = 0; t < Trials(); ++t) {
    Rng rng(t + 7000000);
    Zone z = FromConstraints(RandomConstraints(rng, BoxWidth()));
    z.Close();
    const int v = rng.Var();
    s64 lo = rng.Bound(BoxWidth());
    s64 hi = rng.Bound(BoxWidth());
    if (lo > hi) {
      std::swap(lo, hi);
    }
    Zone after = z;
    after.AssignShift(v, lo, hi);
    for (const Valuation& val : box) {
      if (!Satisfies(z, val)) {
        continue;
      }
      for (s64 d = lo; d <= hi; ++d) {
        Valuation moved = val;
        moved.v[v] += d;
        ASSERT_TRUE(Satisfies(after, moved))
            << "trial " << t << ": r" << v << " += " << d;
      }
    }
  }
}

TEST(ZonePropertyTest, SeedRangeSound) {
  const std::vector<Valuation> box = Box(BoxWidth());
  for (u32 t = 0; t < Trials(); ++t) {
    Rng rng(t + 8000000);
    Zone z = FromConstraints(RandomConstraints(rng, BoxWidth()));
    z.Close();
    const int v = rng.Var();
    s64 smin = rng.Bound(BoxWidth());
    s64 smax = rng.Bound(BoxWidth());
    if (smin > smax) {
      std::swap(smin, smax);
    }
    Zone after = z;
    after.SeedRange(v, smin, smax);
    for (const Valuation& val : box) {
      if (Satisfies(z, val) && val.Of(v) >= smin && val.Of(v) <= smax) {
        ASSERT_TRUE(Satisfies(after, val)) << "trial " << t;
      }
    }
  }
}

TEST(ZonePropertyTest, RefineCompareSound) {
  // Branch refinement may only assume the branch predicate: every model of
  // the original zone in which the (signed) predicate concretely holds on
  // the chosen edge must still be a model after refinement + closure.
  const u8 kOps[] = {ebpf::BPF_JEQ,  ebpf::BPF_JNE,  ebpf::BPF_JSGT,
                     ebpf::BPF_JSGE, ebpf::BPF_JSLT, ebpf::BPF_JSLE};
  const std::vector<Valuation> box = Box(BoxWidth());
  for (u32 t = 0; t < Trials(); ++t) {
    Rng rng(t + 9000000);
    Zone z = FromConstraints(RandomConstraints(rng, BoxWidth()));
    z.Close();
    const int dst = rng.Var();
    const int src = rng.Var();
    if (dst == src) {
      continue;
    }
    const u8 op = kOps[rng.Next() % 6];
    const bool taken = (rng.Next() & 1) != 0;
    Zone refined = z;
    refined.RefineCompare(op, taken, dst, src);
    refined.Close();
    for (const Valuation& val : box) {
      if (!Satisfies(z, val)) {
        continue;
      }
      const s64 a = val.Of(dst);
      const s64 b = val.Of(src);
      bool pred = false;
      switch (op) {
        case ebpf::BPF_JEQ: pred = a == b; break;
        case ebpf::BPF_JNE: pred = a != b; break;
        case ebpf::BPF_JSGT: pred = a > b; break;
        case ebpf::BPF_JSGE: pred = a >= b; break;
        case ebpf::BPF_JSLT: pred = a < b; break;
        case ebpf::BPF_JSLE: pred = a <= b; break;
      }
      if (pred == taken) {
        ASSERT_TRUE(Satisfies(refined, val))
            << "trial " << t << " op " << int{op} << (taken ? " taken" : " else")
            << " r" << dst << " vs r" << src << " at (" << val.v[0] << ","
            << val.v[1] << "," << val.v[2] << ")";
      }
    }
  }
}

TEST(ZonePropertyTest, BotOnContradiction) {
  Zone z;
  z.AddUpper(0, 1, -5);  // v0 - v1 <= -5
  z.AddUpper(1, 0, 2);   // v1 - v0 <= 2  => cycle weight -3 < 0
  z.Close();
  EXPECT_TRUE(z.bot);
}

TEST(ZonePropertyTest, DefaultIsTop) {
  Zone z;
  EXPECT_TRUE(z.IsTop());
  z.Close();
  EXPECT_FALSE(z.bot);
  EXPECT_TRUE(z.IsTop());
}

TEST(ZonePropertyTest, AssignConstBeyondSafeRangeOnlyForgets) {
  // Like SeedRange, a constant outside +-kZoneSafe records nothing:
  // INT64_MIN has no negation, so pinning v >= c would overflow.
  for (const s64 c : {std::numeric_limits<s64>::min(),
                      std::numeric_limits<s64>::max(), kZoneSafe + 1}) {
    Zone z;
    z.AddUpper(0, 1, 3);
    z.AssignConst(0, c);
    z.Close();
    EXPECT_FALSE(z.bot);
    EXPECT_TRUE(z.IsTop()) << "c = " << c;
  }
  Zone pinned;
  pinned.AssignConst(0, -kZoneSafe);
  EXPECT_EQ(pinned.Upper(0), -kZoneSafe);
  EXPECT_EQ(pinned.Lower(0), -kZoneSafe);
}

}  // namespace
}  // namespace staticcheck
