// Wrap-safe 32-bit id allocation. Every id space in the system reserves 0
// for "none" (the kernel's idr does the same) and must never hand out an id
// that is still in use: a bare `next_id_++` hands out 0 after 2^32
// allocations and then aliases live ids.
#pragma once

#include <limits>
#include <optional>

#include "src/xbase/types.h"

namespace xbase {

// Rolling cursor over [1, 2^32). Not thread-safe: callers hold the lock
// that guards their id table.
class IdAllocator {
 public:
  // The first id at or after the cursor that is neither 0 nor reported
  // live by `in_use(id)`; the cursor moves past it. `live` is how many ids
  // are in use. nullopt when the space is exhausted.
  template <typename InUse>
  std::optional<u32> Allocate(usize live, InUse&& in_use) {
    if (live >= std::numeric_limits<u32>::max() - 1) {
      return std::nullopt;
    }
    u32 candidate = next_;
    for (;;) {
      if (candidate == 0) {
        candidate = 1;
      }
      if (!in_use(candidate)) {
        break;
      }
      ++candidate;
    }
    next_ = candidate + 1;
    return candidate;
  }

  // Positions the cursor (wraparound tests park it below the ceiling).
  void set_next(u32 next) { next_ = next; }

 private:
  u32 next_ = 1;
};

}  // namespace xbase
