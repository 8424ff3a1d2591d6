// Wrap-safe 32-bit id allocation, and the id-and-pin table both loaders
// register loaded code in. Every id space in the system reserves 0 for
// "none" (the kernel's idr does the same) and must never hand out an id
// that is still in use: a bare `next_id_++` hands out 0 after 2^32
// allocations and then aliases live ids.
#pragma once

#include <limits>
#include <map>
#include <mutex>
#include <optional>

#include "src/xbase/status.h"
#include "src/xbase/strfmt.h"
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

// Loaded code by id: ebpf::Loader's programs and safex::ExtLoader's
// extensions. `T` carries `u32 id` and `u32 attach_count`; Insert fills the
// id, and the count is the number of live hook attachments (Pin/Unpin).
// Erase refuses while it is above 0, as the kernel holds a prog refcount
// per attachment, so a Find'ed or Pin'ed pointer stays valid until the
// record is erased (std::map nodes are stable). Every method takes one
// internal mutex: admission workers insert while hooks pin and find.
template <typename T>
class IdTable {
 public:
  // The nouns of the status messages: NotFound "no <record> id N",
  // FailedPrecondition "<pinned> N has K live attachment(s)...",
  // ResourceExhausted "<space> id space exhausted".
  IdTable(const char* record, const char* pinned, const char* space)
      : record_(record), pinned_(pinned), space_(space) {}

  // Stores `value` under a fresh id (never 0, never live) and returns it.
  Result<u32> Insert(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::optional<u32> id = ids_.Allocate(
        records_.size(), [this](u32 id) { return records_.contains(id); });
    if (!id) {
      return ResourceExhausted(StrFormat("%s id space exhausted", space_));
    }
    value.id = *id;
    records_.emplace(*id, std::move(value));
    return *id;
  }

  Result<const T*> Find(u32 id) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(id);
    if (it == records_.end()) {
      return Missing(id);
    }
    return &it->second;
  }

  // FailedPrecondition while the record is pinned: detach first.
  Status Erase(u32 id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(id);
    if (it == records_.end()) {
      return Missing(id);
    }
    if (it->second.attach_count > 0) {
      return FailedPrecondition(StrFormat(
          "%s %u has %u live attachment(s); detach before unload", pinned_,
          id, it->second.attach_count));
    }
    records_.erase(it);
    return Status::Ok();
  }

  // Takes one attachment pin and returns the pinned record.
  Result<const T*> Pin(u32 id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(id);
    if (it == records_.end()) {
      return Missing(id);
    }
    ++it->second.attach_count;
    return &it->second;
  }

  void Unpin(u32 id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(id);
    if (it != records_.end() && it->second.attach_count > 0) {
      --it->second.attach_count;
    }
  }

  usize size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  void set_next(u32 next) {
    std::lock_guard<std::mutex> lock(mu_);
    ids_.set_next(next);
  }

 private:
  Status Missing(u32 id) const {
    return NotFound(StrFormat("no %s id %u", record_, id));
  }

  const char* record_;
  const char* pinned_;
  const char* space_;
  mutable std::mutex mu_;
  std::map<u32, T> records_;
  IdAllocator ids_;
};

}  // namespace xbase
