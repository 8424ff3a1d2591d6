#include "src/simkern/object.h"

#include "src/xbase/strfmt.h"

namespace simkern {

using xbase::s64;
using xbase::usize;

void ObjectTable::Configure(const void* owner, xbase::u32 num_cpus) {
  owner_ = owner;
  num_cpus_ =
      num_cpus < 1 ? 1 : (num_cpus > kMaxCpus ? kMaxCpus : num_cpus);
}

ObjectId ObjectTable::Create(ObjectType type, std::string name,
                             Addr struct_addr) {
  std::lock_guard<std::mutex> guard(mu_);
  const ObjectId id = next_id_++;
  KObject object;
  object.id = id;
  object.type = type;
  object.name = std::move(name);
  object.struct_addr = struct_addr;
  objects_.emplace(id, std::move(object));
  JournalEvent(id, +1);
  return id;
}

xbase::Status ObjectTable::Acquire(ObjectId id) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return xbase::KernelFault(
        xbase::StrFormat("refcount_inc on nonexistent object %llu",
                         static_cast<unsigned long long>(id)));
  }
  if (it->second.freed) {
    return xbase::KernelFault("use-after-free: acquire of freed " +
                              it->second.name);
  }
  ++it->second.refcount;
  JournalEvent(id, +1);
  return xbase::Status::Ok();
}

xbase::Status ObjectTable::Release(ObjectId id) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return xbase::KernelFault(
        xbase::StrFormat("refcount_dec on nonexistent object %llu",
                         static_cast<unsigned long long>(id)));
  }
  KObject& object = it->second;
  if (object.freed) {
    return xbase::KernelFault("use-after-free: release of freed " +
                              object.name);
  }
  if (object.refcount <= 0) {
    return xbase::KernelFault("refcount underflow on " + object.name);
  }
  --object.refcount;
  if (object.refcount == 0) {
    object.freed = true;
  }
  JournalEvent(id, -1);
  return xbase::Status::Ok();
}

xbase::Status ObjectTable::Destroy(ObjectId id) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return xbase::NotFound("no such object");
  }
  it->second.freed = true;
  it->second.refcount = 0;
  return xbase::Status::Ok();
}

xbase::Result<KObject*> ObjectTable::Find(ObjectId id) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return xbase::NotFound(
        xbase::StrFormat("object %llu", static_cast<unsigned long long>(id)));
  }
  return &it->second;
}

bool ObjectTable::IsLive(ObjectId id) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = objects_.find(id);
  return it != objects_.end() && !it->second.freed;
}

s64 ObjectTable::RefcountOf(ObjectId id) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = objects_.find(id);
  return it == objects_.end() ? -1 : it->second.refcount;
}

RefcountSnapshot ObjectTable::Snapshot() const {
  std::lock_guard<std::mutex> guard(mu_);
  RefcountSnapshot snapshot;
  for (const auto& [id, object] : objects_) {
    if (!object.freed) {
      snapshot.counts.emplace(id, object.refcount);
    }
  }
  return snapshot;
}

std::vector<RefLeak> ObjectTable::DiffSince(
    const RefcountSnapshot& snapshot) const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<RefLeak> leaks;
  for (const auto& [id, object] : objects_) {
    if (object.freed) {
      continue;
    }
    const auto before_it = snapshot.counts.find(id);
    const s64 before = before_it == snapshot.counts.end()
                           ? 0
                           : before_it->second;
    if (object.refcount > before) {
      leaks.push_back(RefLeak{id, object.name, before, object.refcount});
    }
  }
  return leaks;
}

void ObjectTable::BeginRefJournal() {
  JournalSlot& slot = journals_[Bound()];
  slot.events.clear();  // keeps capacity — steady-state scopes do not allocate
  slot.active = true;
}

const std::vector<RefJournalEvent>& ObjectTable::EndRefJournal() {
  JournalSlot& slot = journals_[Bound()];
  slot.active = false;
  return slot.events;
}

}  // namespace simkern
