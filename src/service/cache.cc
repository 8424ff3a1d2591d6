#include "src/service/cache.h"

#include "src/xbase/rand.h"

namespace service {

crypto::Digest256 HashProgram(const ebpf::Program& prog) {
  crypto::Sha256 hasher;
  const xbase::u8 meta[2] = {static_cast<xbase::u8>(prog.type),
                             static_cast<xbase::u8>(prog.gpl_compatible)};
  hasher.Update(meta);
  for (const ebpf::Insn& insn : prog.insns) {
    // Wire-format encoding, little-endian: identical bytecode hashes
    // identically regardless of how the Insn structs were built.
    xbase::u8 wire[8];
    wire[0] = insn.opcode;
    wire[1] = static_cast<xbase::u8>((insn.dst & 0x0f) |
                                     ((insn.src & 0x0f) << 4));
    wire[2] = static_cast<xbase::u8>(insn.off & 0xff);
    wire[3] = static_cast<xbase::u8>((insn.off >> 8) & 0xff);
    wire[4] = static_cast<xbase::u8>(insn.imm & 0xff);
    wire[5] = static_cast<xbase::u8>((insn.imm >> 8) & 0xff);
    wire[6] = static_cast<xbase::u8>((insn.imm >> 16) & 0xff);
    wire[7] = static_cast<xbase::u8>((insn.imm >> 24) & 0xff);
    hasher.Update(wire);
  }
  return hasher.Finalize();
}

VerdictKey MakeProgramKey(const ebpf::Program& prog,
                          simkern::KernelVersion version, bool privileged,
                          bool prepass, xbase::u64 fault_epoch) {
  VerdictKey key;
  key.content = HashProgram(prog);
  key.version_major = version.major;
  key.version_minor = version.minor;
  key.privileged = privileged;
  key.prepass = prepass;
  key.fault_epoch = fault_epoch;
  return key;
}

xbase::usize VerdictCache::KeyHash::operator()(const VerdictKey& key) const {
  // The content digest is already uniform; fold in the discriminators with
  // a SplitMix64 round so near-identical keys land on distinct shards.
  xbase::u64 h = 0;
  for (int i = 0; i < 8; ++i) {
    h = (h << 8) | key.content[static_cast<xbase::usize>(i)];
  }
  xbase::u64 mix = h ^ (static_cast<xbase::u64>(key.version_major) << 48) ^
                   (static_cast<xbase::u64>(key.version_minor) << 32) ^
                   (static_cast<xbase::u64>(key.privileged) << 17) ^
                   (static_cast<xbase::u64>(key.prepass) << 16) ^
                   key.fault_epoch;
  return static_cast<xbase::usize>(xbase::SplitMix64(mix));
}

VerdictCache::Shard& VerdictCache::ShardFor(const VerdictKey& key) {
  return shards_[KeyHash{}(key) % kShardCount];
}

void VerdictCache::EvictIfNeededLocked(Shard& shard) {
  while (shard.map.size() > kCapacityPerShard && !shard.fifo.empty()) {
    shard.map.erase(shard.map.find(*shard.fifo.front()));
    shard.fifo.pop_front();
    ++shard.evictions;
  }
}

VerdictCache::Acquisition VerdictCache::Acquire(const VerdictKey& key) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    shard.map.emplace(key, std::make_shared<Entry>());
    ++shard.misses;
    Acquisition acq;
    acq.owner = true;
    return acq;
  }

  std::shared_ptr<Entry> entry = it->second;
  Acquisition acq;
  acq.hit = true;
  if (!entry->ready) {
    // Coalesce: the owner is computing this exact verdict right now.
    acq.waited = true;
    ++shard.coalesced;
    shard.ready_cv.wait(lock, [&entry] { return entry->ready; });
  }
  ++shard.hits;
  acq.verdict = entry->verdict;
  return acq;
}

void VerdictCache::Publish(const VerdictKey& key, Verdict verdict,
                           bool cacheable) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  std::shared_ptr<Entry> entry = it->second;
  entry->verdict = std::make_shared<const Verdict>(std::move(verdict));
  entry->ready = true;
  ++shard.published;
  // Waiters hold the Entry shared_ptr, so dropping the map reference for an
  // uncacheable verdict is safe: they wake, read, and the entry dies with
  // the last waiter.
  if (!cacheable) {
    shard.map.erase(it);
    ++shard.uncacheable;
  } else {
    shard.fifo.push_back(&it->first);
    EvictIfNeededLocked(shard);
  }
  shard.ready_cv.notify_all();
}

CacheStats VerdictCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.coalesced_waits += shard.coalesced;
    total.published += shard.published;
    total.uncacheable += shard.uncacheable;
    total.evictions += shard.evictions;
    total.entries += shard.map.size();
  }
  return total;
}

}  // namespace service
