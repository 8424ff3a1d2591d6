// The content-addressed verdict cache: the reason a production load path
// does not re-pay verification (the tax B-VER measures) for a program it
// has already judged. Keyed by
//
//   SHA-256(program bytes) × verifier version × privilege × prepass flag
//                          × FaultRegistry epoch
//
// The epoch term is the correctness heart: toggling any injectable verifier
// defect bumps the registry epoch, so a "safe" verdict computed before a
// fault was enabled can never be served after it — stale verdicts are
// simply unreachable keys. Sharded to keep admission workers off each
// other's locks; lookups for a key another worker is currently computing
// coalesce (block until the owner publishes) so a thundering herd of
// duplicate loads verifies exactly once.
//
// Eviction is FIFO by publish order and O(1): each shard queues its ready,
// cacheable entries as they are published and, while it holds more than
// kCapacityPerShard entries, drops the oldest-published one. Pending
// entries are never queued, so they are never evicted (their waiters block
// on them); uncacheable verdicts are never queued either. Two entries whose
// verifications overlapped leave in the order they were published, not
// the order they were acquired.
#pragma once

#include <array>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/crypto/sha256.h"
#include "src/ebpf/jit.h"
#include "src/ebpf/prog.h"
#include "src/ebpf/verifier.h"
#include "src/simkern/version.h"
#include "src/xbase/status.h"

namespace service {

struct VerdictKey {
  crypto::Digest256 content{};
  xbase::u16 version_major = 0;
  xbase::u16 version_minor = 0;
  bool privileged = true;
  bool prepass = false;
  xbase::u64 fault_epoch = 0;

  bool operator==(const VerdictKey&) const = default;
};

// Content hash of a program: every byte that feeds the admission decision
// (type, GPL flag, instruction stream). Names are cosmetic and excluded, so
// re-submitting the same bytecode under a different name still hits.
crypto::Digest256 HashProgram(const ebpf::Program& prog);

VerdictKey MakeProgramKey(const ebpf::Program& prog,
                          simkern::KernelVersion version, bool privileged,
                          bool prepass, xbase::u64 fault_epoch);

// What admission decided, in full: either the rejection status or
// everything Install needs (verify result + JIT image/stats). A cache hit
// returns the stored VerifyResult byte-identically — stats and all — so a
// hit is observationally the original verification, minus the cost.
struct Verdict {
  xbase::Status status;  // Ok = admitted
  ebpf::VerifyResult verify;
  ebpf::Program image;
  ebpf::JitStats jit;
};

struct CacheStats {
  xbase::u64 hits = 0;
  xbase::u64 misses = 0;            // first arrival, caller owns computation
  xbase::u64 coalesced_waits = 0;   // hits that waited for an in-flight owner
  xbase::u64 published = 0;
  xbase::u64 uncacheable = 0;       // published transient (epoch moved)
  xbase::u64 evictions = 0;
  xbase::usize entries = 0;
};

class VerdictCache {
 public:
  struct Acquisition {
    // Exactly one of hit/owner is true. hit: verdict is set (waited is true
    // if it blocked on an in-flight owner). owner: the caller must run the
    // stages and Publish() — waiters for this key are blocked on it.
    bool hit = false;
    bool owner = false;
    bool waited = false;
    std::shared_ptr<const Verdict> verdict;
  };

  // Lookup-or-claim. First arrival for a key becomes the owner; concurrent
  // arrivals for the same key block until the owner publishes, then return
  // its verdict as a hit. An owner that never publishes deadlocks its
  // waiters — the admission pipeline always publishes, even rejections.
  Acquisition Acquire(const VerdictKey& key);

  // Owner hands in the computed verdict. cacheable=false wakes the waiters
  // with the verdict but leaves nothing in the cache (used when the fault
  // epoch moved mid-computation: the verdict matches neither the old nor
  // the new epoch's key for certain, so nothing may persist under it).
  void Publish(const VerdictKey& key, Verdict verdict, bool cacheable);

  CacheStats stats() const;

 private:
  struct KeyHash {
    xbase::usize operator()(const VerdictKey& key) const;
  };

  struct Entry {
    bool ready = false;
    std::shared_ptr<const Verdict> verdict;
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable ready_cv;
    std::unordered_map<VerdictKey, std::shared_ptr<Entry>, KeyHash> map;
    // The keys of the ready, cacheable entries, oldest publish first. They
    // point into map nodes, which a rehash does not move; eviction is the
    // only remover of a ready entry, so none dangles.
    std::deque<const VerdictKey*> fifo;
    // Local stat counters (aggregated by stats()).
    xbase::u64 hits = 0;
    xbase::u64 misses = 0;
    xbase::u64 coalesced = 0;
    xbase::u64 published = 0;
    xbase::u64 uncacheable = 0;
    xbase::u64 evictions = 0;
  };

  Shard& ShardFor(const VerdictKey& key);
  void EvictIfNeededLocked(Shard& shard);

  static constexpr xbase::usize kShardCount = 16;
  static constexpr xbase::usize kCapacityPerShard = 1024;

  std::array<Shard, kShardCount> shards_;
};

}  // namespace service
