// Admission pipeline unit tests: verdict-cache identity (a hit is
// observationally the original verification), key separation across
// privilege/version/epoch, bounded-queue backpressure (blocking, never
// dropping), thundering-herd coalescing (N duplicate submissions, one
// verification), and the verdict cache at capacity (FIFO eviction by
// publish order, pending entries never evicted).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/ebpf/asm.h"
#include "src/ebpf/fault.h"
#include "src/ebpf/interp.h"
#include "src/service/admission.h"

namespace service {
namespace {

using ebpf::ProgramBuilder;

ebpf::Program BusyProg(xbase::u32 iters) {
  // A counted loop: verification cost scales with iters, so concurrent
  // duplicate submissions genuinely overlap in the verifier. Distinct trip
  // counts give distinct content hashes.
  ProgramBuilder b("busy", ebpf::ProgType::kSyscall);
  b.Ins(ebpf::Mov64Imm(ebpf::R6, 0))
      .Ins(ebpf::Mov64Imm(ebpf::R0, 0))
      .Bind("top")
      .JmpTo(ebpf::BPF_JGE, ebpf::R6, static_cast<xbase::s32>(iters), "done")
      .Ins(ebpf::Alu64Reg(ebpf::BPF_ADD, ebpf::R0, ebpf::R6))
      .Ins(ebpf::Alu64Imm(ebpf::BPF_ADD, ebpf::R6, 1))
      .JaTo("top")
      .Bind("done")
      .Ins(ebpf::Exit());
  return b.Build().value();
}

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest()
      : kernel_(UnprivFriendlyConfig()), bpf_(kernel_), loader_(bpf_) {
    EXPECT_TRUE(kernel_.BootstrapWorkload().ok());
  }

  static simkern::KernelConfig UnprivFriendlyConfig() {
    simkern::KernelConfig config;
    config.unprivileged_bpf_disabled = false;
    return config;
  }

  AdmissionConfig SmallConfig(xbase::usize workers,
                              xbase::usize queue = 128) {
    AdmissionConfig config;
    config.workers = workers;
    config.queue_capacity = queue;
    return config;
  }

  simkern::Kernel kernel_;
  ebpf::Bpf bpf_;
  ebpf::Loader loader_;
};

void ExpectSameVerifyStats(const ebpf::VerifyStats& a,
                           const ebpf::VerifyStats& b) {
  // Memberwise, not just the headline counters: a cache hit must return
  // the stored VerifyResult byte-identically, wall time included.
  EXPECT_EQ(a.insns_processed, b.insns_processed);
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.states_pruned, b.states_pruned);
  EXPECT_EQ(a.peak_states, b.peak_states);
  EXPECT_EQ(a.states_leaked, b.states_leaked);
  EXPECT_EQ(a.verification_wall_ns, b.verification_wall_ns);
  EXPECT_EQ(a.prog_len, b.prog_len);
  EXPECT_EQ(a.subprog_count, b.subprog_count);
  EXPECT_EQ(a.max_stack_depth, b.max_stack_depth);
}

TEST_F(AdmissionTest, CacheHitReturnsIdenticalVerifyResult) {
  AdmissionService svc(SmallConfig(1), bpf_, loader_);
  const ebpf::Program prog = BusyProg(64);

  const auto first = svc.Wait(svc.Load(prog));
  const auto second = svc.Wait(svc.Load(prog));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(first.value(), second.value());  // distinct registrations

  const auto* a = loader_.Find(first.value()).value();
  const auto* b = loader_.Find(second.value()).value();
  ExpectSameVerifyStats(a->verify.stats, b->verify.stats);
  EXPECT_EQ(a->verify.subprog_starts, b->verify.subprog_starts);

  const AdmissionMetrics m = svc.Metrics();
  EXPECT_EQ(m.verify_runs, 1u);  // the second load never touched the verifier
  EXPECT_EQ(m.jit_runs, 1u);
  EXPECT_EQ(m.cache.hits, 1u);
  EXPECT_EQ(m.cache.misses, 1u);
  EXPECT_EQ(m.admitted, 2u);
}

TEST_F(AdmissionTest, PrivilegeAndVersionKeysDoNotCollide) {
  AdmissionService svc(SmallConfig(1), bpf_, loader_);
  const ebpf::Program prog = BusyProg(32);

  ebpf::LoadOptions privileged;
  ebpf::LoadOptions unprivileged;
  unprivileged.privileged = false;
  ebpf::LoadOptions old_kernel;
  old_kernel.version_override = simkern::KernelVersion{4, 19};

  (void)svc.Wait(svc.Load(prog, privileged));
  (void)svc.Wait(svc.Load(prog, unprivileged));
  (void)svc.Wait(svc.Load(prog, old_kernel));
  AdmissionMetrics m = svc.Metrics();
  // Three distinct keys: no cross-privilege or cross-version hits.
  EXPECT_EQ(m.cache.misses, 3u);
  EXPECT_EQ(m.cache.hits, 0u);

  // Re-submitting each variant hits its own entry.
  (void)svc.Wait(svc.Load(prog, privileged));
  (void)svc.Wait(svc.Load(prog, unprivileged));
  (void)svc.Wait(svc.Load(prog, old_kernel));
  m = svc.Metrics();
  EXPECT_EQ(m.cache.misses, 3u);
  EXPECT_EQ(m.cache.hits, 3u);
}

TEST_F(AdmissionTest, PrepassFlagIsPartOfTheKey) {
  AdmissionService svc(SmallConfig(1), bpf_, loader_);
  const ebpf::Program prog = BusyProg(16);

  ebpf::LoadOptions plain;
  ebpf::LoadOptions with_prepass;
  with_prepass.staticcheck_prepass = true;

  (void)svc.Wait(svc.Load(prog, plain));
  (void)svc.Wait(svc.Load(prog, with_prepass));
  const AdmissionMetrics m = svc.Metrics();
  EXPECT_EQ(m.cache.misses, 2u);
  EXPECT_EQ(m.prepass_runs, 1u);
}

// The bounded queue applies backpressure by blocking the submitter — no
// request is ever dropped. 64 submissions through a 2-deep queue must all
// resolve.
TEST_F(AdmissionTest, TinyQueueBlocksButNeverDrops) {
  AdmissionConfig config = SmallConfig(1, /*queue=*/2);
  AdmissionService svc(config, bpf_, loader_);
  const ebpf::Program prog = BusyProg(128);

  ebpf::LoadOptions async;
  async.async = true;
  std::vector<AdmissionService::Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(svc.Load(prog, async));
  }
  xbase::u64 resolved = 0;
  for (const auto& ticket : tickets) {
    resolved += svc.Wait(ticket).ok() ? 1 : 0;
  }
  EXPECT_EQ(resolved, 64u);

  const AdmissionMetrics m = svc.Metrics();
  EXPECT_EQ(m.submitted, 64u);
  EXPECT_EQ(m.completed, 64u);
  EXPECT_LE(m.queue_depth_peak, 2u);
}

// Thundering herd: many concurrent submissions of the same program must
// verify exactly once — the first arrival owns the computation, everyone
// else coalesces on the in-flight entry or hits the published verdict.
TEST_F(AdmissionTest, DuplicateHerdVerifiesExactlyOnce) {
  AdmissionService svc(SmallConfig(4), bpf_, loader_);
  const ebpf::Program prog = BusyProg(20000);  // heavy enough to overlap
  constexpr int kHerd = 32;

  ebpf::LoadOptions async;
  async.async = true;
  std::vector<AdmissionService::Ticket> tickets;
  tickets.reserve(kHerd);
  for (int i = 0; i < kHerd; ++i) {
    tickets.push_back(svc.Load(prog, async));
  }
  for (const auto& ticket : tickets) {
    EXPECT_TRUE(svc.Wait(ticket).ok());
  }

  const AdmissionMetrics m = svc.Metrics();
  EXPECT_EQ(m.verify_runs, 1u);
  EXPECT_EQ(m.jit_runs, 1u);
  EXPECT_EQ(m.cache.misses, 1u);
  EXPECT_EQ(m.cache.hits, static_cast<xbase::u64>(kHerd - 1));
  EXPECT_EQ(m.admitted, static_cast<xbase::u64>(kHerd));
  EXPECT_EQ(loader_.size(), static_cast<xbase::usize>(kHerd));
}

// The epoch regression at the service level: with the cache keyed only on
// content (no fault epoch), toggling a verifier defect between two
// identical loads served the stale pre-toggle verdict. The toggle must
// force a fresh verification even though the fault set ends up identical.
TEST_F(AdmissionTest, FaultToggleBetweenIdenticalLoadsForcesReverify) {
  AdmissionService svc(SmallConfig(1), bpf_, loader_);
  const ebpf::Program prog = BusyProg(64);

  ASSERT_TRUE(svc.Wait(svc.Load(prog)).ok());
  EXPECT_EQ(svc.Metrics().verify_runs, 1u);

  // Toggle on and straight back off: the active set is identical again,
  // but the epoch moved — the cached verdict is unreachable by design.
  bpf_.faults().Inject(ebpf::kFaultVerifierScalarBounds);
  bpf_.faults().Clear(ebpf::kFaultVerifierScalarBounds);

  ASSERT_TRUE(svc.Wait(svc.Load(prog)).ok());
  const AdmissionMetrics m = svc.Metrics();
  EXPECT_EQ(m.verify_runs, 2u) << "stale verdict served across fault toggle";
  EXPECT_EQ(m.cache.misses, 2u);
  EXPECT_EQ(m.cache.hits, 0u);
}

TEST_F(AdmissionTest, BatchPreservesSubmissionOrder) {
  AdmissionService svc(SmallConfig(4), bpf_, loader_);

  // Index 1 is rejected (load through an uninitialized register).
  ProgramBuilder bad("bad", ebpf::ProgType::kSyscall);
  bad.Ins(ebpf::LdxMem(ebpf::BPF_DW, ebpf::R0, ebpf::R5, 0)).Ins(ebpf::Exit());

  std::vector<ebpf::Program> batch;
  batch.push_back(BusyProg(8));
  batch.push_back(bad.Build().value());
  batch.push_back(BusyProg(24));

  const auto results = svc.LoadBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
}

TEST_F(AdmissionTest, ShutdownResolvesLateSubmissions) {
  AdmissionService svc(SmallConfig(2), bpf_, loader_);
  const ebpf::Program prog = BusyProg(8);
  ASSERT_TRUE(svc.Wait(svc.Load(prog)).ok());
  svc.Shutdown();

  const auto late = svc.Wait(svc.Load(prog));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), xbase::Code::kFailedPrecondition);
}

// Regression: the service used to install its verdict without a decoded
// image, so every Execute lazily re-decoded the program with no gate
// version and no fault registry — the dispatch gate never ran, and a
// helper the verifier wrongly admitted executed. Decoding at install
// restores the gate: both engines refuse, as on the Loader::Load path.
TEST_F(AdmissionTest, ServiceAdmittedProgramKeepsTheDispatchGate) {
  bpf_.faults().Inject(ebpf::kFaultVerifierFamilyGateSkip);
  ProgramBuilder b("yield-caller", ebpf::ProgType::kSocketFilter);
  b.Ins(ebpf::CallHelper(ebpf::kHelperSchedYield)).Ins(ebpf::Exit());
  ebpf::LoadOptions options;
  options.version_override = simkern::kV6_12;
  AdmissionService svc(SmallConfig(1), bpf_, loader_);
  auto id = svc.Wait(svc.Load(b.Build().value(), options));
  ASSERT_TRUE(id.ok()) << "the injected defect must admit the program";
  const ebpf::LoadedProgram& loaded = *loader_.Find(id.value()).value();
  EXPECT_EQ(loaded.jit.call_sites_gate_denied, 1u);

  const simkern::Addr ctx =
      kernel_.mem()
          .Map(64, simkern::MemPerm::kReadWrite,
               simkern::RegionKind::kKernelData, "gate-ctx")
          .value();
  for (ebpf::ExecEngine engine :
       {ebpf::ExecEngine::kThreaded, ebpf::ExecEngine::kLegacy}) {
    ebpf::ExecOptions exec;
    exec.engine = engine;
    auto result = ebpf::Execute(bpf_, loaded, ctx, exec, &loader_);
    ASSERT_FALSE(result.ok()) << "the helper ran";
    EXPECT_NE(result.status().message().find(
                  "denied by access contract at dispatch"),
              std::string::npos)
        << result.status().message();
  }
}

// A service admission lowers each program once, with every check in place,
// so the installed program's JIT counters describe its decoded image: on
// the miss that installs Prepare's own lowering and on the hit that lowers
// the cached verdict. The program is elide_test's proven map-value load
// plus a straight run of adds, which Loader::Load elides, fuses and packs
// into superblocks.
TEST_F(AdmissionTest, ServiceAdmittedProgramCountsTheImageItInstalls) {
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kArray;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 1;
  spec.name = "counted";
  const int fd = bpf_.maps().Create(spec).value();
  ProgramBuilder b("proven", ebpf::ProgType::kKprobe);
  b.Ins(ebpf::StMemImm(ebpf::BPF_W, ebpf::R10, -4, 0))
      .Ins(ebpf::LdMapFd(ebpf::R1, fd))
      .Ins(ebpf::Mov64Reg(ebpf::R2, ebpf::R10))
      .Ins(ebpf::Alu64Imm(ebpf::BPF_ADD, ebpf::R2, -4))
      .Ins(ebpf::CallHelper(ebpf::kHelperMapLookupElem))
      .JmpTo(ebpf::BPF_JEQ, ebpf::R0, 0, "out")
      .Ins(ebpf::LdxMem(ebpf::BPF_DW, ebpf::R0, ebpf::R0, 0));
  for (int i = 0; i < 8; ++i) {
    b.Ins(ebpf::Alu64Imm(ebpf::BPF_ADD, ebpf::R0, 1));
  }
  b.Bind("out").Ins(ebpf::Exit());
  const ebpf::Program prog = b.Build().value();

  auto direct = loader_.Load(prog);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const ebpf::JitStats& elided = loader_.Find(direct.value()).value()->jit;
  ASSERT_GT(elided.checks_elided, 0u);
  ASSERT_GT(elided.pairs_fused, 0u);
  ASSERT_GT(elided.superblocks, 0u);

  AdmissionService svc(SmallConfig(1), bpf_, loader_);
  for (int load = 0; load < 2; ++load) {
    auto id = svc.Wait(svc.Load(prog));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    const ebpf::LoadedProgram& loaded = *loader_.Find(id.value()).value();
    EXPECT_EQ(loaded.jit.checks_elided, 0u) << "load " << load;
    EXPECT_EQ(loaded.jit.pairs_fused, 0u) << "load " << load;
    EXPECT_EQ(loaded.jit.superblocks, 0u) << "load " << load;
    EXPECT_TRUE(loaded.decoded.sb_ops.empty()) << "load " << load;
    for (const ebpf::MicroOp& op : loaded.decoded.ops) {
      // The ...U, Fuse... and SuperBlock handlers, the trailing groups of
      // EBPF_UOP_LIST from kLdxBU on, come only from a lowering with claims.
      EXPECT_LT(op.handler, static_cast<xbase::u16>(ebpf::UOp::kLdxBU))
          << "load " << load;
    }
  }
  const CacheStats cache = svc.Metrics().cache;
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 1u);
}

// ---- the verdict cache at capacity -----------------------------------------

// VerdictCache's geometry: 16 shards of 1024 entries.
constexpr xbase::usize kCacheCapacity = 16 * 1024;
// Enough distinct keys to overflow every shard (~1250 each).
constexpr xbase::u64 kFlood = 20000;

// A distinct key per index; the hash takes the digest's first eight bytes.
VerdictKey FloodKey(xbase::u64 index) {
  VerdictKey key;
  for (xbase::usize i = 0; i < 8; ++i) {
    key.content[i] = static_cast<xbase::u8>(index >> (8 * i));
  }
  key.content[8] = 0xf1;  // apart from the keys a test picks by hand
  return key;
}

// Claims `key` as its owner and publishes an admitted verdict for it.
void PublishFresh(VerdictCache& cache, const VerdictKey& key) {
  ASSERT_TRUE(cache.Acquire(key).owner);
  cache.Publish(key, Verdict{}, /*cacheable=*/true);
}

// True if `key` is cached. A miss claims the key, so it is published again
// and becomes the newest entry of its shard.
bool Cached(VerdictCache& cache, const VerdictKey& key) {
  if (cache.Acquire(key).hit) {
    return true;
  }
  cache.Publish(key, Verdict{}, /*cacheable=*/true);
  return false;
}

TEST(VerdictCacheTest, FullCacheEvictsTheOldestPublishedFirst) {
  VerdictCache cache;
  for (xbase::u64 i = 0; i < kFlood; ++i) {
    PublishFresh(cache, FloodKey(i));
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.published, kFlood);
  EXPECT_LE(stats.entries, kCacheCapacity);
  EXPECT_EQ(stats.entries, kCacheCapacity);  // every shard overflowed
  EXPECT_EQ(stats.evictions, stats.published - stats.entries);

  // The last 1024 published are the newest of every shard they land in.
  for (xbase::u64 i = kFlood - 1024; i < kFlood; ++i) {
    EXPECT_TRUE(cache.Acquire(FloodKey(i)).hit) << "key " << i;
  }
  EXPECT_FALSE(Cached(cache, FloodKey(0)));
  EXPECT_LE(cache.stats().entries, kCacheCapacity);
}

// Two verifications overlap: A is acquired first but published second, so
// B goes first. The flood that pushes A's shard over capacity in a scratch
// cache names a key in A's shard to play B.
TEST(VerdictCacheTest, OverlappingVerificationsLeaveInPublishOrder) {
  const VerdictKey a = FloodKey(kFlood);
  VerdictKey b;
  {
    VerdictCache scratch;
    PublishFresh(scratch, a);
    for (xbase::u64 i = 0; i < kFlood; ++i) {
      PublishFresh(scratch, FloodKey(i));
      if (!Cached(scratch, a)) {
        b = FloodKey(i);
        break;
      }
    }
    ASSERT_NE(b, VerdictKey{}) << "the flood never evicted A";
  }

  VerdictCache cache;
  ASSERT_TRUE(cache.Acquire(a).owner);
  ASSERT_TRUE(cache.Acquire(b).owner);
  cache.Publish(b, Verdict{}, /*cacheable=*/true);
  cache.Publish(a, Verdict{}, /*cacheable=*/true);
  for (xbase::u64 i = 0; i < kFlood; ++i) {
    const VerdictKey key = FloodKey(i);
    if (key == b) {
      continue;
    }
    PublishFresh(cache, key);
    if (!cache.Acquire(b).hit) {
      EXPECT_TRUE(cache.Acquire(a).hit) << "A left before B";
      return;
    }
    ASSERT_TRUE(cache.Acquire(a).hit) << "A left before B";
  }
  FAIL() << "the flood never evicted B";
}

TEST(VerdictCacheTest, PendingEntrySurvivesAFloodAndPublishesToItsWaiter) {
  VerdictCache cache;
  VerdictKey pending;
  pending.content[0] = 0x5a;
  ASSERT_TRUE(cache.Acquire(pending).owner);
  for (xbase::u64 i = 0; i < kFlood; ++i) {
    PublishFresh(cache, FloodKey(i));
  }
  EXPECT_LE(cache.stats().entries, kCacheCapacity);

  VerdictCache::Acquisition waited;
  std::thread waiter([&] { waited = cache.Acquire(pending); });
  while (cache.stats().coalesced_waits == 0) {
    std::this_thread::yield();
  }
  Verdict verdict;
  verdict.status = xbase::Internal("owner's verdict");
  cache.Publish(pending, std::move(verdict), /*cacheable=*/true);
  waiter.join();

  EXPECT_TRUE(waited.hit);
  EXPECT_TRUE(waited.waited);
  ASSERT_NE(waited.verdict, nullptr);
  EXPECT_EQ(waited.verdict->status.message(), "owner's verdict");
  EXPECT_TRUE(cache.Acquire(pending).hit);
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, kCacheCapacity);
  EXPECT_EQ(stats.evictions, stats.published - stats.entries);
}

TEST(VerdictCacheTest, ConcurrentFloodsKeepTheCountsExact) {
  VerdictCache cache;
  std::atomic<bool> go{false};
  auto flood = [&](xbase::u64 first) {
    while (!go.load()) {
      std::this_thread::yield();
    }
    for (xbase::u64 i = first; i < first + kFlood; ++i) {
      PublishFresh(cache, FloodKey(i));
    }
  };
  std::thread one(flood, 0);
  std::thread two(flood, kFlood);
  go.store(true);
  one.join();
  two.join();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2 * kFlood);
  EXPECT_EQ(stats.published, 2 * kFlood);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, kCacheCapacity);
  EXPECT_EQ(stats.evictions, stats.published - stats.entries);
}

}  // namespace
}  // namespace service
