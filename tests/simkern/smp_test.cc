// Cross-CPU tests for the SMP substrate: per-thread CPU binding, per-CPU
// clocks, genuine cross-CPU RCU grace periods, spinlock contention
// accounting, task placement, and genuinely per-CPU map storage. CI runs
// this suite under TSan — every test that spawns threads doubles as a data
// race regression test for the machinery it touches (the shared
// `Kernel::current_cpu_` field these tests replaced was itself a race).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/ebpf/asm.h"
#include "src/ebpf/bpf.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/loader.h"
#include "src/simkern/kernel.h"
#include "src/xbase/bytes.h"

namespace simkern {
namespace {

using xbase::u32;
using xbase::u64;

KernelConfig SmpConfig(u32 cpus) {
  KernelConfig config;
  config.num_cpus = cpus;
  return config;
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Restores the calling thread's binding on scope exit, so tests that bind
// the main thread cannot leak the binding into later tests.
class BindingSaver {
 public:
  BindingSaver() : saved_(ThisThreadCpuBinding()) {}
  ~BindingSaver() { ThisThreadCpuBinding() = saved_; }

 private:
  CpuBinding saved_;
};

// ---- binding resolution -----------------------------------------------------

TEST(CpuBindingTest, ResolvesOnlyForOwnerAndInRange) {
  BindingSaver saver;
  Kernel a(SmpConfig(4));
  Kernel b(SmpConfig(4));
  ThisThreadCpuBinding() = CpuBinding{&a, 3};
  EXPECT_EQ(BoundCpuFor(&a, 4), 3u);
  // A foreign kernel never inherits another kernel's binding.
  EXPECT_EQ(BoundCpuFor(&b, 4), 0u);
  // An out-of-range binding (the owner shrank) degrades to cpu0.
  EXPECT_EQ(BoundCpuFor(&a, 2), 0u);
  EXPECT_EQ(a.current_cpu(), 3u);
  EXPECT_EQ(b.current_cpu(), 0u);
}

TEST(CpuBindingTest, NumCpusIsClampedToMax) {
  EXPECT_EQ(Kernel(SmpConfig(64)).num_cpus(), kMaxCpus);
  EXPECT_EQ(Kernel(SmpConfig(0)).num_cpus(), 1u);
  EXPECT_EQ(Kernel(SmpConfig(7)).num_cpus(), 7u);
}

TEST(CpuBindingTest, WorkersExecuteWithTheirOwnBinding) {
  Kernel kernel(SmpConfig(4));
  kernel.StartCpus();
  CpuPool& pool = *kernel.cpus();
  // Each task reads the kernel's CPU resolution twice; both reads must
  // agree (the binding is thread-local state, not a shared field another
  // concurrent execution can clobber mid-task) and be a real CPU.
  constexpr int kTasks = 64;
  std::vector<std::atomic<u32>> seen(kTasks);
  std::atomic<int> torn{0};
  for (int i = 0; i < kTasks; ++i) {
    std::atomic<u32>* slot = &seen[i];
    pool.Submit(i % kernel.num_cpus(), [&kernel, slot, &torn] {
      const u32 first = kernel.current_cpu();
      SleepMs(1);
      if (kernel.current_cpu() != first) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
      slot->store(first, std::memory_order_relaxed);
    });
  }
  pool.Drain();
  EXPECT_EQ(torn.load(), 0);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_LT(seen[i].load(), kernel.num_cpus());
  }
  kernel.StopCpus();
}

// ---- per-CPU clocks ---------------------------------------------------------

TEST(SmpClockTest, PerCpuClocksAdvanceIndependently) {
  Kernel kernel(SmpConfig(4));
  const u64 base = kernel.clock().now_ns(0);
  kernel.clock().Advance(1, 100);
  kernel.clock().Advance(2, 250);
  EXPECT_EQ(kernel.clock().now_ns(0), base);
  EXPECT_EQ(kernel.clock().now_ns(1), base + 100);
  EXPECT_EQ(kernel.clock().now_ns(2), base + 250);
  EXPECT_EQ(kernel.clock().now_ns(3), base);
  EXPECT_EQ(kernel.clock().max_now_ns(), base + 250);
  // The no-argument overloads resolve to the calling thread's CPU.
  BindingSaver saver;
  ThisThreadCpuBinding() = CpuBinding{&kernel, 1};
  EXPECT_EQ(kernel.clock().now_ns(), base + 100);
  kernel.clock().Advance(7);
  EXPECT_EQ(kernel.clock().now_ns(1), base + 107);
  EXPECT_EQ(kernel.clock().now_ns(2), base + 250);
}

// ---- cross-CPU RCU ----------------------------------------------------------

TEST(SmpRcuTest, RemoteReaderBlocksSynchronize) {
  Kernel kernel(SmpConfig(4));
  std::atomic<bool> reader_in{false};
  std::atomic<bool> release{false};
  std::atomic<bool> reader_leaving{false};

  // A genuine remote reader: a thread bound to cpu1 parks inside its
  // read-side critical section until told to leave. It says it is leaving
  // before it unlocks: once the unlock lets SynchronizeRcu return, the
  // reader thread may not have run another instruction yet.
  std::thread reader([&] {
    ThisThreadCpuBinding() = CpuBinding{&kernel, 1};
    kernel.rcu().ReadLock(kernel.clock(), "cpu1-reader");
    reader_in.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      SleepMs(1);
    }
    reader_leaving.store(true, std::memory_order_release);
    ASSERT_TRUE(kernel.rcu().ReadUnlock().ok());
  });

  while (!reader_in.load(std::memory_order_acquire)) {
    SleepMs(1);
  }
  EXPECT_TRUE(kernel.rcu().AnyReader());
  const u64 gp_before = kernel.rcu().grace_periods();

  // Schedule the release strictly later, then block in the grace period.
  // If SynchronizeRcu failed to wait for the remote CPU it would return
  // while reader_leaving is still false.
  std::thread releaser([&] {
    SleepMs(50);
    release.store(true, std::memory_order_release);
  });
  ASSERT_TRUE(kernel.rcu().SynchronizeRcu().ok());
  EXPECT_TRUE(reader_leaving.load(std::memory_order_acquire));
  EXPECT_EQ(kernel.rcu().grace_periods(), gp_before + 1);
  EXPECT_FALSE(kernel.rcu().AnyReader());
  reader.join();
  releaser.join();
}

TEST(SmpRcuTest, SynchronizeInsideOwnReaderFaultsOnWorkerCpu) {
  // The self-deadlock diagnosis must hold per-CPU, not just on cpu0.
  Kernel kernel(SmpConfig(4));
  std::thread worker([&] {
    ThisThreadCpuBinding() = CpuBinding{&kernel, 2};
    kernel.rcu().ReadLock(kernel.clock(), "cpu2-self");
    const xbase::Status status = kernel.rcu().SynchronizeRcu();
    EXPECT_EQ(status.code(), xbase::Code::kKernelFault);
    EXPECT_TRUE(kernel.rcu().ReadUnlock().ok());
  });
  worker.join();
}

TEST(SmpRcuTest, SynchronizeWithNoReadersCompletesImmediately) {
  Kernel kernel(SmpConfig(4));
  const u64 gp_before = kernel.rcu().grace_periods();
  ASSERT_TRUE(kernel.rcu().SynchronizeRcu().ok());
  EXPECT_EQ(kernel.rcu().grace_periods(), gp_before + 1);
}

// ---- spinlock contention ----------------------------------------------------

TEST(SmpLockTest, CrossCpuAcquireSpinsAndRecordsContention) {
  Kernel kernel(SmpConfig(4));
  const LockId id = kernel.locks().Create("contended");
  std::atomic<bool> held{false};

  std::thread holder([&] {
    ThisThreadCpuBinding() = CpuBinding{&kernel, 0};
    ASSERT_TRUE(kernel.locks().Acquire(id, "cpu0").ok());
    kernel.clock().Advance(0, 500);  // simulated hold time
    held.store(true, std::memory_order_release);
    SleepMs(30);  // wall-clock window the contender spins through
    ASSERT_TRUE(kernel.locks().Release(id).ok());
  });
  std::thread contender([&] {
    ThisThreadCpuBinding() = CpuBinding{&kernel, 1};
    while (!held.load(std::memory_order_acquire)) {
      SleepMs(1);
    }
    // Cross-CPU: this genuinely waits for cpu0's release instead of
    // reporting the same-CPU self-deadlock fault.
    ASSERT_TRUE(kernel.locks().Acquire(id, "cpu1").ok());
    ASSERT_TRUE(kernel.locks().Release(id).ok());
  });
  holder.join();
  contender.join();

  const LockStats stats = kernel.locks().StatsOf(id);
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_GE(stats.contended_acquires, 1u);
  EXPECT_GT(stats.spin_wall_ns, 0u);
  EXPECT_GE(stats.hold_sim_ns, 500u);
  EXPECT_EQ(kernel.locks().held_count_total(), 0);
}

TEST(SmpLockTest, SameCpuReacquireIsStillImmediateDeadlock) {
  Kernel kernel(SmpConfig(4));
  const LockId id = kernel.locks().Create("self");
  std::thread worker([&] {
    ThisThreadCpuBinding() = CpuBinding{&kernel, 3};
    ASSERT_TRUE(kernel.locks().Acquire(id, "first").ok());
    // Preemption-off semantics: the same CPU can never win this spin, so
    // it is diagnosed as a deadlock immediately rather than wedging.
    EXPECT_EQ(kernel.locks().Acquire(id, "second").code(),
              xbase::Code::kKernelFault);
    ASSERT_TRUE(kernel.locks().Release(id).ok());
  });
  worker.join();
  EXPECT_EQ(kernel.locks().held_count_total(), 0);
}

// ---- placement --------------------------------------------------------------

TEST(SmpPoolTest, SubmitRunsOnTheNamedCpu) {
  Kernel kernel(SmpConfig(4));
  kernel.StartCpus();
  CpuPool& pool = *kernel.cpus();
  // Pile 200 tasks on cpu0, each burning a little wall time, and a few on
  // every other CPU. The siblings go idle long before cpu0 is done, and
  // still every task runs on the CPU it was submitted to.
  constexpr u32 kPiled = 200;
  constexpr u32 kPerSibling = 5;
  std::vector<u32> submitted(kernel.num_cpus());
  std::atomic<u32> misplaced{0};
  auto submit = [&](u32 cpu, bool slow) {
    ++submitted[cpu];
    pool.Submit(cpu, [&kernel, &misplaced, cpu, slow] {
      if (slow) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (kernel.current_cpu() != cpu) {
        misplaced.fetch_add(1, std::memory_order_relaxed);
      }
    });
  };
  for (u32 i = 0; i < kPiled; ++i) {
    submit(0, true);
  }
  for (u32 cpu = 1; cpu < kernel.num_cpus(); ++cpu) {
    for (u32 i = 0; i < kPerSibling; ++i) {
      submit(cpu, false);
    }
  }
  pool.Drain();
  EXPECT_EQ(misplaced.load(), 0u);
  for (u32 cpu = 0; cpu < kernel.num_cpus(); ++cpu) {
    EXPECT_EQ(pool.executed_on(cpu), submitted[cpu]) << "cpu " << cpu;
  }
  kernel.StopCpus();
}

TEST(SmpPoolTest, DrainIsAQuiescenceBarrier) {
  Kernel kernel(SmpConfig(4));
  kernel.StartCpus();
  CpuPool& pool = *kernel.cpus();
  std::atomic<int> done{0};
  for (int round = 0; round < 10; ++round) {
    for (u32 cpu = 0; cpu < kernel.num_cpus(); ++cpu) {
      pool.Submit(cpu, [&done] { done.fetch_add(1); });
    }
    pool.Drain();
    EXPECT_EQ(done.load(), static_cast<int>((round + 1) * kernel.num_cpus()));
  }
  kernel.StopCpus();
}

// ---- genuinely per-CPU map storage ------------------------------------------

TEST(SmpMapTest, PercpuArraySlotsAccumulateIndependentlyAcrossCpus) {
  Kernel kernel(SmpConfig(4));
  ebpf::Bpf bpf(kernel);
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kPercpuArray;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 1;
  spec.name = "smp_counter";
  auto fd = bpf.maps().Create(spec);
  ASSERT_TRUE(fd.ok());
  auto* map =
      dynamic_cast<ebpf::PercpuArrayMap*>(bpf.maps().Find(fd.value()).value());
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->num_cpus(), kernel.num_cpus());

  std::vector<xbase::u8> key(4, 0);
  kernel.StartCpus();
  CpuPool& pool = *kernel.cpus();
  // Every CPU hammers the same key concurrently. LookupAddr resolves to
  // the *executing* CPU's slot, so with genuinely per-CPU backing storage
  // no increment is ever lost despite there being no lock on the value.
  constexpr int kIncrementsPerTask = 50;
  constexpr int kTasksPerCpu = 8;
  for (u32 cpu = 0; cpu < kernel.num_cpus(); ++cpu) {
    for (int t = 0; t < kTasksPerCpu; ++t) {
      pool.Submit(cpu, [&kernel, map, &key] {
        for (int i = 0; i < kIncrementsPerTask; ++i) {
          const simkern::Addr addr =
              map->LookupAddr(kernel, key).value();
          const u64 value = kernel.mem().ReadU64(addr).value();
          ASSERT_TRUE(kernel.mem().WriteU64(addr, value + 1).ok());
        }
      });
    }
  }
  pool.Drain();
  kernel.StopCpus();

  // Each task ran on the CPU it was submitted to, so every slot is exact:
  // same-CPU accesses are serialized by that CPU's one worker thread, and
  // distinct CPUs write distinct slots.
  for (u32 cpu = 0; cpu < kernel.num_cpus(); ++cpu) {
    EXPECT_EQ(
        kernel.mem().ReadU64(map->LookupAddrForCpu(key, cpu).value()).value(),
        static_cast<u64>(kTasksPerCpu) * kIncrementsPerTask)
        << "cpu " << cpu;
  }
}

// BPF_ATOMIC add is the kernel's documented way to count in a shared map:
// a locked read-modify-write. Four CPUs fire one counting program at the
// same one-slot array; an add made as a separate read and write loses the
// updates another CPU makes in between, so only an exact sum passes.
TEST(SmpMapTest, AtomicAddFromFourCpusIsExactOnBothEngines) {
  using namespace ebpf;
  constexpr int kAddsPerFire = 16;
  for (const ExecEngine engine : {ExecEngine::kThreaded, ExecEngine::kLegacy}) {
    Kernel kernel(SmpConfig(4));
    Bpf bpf(kernel);
    Loader loader(bpf);
    MapSpec spec;
    spec.type = MapType::kArray;
    spec.key_size = 4;
    spec.value_size = 8;
    spec.max_entries = 1;
    spec.name = "shared_counter";
    const int fd = bpf.maps().Create(spec).value();
    ProgramBuilder b("atomic_counter", ProgType::kSocketFilter);
    b.Ins(StMemImm(BPF_W, R10, -4, 0))
        .Ins(Mov64Reg(R2, R10))
        .Ins(Alu64Imm(BPF_ADD, R2, -4))
        .Ins(LdMapFd(R1, fd))
        .Ins(CallHelper(kHelperMapLookupElem))
        .JmpTo(BPF_JEQ, R0, 0, "out")
        .Ins(Mov64Imm(R1, 1));
    for (int i = 0; i < kAddsPerFire; ++i) {
      b.Ins(AtomicAdd(BPF_DW, R0, R1, 0));
    }
    b.Bind("out")
        .Ins(Mov64Imm(R0, 0))
        .Ins(Exit());
    const u32 id = loader.Load(b.Build().value()).value();
    const LoadedProgram& prog = *loader.Find(id).value();
    const simkern::Addr ctx =
        kernel.mem()
            .Map(64, MemPerm::kReadWrite, RegionKind::kKernelData, "ctx")
            .value();

    ExecOptions opts;
    opts.engine = engine;
    constexpr int kFiresPerCpu = 5000;
    std::atomic<u32> started{0};
    std::atomic<int> failed{0};
    kernel.StartCpus();
    CpuPool& pool = *kernel.cpus();
    for (u32 cpu = 0; cpu < kernel.num_cpus(); ++cpu) {
      pool.Submit(cpu, [&] {
        // Start together, so the CPUs' fires overlap.
        started.fetch_add(1);
        while (started.load() < kernel.num_cpus()) {
          std::this_thread::yield();
        }
        for (int i = 0; i < kFiresPerCpu; ++i) {
          if (!Execute(bpf, prog, ctx, opts, &loader).ok()) {
            failed.fetch_add(1);
          }
        }
      });
    }
    pool.Drain();
    kernel.StopCpus();

    const std::vector<xbase::u8> key(4, 0);
    const simkern::Addr slot =
        bpf.maps().Find(fd).value()->LookupAddr(kernel, key).value();
    EXPECT_EQ(failed.load(), 0);
    EXPECT_EQ(kernel.mem().ReadU64(slot).value(),
              u64{kernel.num_cpus()} * kFiresPerCpu * kAddsPerFire)
        << (engine == ExecEngine::kLegacy ? "legacy" : "threaded");
  }
}

}  // namespace
}  // namespace simkern
