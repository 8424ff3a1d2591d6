// Unit tests for the simulated kernel substrate: memory model, objects,
// RCU, locks, tasks, networking, call graph and the kernel façade.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/simkern/kernel.h"

namespace simkern {
namespace {

using xbase::u8;

// ---- memory ------------------------------------------------------------------

TEST(SimMemoryTest, MapReadWriteRoundTrip) {
  SimMemory mem;
  auto base = mem.Map(64, MemPerm::kReadWrite, RegionKind::kKernelData, "r");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(mem.WriteU64(base.value(), 0xabcdef).ok());
  EXPECT_EQ(mem.ReadU64(base.value()).value(), 0xabcdefu);
}

TEST(SimMemoryTest, RegionsGetGuardGaps) {
  SimMemory mem;
  const Addr a =
      mem.Map(64, MemPerm::kReadWrite, RegionKind::kKernelData, "a").value();
  const Addr b =
      mem.Map(64, MemPerm::kReadWrite, RegionKind::kKernelData, "b").value();
  EXPECT_GE(b - a, 64u + 0x1000u);
  // The gap faults.
  u8 buf[1];
  EXPECT_EQ(mem.ReadChecked(a + 64, buf, 0).code(),
            xbase::Code::kKernelFault);
}

TEST(SimMemoryTest, NullGuardPage) {
  SimMemory mem;
  u8 buf[4];
  const xbase::Status status = mem.ReadChecked(0, buf, 0);
  EXPECT_EQ(status.code(), xbase::Code::kKernelFault);
  const auto fault = mem.TakeFault();
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->kind, FaultKind::kNullDeref);
  EXPECT_FALSE(mem.TakeFault().has_value()) << "fault is consumed";
}

TEST(SimMemoryTest, ReadOnlyRegionRejectsWrites) {
  SimMemory mem;
  const Addr base =
      mem.Map(32, MemPerm::kRead, RegionKind::kTaskStruct, "ro").value();
  const u8 data[] = {1};
  EXPECT_EQ(mem.WriteChecked(base, data, 0).code(),
            xbase::Code::kKernelFault);
  EXPECT_EQ(mem.TakeFault()->kind, FaultKind::kPermission);
  // Trusted kernel writes bypass the permission model.
  EXPECT_TRUE(mem.Write(base, data).ok());
}

TEST(SimMemoryTest, CrossRegionAccessFaults) {
  SimMemory mem;
  const Addr base =
      mem.Map(16, MemPerm::kReadWrite, RegionKind::kKernelData, "r").value();
  u8 buf[8];
  // 8-byte read starting at the 12th byte crosses the region end.
  EXPECT_EQ(mem.ReadChecked(base + 12, buf, 0).code(),
            xbase::Code::kKernelFault);
}

TEST(SimMemoryTest, ProtectionKeys) {
  SimMemory mem;
  const Addr base =
      mem.Map(16, MemPerm::kReadWrite, RegionKind::kExtensionPool, "p")
          .value();
  mem.SetRegionKey(base, 7);
  u8 buf[4];
  EXPECT_TRUE(mem.ReadChecked(base, buf, 7).ok());   // matching key
  EXPECT_TRUE(mem.ReadChecked(base, buf, 0).ok());   // supervisor
  EXPECT_EQ(mem.ReadChecked(base, buf, 3).code(),    // foreign domain
            xbase::Code::kKernelFault);
  EXPECT_EQ(mem.TakeFault()->kind, FaultKind::kProtectionKey);
}

TEST(SimMemoryTest, UnmapInvalidatesAddresses) {
  SimMemory mem;
  const Addr base =
      mem.Map(16, MemPerm::kReadWrite, RegionKind::kMapData, "m").value();
  ASSERT_TRUE(mem.Unmap(base).ok());
  u8 buf[4];
  EXPECT_EQ(mem.ReadChecked(base, buf, 0).code(),
            xbase::Code::kKernelFault);
  EXPECT_EQ(mem.Unmap(base).code(), xbase::Code::kNotFound);
}

TEST(SimMemoryTest, OverlapRejected) {
  SimMemory mem;
  const Addr base =
      mem.Map(64, MemPerm::kReadWrite, RegionKind::kKernelData, "a").value();
  EXPECT_EQ(mem.Map(64, MemPerm::kReadWrite, RegionKind::kKernelData, "b",
                    base + 8)
                .status()
                .code(),
            xbase::Code::kAlreadyExists);
}

TEST(SimMemoryTest, OverlapWithEitherNeighbourRejectedTouchingAccepted) {
  // Fixed regions at [0x10000, 0x10100) and [0x10200, 0x10300), with
  // unrelated regions around them so the neighbours are not the table ends.
  SimMemory mem;
  const auto map = [&mem](Addr base, xbase::usize size, const char* name) {
    return mem.Map(size, MemPerm::kReadWrite, RegionKind::kKernelData, name,
                   base);
  };
  ASSERT_TRUE(map(0x8000, 0x100, "low").ok());
  ASSERT_TRUE(map(0x10000, 0x100, "left").ok());
  ASSERT_TRUE(map(0x10200, 0x100, "right").ok());
  ASSERT_TRUE(map(0x20000, 0x100, "high").ok());

  // Overlaps the left neighbour's tail.
  const auto left = map(0x100ff, 0x10, "x");
  EXPECT_EQ(left.status().code(), xbase::Code::kAlreadyExists);
  EXPECT_EQ(left.status().message(),
            "region overlap at 0x100ff (x vs left)");
  // Overlaps the right neighbour's head.
  const auto right = map(0x10180, 0x81, "y");
  EXPECT_EQ(right.status().code(), xbase::Code::kAlreadyExists);
  EXPECT_EQ(right.status().message(),
            "region overlap at 0x10180 (y vs right)");
  // Covers a whole neighbour; the lower overlap is the one reported.
  EXPECT_EQ(map(0xff00, 0x10400, "z").status().message(),
            "region overlap at 0xff00 (z vs left)");
  // Same base as a neighbour.
  EXPECT_EQ(map(0x10200, 0x8, "w").status().code(),
            xbase::Code::kAlreadyExists);
  EXPECT_EQ(mem.region_count(), 4u) << "a rejected map leaves no region";

  // Exactly filling the gap touches both neighbours and overlaps neither.
  const auto gap = map(0x10100, 0x100, "gap");
  ASSERT_TRUE(gap.ok()) << gap.status().ToString();
  EXPECT_EQ(mem.region_count(), 5u);
  u8 buf[1];
  EXPECT_TRUE(mem.ReadChecked(0x100ff, buf, 0).ok());
  EXPECT_TRUE(mem.ReadChecked(0x10100, buf, 0).ok());
  EXPECT_TRUE(mem.ReadChecked(0x101ff, buf, 0).ok());
  EXPECT_TRUE(mem.ReadChecked(0x10200, buf, 0).ok());
}

// ---- objects -------------------------------------------------------------------

TEST(ObjectTableTest, AcquireReleaseLifecycle) {
  ObjectTable objects;
  const ObjectId id = objects.Create(ObjectType::kSock, "s");
  EXPECT_EQ(objects.RefcountOf(id), 1);
  EXPECT_TRUE(objects.Acquire(id).ok());
  EXPECT_EQ(objects.RefcountOf(id), 2);
  EXPECT_TRUE(objects.Release(id).ok());
  EXPECT_TRUE(objects.Release(id).ok());
  EXPECT_FALSE(objects.IsLive(id));  // refcount hit zero -> freed
}

TEST(ObjectTableTest, UseAfterFreeDetected) {
  ObjectTable objects;
  const ObjectId id = objects.Create(ObjectType::kSock, "s");
  ASSERT_TRUE(objects.Release(id).ok());
  EXPECT_EQ(objects.Acquire(id).code(), xbase::Code::kKernelFault);
  EXPECT_EQ(objects.Release(id).code(), xbase::Code::kKernelFault);
}

TEST(ObjectTableTest, SnapshotDiffFindsLeaks) {
  ObjectTable objects;
  const ObjectId id = objects.Create(ObjectType::kTask, "t");
  const RefcountSnapshot before = objects.Snapshot();
  ASSERT_TRUE(objects.Acquire(id).ok());
  const auto leaks = objects.DiffSince(before);
  ASSERT_EQ(leaks.size(), 1u);
  EXPECT_EQ(leaks[0].id, id);
  EXPECT_EQ(leaks[0].before, 1);
  EXPECT_EQ(leaks[0].after, 2);
  ASSERT_TRUE(objects.Release(id).ok());
  EXPECT_TRUE(objects.DiffSince(before).empty());
}

TEST(ObjectTableTest, NewObjectsSinceSnapshotCount) {
  ObjectTable objects;
  const RefcountSnapshot before = objects.Snapshot();
  objects.Create(ObjectType::kRequestSock, "leaked");
  EXPECT_EQ(objects.DiffSince(before).size(), 1u);
}

// ---- RCU -----------------------------------------------------------------------

TEST(RcuTest, StallDetectedAfterTimeout) {
  SimClock clock;
  RcuState rcu;
  rcu.ReadLock(clock, "test");
  clock.Advance(kRcuStallTimeoutNs - 1);
  rcu.CheckStall(clock);
  EXPECT_TRUE(rcu.stalls().empty());
  clock.Advance(2);
  rcu.CheckStall(clock);
  ASSERT_EQ(rcu.stalls().size(), 1u);
  EXPECT_GE(rcu.stalls()[0].held_for_ns, kRcuStallTimeoutNs);
  // Reported once per critical section.
  clock.Advance(kRcuStallTimeoutNs);
  rcu.CheckStall(clock);
  EXPECT_EQ(rcu.stalls().size(), 1u);
  EXPECT_TRUE(rcu.ReadUnlock().ok());
}

TEST(RcuTest, NestingTracksOutermost) {
  SimClock clock;
  RcuState rcu;
  rcu.ReadLock(clock, "outer");
  clock.Advance(100);
  rcu.ReadLock(clock, "inner");
  EXPECT_EQ(rcu.depth(), 2);
  clock.Advance(100);
  EXPECT_EQ(rcu.HeldForNs(clock), 200u);
  EXPECT_TRUE(rcu.ReadUnlock().ok());
  EXPECT_TRUE(rcu.ReadUnlock().ok());
  EXPECT_FALSE(rcu.InCriticalSection());
}

TEST(RcuTest, UnbalancedUnlockFaults) {
  RcuState rcu;
  EXPECT_EQ(rcu.ReadUnlock().code(), xbase::Code::kKernelFault);
}

TEST(RcuTest, SynchronizeInsideReaderDeadlocks) {
  SimClock clock;
  RcuState rcu;
  rcu.ReadLock(clock, "r");
  EXPECT_EQ(rcu.SynchronizeRcu().code(), xbase::Code::kKernelFault);
  ASSERT_TRUE(rcu.ReadUnlock().ok());
  EXPECT_TRUE(rcu.SynchronizeRcu().ok());
}

// ---- locks ---------------------------------------------------------------------

TEST(LockTest, AcquireReleaseAndDeadlock) {
  LockTable locks;
  const LockId id = locks.Create("l");
  EXPECT_TRUE(locks.Acquire(id, "a").ok());
  EXPECT_TRUE(locks.IsHeld(id));
  EXPECT_EQ(locks.Acquire(id, "b").code(), xbase::Code::kKernelFault);
  EXPECT_TRUE(locks.Release(id).ok());
  EXPECT_EQ(locks.Release(id).code(), xbase::Code::kKernelFault);
}

TEST(LockTest, HeldLocksEnumerates) {
  LockTable locks;
  const LockId a = locks.Create("a");
  const LockId b = locks.Create("b");
  ASSERT_TRUE(locks.Acquire(a, "x").ok());
  ASSERT_TRUE(locks.Acquire(b, "x").ok());
  EXPECT_EQ(locks.HeldLocks().size(), 2u);
  locks.ForceRelease(a);
  EXPECT_EQ(locks.HeldLocks().size(), 1u);
}

// ---- tasks & net -----------------------------------------------------------------

TEST(TaskTest, CreateAndReadBack) {
  Kernel kernel;
  const auto pid =
      kernel.tasks().Create(kernel.mem(), kernel.objects(), 42, 40, "demo");
  ASSERT_TRUE(pid.ok());
  const auto task = kernel.tasks().FindByPid(42);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task.value()->tgid, 40u);
  // The struct bytes are live in simulated memory.
  const auto stored_pid =
      kernel.mem().ReadU32(task.value()->struct_addr + TaskLayout::kPid);
  EXPECT_EQ(stored_pid.value(), 42u);
  EXPECT_TRUE(kernel.tasks().FindByAddr(task.value()->struct_addr).ok());
  EXPECT_EQ(kernel.tasks().Create(kernel.mem(), kernel.objects(), 42, 1,
                                  "dup")
                .status()
                .code(),
            xbase::Code::kAlreadyExists);
}

TEST(TaskTest, RemoveMakesFindFailCleanly) {
  Kernel kernel;
  ASSERT_TRUE(kernel.tasks()
                  .Create(kernel.mem(), kernel.objects(), 7, 7, "worker")
                  .ok());
  const Addr struct_addr = kernel.tasks().FindByPid(7).value()->struct_addr;
  ASSERT_TRUE(kernel.tasks().SetCurrent(0, 7).ok());
  ASSERT_TRUE(kernel.tasks().Remove(kernel.mem(), kernel.objects(), 7).ok());
  // The regression this pins: a lookup after removal must fail cleanly —
  // NotFound, not a stale pointer into unmapped memory.
  EXPECT_EQ(kernel.tasks().FindByPid(7).status().code(),
            xbase::Code::kNotFound);
  EXPECT_EQ(kernel.tasks().FindByAddr(struct_addr).status().code(),
            xbase::Code::kNotFound);
  EXPECT_EQ(kernel.tasks().current(0), nullptr)
      << "current must not dangle past the exit";
  EXPECT_FALSE(kernel.mem().ReadU32(struct_addr + TaskLayout::kPid).ok())
      << "the struct region is unmapped";
  EXPECT_EQ(kernel.tasks().Remove(kernel.mem(), kernel.objects(), 7).code(),
            xbase::Code::kNotFound);
  // The pid is reusable after exit.
  EXPECT_TRUE(kernel.tasks()
                  .Create(kernel.mem(), kernel.objects(), 7, 7, "reborn")
                  .ok());
}

TEST(TaskTest, KernelRemoveTaskAlsoDropsRunqueueEntry) {
  Kernel kernel;
  ASSERT_TRUE(kernel.BootstrapWorkload().ok());
  ASSERT_TRUE(kernel.runqueue().Enqueue(4321, kernel.clock().now_ns()).ok());
  ASSERT_TRUE(kernel.RemoveTask(4321).ok());
  EXPECT_FALSE(kernel.runqueue().Contains(4321));
  EXPECT_EQ(kernel.tasks().FindByPid(4321).status().code(),
            xbase::Code::kNotFound);
}

TEST(TaskTest, CurrentTaskSwitches) {
  Kernel kernel;
  ASSERT_TRUE(kernel.BootstrapWorkload().ok());
  ASSERT_TRUE(kernel.tasks().SetCurrent(0, 4321).ok());
  EXPECT_EQ(kernel.tasks().current(0)->comm, "nginx");
  EXPECT_EQ(kernel.tasks().SetCurrent(0, 99999).code(),
            xbase::Code::kNotFound);
  EXPECT_EQ(kernel.tasks().SetCurrent(kMaxCpus, 4321).code(),
            xbase::Code::kInvalidArgument);
}

// Each simulated CPU has its own current task: a scheduler dispatching on
// one CPU must not change what helpers on another CPU see, and an exiting
// task leaves no CPU pointing at it.
TEST(TaskTest, CurrentTaskIsPerCpu) {
  Kernel kernel;
  ASSERT_TRUE(kernel.BootstrapWorkload().ok());
  for (xbase::u32 cpu = 0; cpu < kernel.num_cpus(); ++cpu) {
    EXPECT_EQ(kernel.tasks().current(cpu)->pid, 1234u) << "cpu " << cpu;
  }
  ASSERT_TRUE(kernel.tasks().SetCurrent(1, 4321).ok());
  ASSERT_TRUE(kernel.tasks().SetCurrent(2, 4321).ok());
  EXPECT_EQ(kernel.tasks().current(0)->pid, 1234u);
  EXPECT_EQ(kernel.tasks().current(1)->pid, 4321u);
  ASSERT_TRUE(kernel.RemoveTask(4321).ok());
  EXPECT_EQ(kernel.tasks().current(1), nullptr);
  EXPECT_EQ(kernel.tasks().current(2), nullptr);
  EXPECT_EQ(kernel.tasks().current(0)->pid, 1234u);
}

TEST(NetTest, SockLookupByTuple) {
  Kernel kernel;
  ASSERT_TRUE(kernel.BootstrapWorkload().ok());
  const SockTuple tuple{0x0a000001, 0x0a000002, 8080, 40000};
  const auto sock = kernel.net().Lookup(tuple);
  ASSERT_TRUE(sock.has_value());
  EXPECT_EQ(sock->protocol, 6u);
  EXPECT_FALSE(kernel.net().Lookup(SockTuple{1, 2, 3, 4}).has_value());
}

TEST(NetTest, SkBuffLayout) {
  Kernel kernel;
  const u8 payload[] = {0xaa, 0xbb, 0xcc};
  const auto skb = kernel.net().CreateSkBuff(kernel.mem(), payload);
  ASSERT_TRUE(skb.ok());
  EXPECT_EQ(skb.value().len, 3u);
  const auto len = kernel.mem().ReadU32(skb.value().meta_addr +
                                        SkBuffLayout::kLen);
  EXPECT_EQ(len.value(), 3u);
  const auto data_ptr = kernel.mem().ReadU64(skb.value().meta_addr +
                                             SkBuffLayout::kDataPtr);
  EXPECT_EQ(data_ptr.value(), skb.value().data_addr);
  u8 byte;
  ASSERT_TRUE(kernel.mem().Read(skb.value().data_addr, {&byte, 1}).ok());
  EXPECT_EQ(byte, 0xaa);
}

// ---- call graph ---------------------------------------------------------------------

TEST(CallGraphTest, ReachabilityCountsUniqueNodes) {
  CallGraph graph;
  graph.AddEdgeById(graph.Intern("a"), graph.Intern("b"));
  graph.AddEdgeById(graph.Intern("a"), graph.Intern("c"));
  graph.AddEdgeById(graph.Intern("b"), graph.Intern("c"));
  graph.AddEdgeById(graph.Intern("c"), graph.Intern("d"));
  EXPECT_EQ(graph.ReachableCount("a").value(), 4u);
  EXPECT_EQ(graph.ReachableCount("c").value(), 2u);
  EXPECT_EQ(graph.ReachableCount("missing").status().code(),
            xbase::Code::kNotFound);
}

TEST(CallGraphTest, DuplicateEdgesIgnored) {
  CallGraph graph;
  graph.AddEdgeById(graph.Intern("a"), graph.Intern("b"));
  graph.AddEdgeById(graph.Intern("a"), graph.Intern("b"));
  EXPECT_EQ(graph.edge_count(), 1u);
}

TEST(SubsysTest, SpineGuaranteesExactReach) {
  CallGraph graph;
  BuildSubsystems(graph, {{"test", 100, 2}}, 1);
  EXPECT_EQ(graph.ReachableCount("test.f0").value(), 100u);
  EXPECT_EQ(graph.ReachableCount("test.f50").value(), 50u);
  EXPECT_EQ(graph.ReachableCount("test.f99").value(), 1u);
  EXPECT_EQ(SubsystemEntry(graph, "test", 30), graph.Find("test.f70").value());
  // Reach clamps to [1, function_count].
  EXPECT_EQ(SubsystemEntry(graph, "test", 0), graph.Find("test.f99").value());
  EXPECT_EQ(SubsystemEntry(graph, "test", 101), graph.Find("test.f0").value());
  EXPECT_EQ(SubsystemEntry(graph, "missing", 30), std::nullopt);
}

TEST(SubsysTest, DefaultSubsystemsBuildDeterministically) {
  CallGraph a, b;
  BuildSubsystems(a, DefaultSubsystems(), 7);
  BuildSubsystems(b, DefaultSubsystems(), 7);
  EXPECT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  EXPECT_GT(a.node_count(), 9000u);  // the scale model is nontrivial
}

// The graph every kernel boots with, pinned: node and edge counts of a bare
// kernel and of a full System, and each helper's and kfunc's Figure 3
// reach. Any change to the generator, its seed or the representation that
// moves one of these moves Figure 3.
TEST(CallGraphGoldenTest, BootGraphCountsAndReach) {
  Kernel bare;
  EXPECT_EQ(bare.callgraph().node_count(), 9774u);
  EXPECT_EQ(bare.callgraph().edge_count(), 35430u);

  safex::System system;
  ASSERT_TRUE(system.ok());
  const CallGraph& graph = system.kernel.callgraph();
  EXPECT_EQ(graph.node_count(), 9870u);
  EXPECT_EQ(graph.edge_count(), 35543u);

  const std::map<std::string, xbase::usize> kReach = {
      {"bpf_cgroup_ancestor", 91}, {"bpf_cgrp_storage_get", 301},
      {"bpf_clone_redirect", 901}, {"bpf_csum_diff", 7}, {"bpf_csum_level", 26},
      {"bpf_current_task_under_cgroup", 131}, {"bpf_fib_lookup", 1001},
      {"bpf_find_vma", 551}, {"bpf_get_cgroup_classid", 26},
      {"bpf_get_current_comm", 5}, {"bpf_get_current_pid_tgid", 1},
      {"bpf_get_current_task", 1}, {"bpf_get_current_task_btf", 1},
      {"bpf_get_current_uid_gid", 4}, {"bpf_get_hash_recalc", 321},
      {"bpf_get_numa_node_id", 1}, {"bpf_get_prandom_u32", 3},
      {"bpf_get_route_realm", 16}, {"bpf_get_smp_processor_id", 1},
      {"bpf_get_socket_cookie", 13}, {"bpf_get_socket_uid", 11},
      {"bpf_get_stack", 541}, {"bpf_get_stackid", 551},
      {"bpf_get_task_stack", 561}, {"bpf_ktime_get_boot_ns", 9},
      {"bpf_ktime_get_ns", 9}, {"bpf_ktime_get_tai_ns", 9},
      {"bpf_l3_csum_replace", 551}, {"bpf_l4_csum_replace", 561},
      {"bpf_loop", 6}, {"bpf_lsm_audit", 528}, {"bpf_lsm_current_uid", 4},
      {"bpf_lsm_inode_id", 4}, {"bpf_lsm_open_flags", 2},
      {"bpf_lsm_ratelimit", 3}, {"bpf_lsm_read_path", 43},
      {"bpf_map_delete_elem", 391}, {"bpf_map_lookup_elem", 281},
      {"bpf_map_pop_elem", 256}, {"bpf_map_push_elem", 261},
      {"bpf_map_update_elem", 561}, {"bpf_perf_event_output", 521},
      {"bpf_perf_event_read", 301}, {"bpf_perf_event_read_value", 311},
      {"bpf_probe_read", 21}, {"bpf_probe_read_str", 23},
      {"bpf_probe_write_user", 201}, {"bpf_redirect", 701},
      {"bpf_ringbuf_discard", 29}, {"bpf_ringbuf_output", 511},
      {"bpf_ringbuf_reserve", 391}, {"bpf_ringbuf_submit", 31},
      {"bpf_sched_dequeue", 5}, {"bpf_sched_enqueue", 5},
      {"bpf_sched_nr_runnable", 3}, {"bpf_sched_peek_pid", 4},
      {"bpf_sched_pick_default", 4}, {"bpf_sched_wait_ns", 4},
      {"bpf_sched_yield", 2}, {"bpf_send_signal", 401}, {"bpf_set_hash", 2},
      {"bpf_setsockopt", 701}, {"bpf_sk_lookup_tcp", 901},
      {"bpf_sk_lookup_udp", 751}, {"bpf_sk_release", 21},
      {"bpf_sk_storage_get", 511}, {"bpf_skb_adjust_room", 671},
      {"bpf_skb_change_proto", 631}, {"bpf_skb_change_tail", 661},
      {"bpf_skb_change_type", 3}, {"bpf_skb_get_tunnel_key", 201},
      {"bpf_skb_load_bytes", 26}, {"bpf_skb_pull_data", 611},
      {"bpf_skb_set_tunnel_key", 621}, {"bpf_skb_store_bytes", 601},
      {"bpf_skb_summarize", 221}, {"bpf_skb_under_cgroup", 121},
      {"bpf_skb_vlan_pop", 641}, {"bpf_skb_vlan_push", 651},
      {"bpf_snprintf", 15}, {"bpf_spin_lock", 2}, {"bpf_spin_unlock", 2},
      {"bpf_strncmp", 9}, {"bpf_strtol", 11}, {"bpf_strtoul", 11},
      {"bpf_sys_bpf", 4801}, {"bpf_tail_call", 26}, {"bpf_task_acquire", 61},
      {"bpf_task_release", 41}, {"bpf_task_storage_delete", 341},
      {"bpf_task_storage_get", 521}, {"bpf_trace_printk", 421},
      {"bpf_user_ringbuf_drain", 521}, {"bpf_xdp_adjust_head", 19},
      {"bpf_xdp_adjust_meta", 16}, {"kfunc_find_vma", 421},
  };
  std::vector<std::string> entries;
  for (const ebpf::HelperSpec* spec : system.bpf.helpers().AllSpecs()) {
    entries.push_back(spec->entry_func);
  }
  for (const ebpf::KfuncSpec* spec : system.bpf.kfuncs().AllSpecs()) {
    entries.push_back(spec->entry_func);
  }
  EXPECT_EQ(entries.size(), kReach.size());
  for (const std::string& entry : entries) {
    auto it = kReach.find(entry);
    ASSERT_NE(it, kReach.end()) << entry;
    EXPECT_EQ(graph.ReachableCount(entry).value(), it->second) << entry;
  }
}

TEST(CallGraphGoldenTest, GeneratedNamesResolveOnlyInCanonicalForm) {
  Kernel kernel;
  CallGraph& graph = kernel.callgraph();
  EXPECT_TRUE(graph.Contains("bpf_syscall.f0"));
  EXPECT_EQ(graph.ReachableCount("bpf_syscall.f0").value(), 4800u);
  EXPECT_TRUE(graph.Contains("util.f23"));
  EXPECT_EQ(graph.ReachableCount("util.f23").value(), 1u);
  for (const char* name : {"util.f24", "util.f07", "util.f", "nosuch.f1"}) {
    EXPECT_EQ(graph.Find(name).status().code(), xbase::Code::kNotFound)
        << name;
  }

  const xbase::usize nodes = graph.node_count();
  EXPECT_EQ(graph.Intern("util.f5"), graph.Find("util.f5").value());
  EXPECT_EQ(graph.node_count(), nodes);

  // util.f5 already calls util.f6 (the spine); the duplicate is counted
  // once, and so is a new edge added twice out of node order.
  const xbase::usize edges = graph.edge_count();
  graph.AddEdgeById(graph.Intern("util.f5"), graph.Intern("util.f6"));
  EXPECT_EQ(graph.edge_count(), edges);
  graph.AddEdgeById(graph.Intern("util.f5"), graph.Intern("bpf_syscall.f4799"));
  graph.AddEdgeById(graph.Intern("util.f5"), graph.Intern("bpf_syscall.f4799"));
  EXPECT_EQ(graph.edge_count(), edges + 1);
  EXPECT_EQ(graph.ReachableCount("util.f5").value(), 19u + 1u);
}

// ---- kernel façade --------------------------------------------------------------------

TEST(KernelTest, OopsTransitionsState) {
  Kernel kernel;
  EXPECT_FALSE(kernel.crashed());
  kernel.Oops("BUG: test oops");
  EXPECT_EQ(kernel.state(), KernelState::kOopsed);
  EXPECT_TRUE(kernel.crashed());
  ASSERT_EQ(kernel.oopses().size(), 1u);
  kernel.Panic("fatal");
  EXPECT_EQ(kernel.state(), KernelState::kPanicked);
}

TEST(KernelTest, RouteConvertsKernelFaults) {
  Kernel kernel;
  const xbase::Status passthrough = kernel.Route(xbase::NotFound("x"));
  EXPECT_EQ(passthrough.code(), xbase::Code::kNotFound);
  EXPECT_FALSE(kernel.crashed());
  (void)kernel.Route(xbase::KernelFault("BUG: routed"));
  EXPECT_TRUE(kernel.crashed());
}

TEST(KernelTest, DmesgRingIsBounded) {
  Kernel kernel;
  for (int i = 0; i < 2000; ++i) {
    kernel.Printk("spam");
  }
  EXPECT_LE(kernel.dmesg().size(), 1024u);
}

TEST(KernelTest, VersionedConfig) {
  KernelConfig config;
  config.version = kV4_9;
  config.unprivileged_bpf_disabled = false;
  Kernel kernel(config);
  EXPECT_EQ(kernel.version(), kV4_9);
  EXPECT_FALSE(kernel.config().unprivileged_bpf_disabled);
}

TEST(VersionTest, OrderingAndYears) {
  EXPECT_LT(kV3_18, kV4_3);
  EXPECT_LT(kV4_20, kV5_2);
  EXPECT_LT(kV5_18, kV6_1);
  EXPECT_EQ(ReleaseYear(kV3_18), 2014);
  EXPECT_EQ(ReleaseYear(kV5_10), 2020);
  EXPECT_EQ(ReleaseYear(kV6_1), 2022);
  EXPECT_EQ(kV5_18.ToString(), "v5.18");
}

}  // namespace
}  // namespace simkern
