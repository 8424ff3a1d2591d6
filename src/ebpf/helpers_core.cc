// Core helper suite: maps, time, tasks, tracing, strings, locks, ring
// buffers, bpf_loop and bpf_sys_bpf. Every helper registers its verifier
// argument specification, its introduction version (Figure 4) and its call
// graph footprint (Figure 3), then an implementation that does real work
// against the simulated kernel.
#include <cstring>

#include "src/ebpf/helpers_internal.h"
#include "src/simkern/subsys.h"
#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace ebpf {

using simkern::Addr;
using simkern::KernelVersion;
using xbase::usize;

void LinkHelperCallGraph(
    simkern::Kernel& kernel, const std::string& entry,
    std::initializer_list<std::pair<const char*, usize>> links) {
  simkern::CallGraph& graph = kernel.callgraph();
  const simkern::FuncId caller = graph.Intern(entry);
  for (const auto& [subsys, reach] : links) {
    if (reach == 0) {
      continue;
    }
    if (const auto callee = simkern::SubsystemEntry(graph, subsys, reach)) {
      graph.AddEdgeById(caller, *callee);
    }
  }
}

xbase::Result<std::vector<u8>> ReadMem(simkern::Kernel& kernel, Addr addr,
                                       usize size) {
  std::vector<u8> out(size);
  if (auto fault = kernel.mem().ReadChecked(addr, out, 0)) {
    return kernel.Route(fault->ToStatus());
  }
  return out;
}

xbase::Status WriteMem(simkern::Kernel& kernel, Addr addr,
                       std::span<const u8> data) {
  if (auto fault = kernel.mem().WriteChecked(addr, data, 0)) {
    return kernel.Route(fault->ToStatus());
  }
  return xbase::Status::Ok();
}

xbase::Result<Map*> ResolveMapArg(HelperCtx& ctx, u64 arg) {
  XB_ASSIGN_OR_RETURN(const int fd, FdFromMapHandle(arg));
  return ctx.maps.Find(fd);
}

namespace {

// Registration shorthand.
struct Def {
  HelperWiring& wiring;

  xbase::Status operator()(
      HelperSpec spec,
      std::initializer_list<std::pair<const char*, usize>> links,
      HelperFn fn) {
    if (spec.entry_func.empty()) {
      spec.entry_func = spec.name;
    }
    LinkHelperCallGraph(wiring.kernel, spec.entry_func, links);
    return wiring.registry.Register(std::move(spec), std::move(fn));
  }
};

HelperSpec MakeSpec(u32 id, const char* name, KernelVersion version,
                    std::initializer_list<ArgType> args, RetType ret,
                    u64 cost_ns = simkern::kCostHelperCallNs) {
  HelperSpec spec;
  spec.id = id;
  spec.name = name;
  spec.introduced = version;
  int i = 0;
  for (ArgType arg : args) {
    spec.args[i++] = arg;
  }
  spec.ret = ret;
  spec.cost_ns = cost_ns;
  return spec;
}

constexpr ArgType kA = ArgType::kAnything;
constexpr ArgType kMapPtr = ArgType::kConstMapPtr;
constexpr ArgType kKey = ArgType::kMapKey;
constexpr ArgType kVal = ArgType::kMapValue;
constexpr ArgType kMem = ArgType::kPtrToMem;
constexpr ArgType kUMem = ArgType::kPtrToUninitMem;
constexpr ArgType kSz = ArgType::kMemSize;
constexpr ArgType kCtxA = ArgType::kCtx;
constexpr ArgType kScalarA = ArgType::kScalar;

// Reads a map key argument (key size taken from the map).
xbase::Result<std::vector<u8>> ReadKey(HelperCtx& ctx, Map* map, u64 addr) {
  return ReadMem(ctx.kernel, addr, map->spec().key_size);
}

}  // namespace

xbase::Status RegisterCoreHelpers(HelperWiring& wiring) {
  Def def{wiring};
  std::shared_ptr<HelperState> state = wiring.state;

  // --- maps (v3.18, the original trio) ----------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperMapLookupElem, "bpf_map_lookup_elem", {3, 18},
               {kMapPtr, kKey}, RetType::kMapValueOrNull,
               simkern::kCostMapOpNs),
      {{"map_impl", 280}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
        XB_ASSIGN_OR_RETURN(const std::vector<u8> key,
                            ReadKey(ctx, map, a[1]));
        auto addr = map->LookupAddr(ctx.kernel, key);
        if (!addr.ok()) {
          return 0;  // NULL
        }
        return addr.value();
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperMapUpdateElem, "bpf_map_update_elem", {3, 18},
               {kMapPtr, kKey, kVal, kA}, RetType::kInteger,
               simkern::kCostMapOpNs),
      {{"map_impl", 300}, {"mm", 260}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
        XB_ASSIGN_OR_RETURN(const std::vector<u8> key,
                            ReadKey(ctx, map, a[1]));
        XB_ASSIGN_OR_RETURN(const std::vector<u8> value,
                            ReadMem(ctx.kernel, a[2],
                                    map->spec().value_size));
        const xbase::Status status =
            map->Update(ctx.kernel, key, value, a[3]);
        if (status.code() == xbase::Code::kResourceExhausted) {
          return NegErrno(kE2Big);
        }
        if (status.code() == xbase::Code::kAlreadyExists) {
          return NegErrno(kEExist);
        }
        if (status.code() == xbase::Code::kNotFound) {
          return NegErrno(kENoEnt);
        }
        if (!status.ok()) {
          return status;
        }
        return 0;
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperMapDeleteElem, "bpf_map_delete_elem", {3, 18},
               {kMapPtr, kKey}, RetType::kInteger, simkern::kCostMapOpNs),
      {{"map_impl", 290}, {"mm", 100}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
        XB_ASSIGN_OR_RETURN(const std::vector<u8> key,
                            ReadKey(ctx, map, a[1]));
        const xbase::Status status = map->Delete(ctx.kernel, key);
        if (status.code() == xbase::Code::kNotFound) {
          return NegErrno(kENoEnt);
        }
        if (status.code() == xbase::Code::kInvalidArgument) {
          return NegErrno(kEInval);
        }
        if (!status.ok()) {
          return status;
        }
        return 0;
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperMapPushElem, "bpf_map_push_elem", {4, 20},
               {kMapPtr, kVal, kA}, RetType::kInteger,
               simkern::kCostMapOpNs),
      {{"map_impl", 260}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        // Modelled on the queue/stack maps: push == update with a
        // synthesized key (entry count).
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
        XB_ASSIGN_OR_RETURN(const std::vector<u8> value,
                            ReadMem(ctx.kernel, a[1],
                                    map->spec().value_size));
        std::vector<u8> key(map->spec().key_size, 0);
        if (key.size() >= 4) {
          xbase::StoreLe32(key.data(), map->entry_count());
        }
        const xbase::Status status =
            map->Update(ctx.kernel, key, value, kBpfAny);
        return status.ok() ? u64{0} : NegErrno(kE2Big);
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperMapPopElem, "bpf_map_pop_elem", {4, 20},
               {kMapPtr, kUMem, kSz}, RetType::kInteger,
               simkern::kCostMapOpNs),
      {{"map_impl", 255}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
        std::vector<u8> key(map->spec().key_size, 0);
        if (key.size() >= 4 && map->entry_count() > 0) {
          xbase::StoreLe32(key.data(), map->entry_count() - 1);
        }
        auto addr = map->LookupAddr(ctx.kernel, key);
        if (!addr.ok()) {
          return NegErrno(kENoEnt);
        }
        XB_ASSIGN_OR_RETURN(
            const std::vector<u8> value,
            ReadMem(ctx.kernel, addr.value(), map->spec().value_size));
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[1], value));
        (void)map->Delete(ctx.kernel, key);
        return 0;
      }));

  // --- probing (v4.1) -----------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperProbeRead, "bpf_probe_read", {4, 1},
               {kUMem, kSz, kA}, RetType::kInteger),
      {{"mm", 20}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        // The fault-tolerant reader: a bad source address returns -EFAULT
        // instead of oopsing (it is the one helper that *may* take any
        // address).
        std::vector<u8> buf(a[1]);
        if (buf.size() > 4096) {
          return NegErrno(kEInval);
        }
        if (!ctx.kernel.mem().Read(a[2], buf).ok()) {
          return NegErrno(kEFault);
        }
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[0], buf));
        return 0;
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperProbeReadStr, "bpf_probe_read_str", {4, 11},
               {kUMem, kSz, kA}, RetType::kInteger),
      {{"mm", 22}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        const usize cap = std::min<u64>(a[1], 4096);
        std::vector<u8> out;
        for (usize i = 0; i < cap; ++i) {
          u8 byte;
          if (!ctx.kernel.mem().Read(a[2] + i, {&byte, 1}).ok()) {
            return NegErrno(kEFault);
          }
          out.push_back(byte);
          if (byte == 0) {
            break;
          }
        }
        if (!out.empty() && out.back() != 0) {
          out.back() = 0;
        }
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[0], out));
        return out.size();
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperProbeWriteUser, "bpf_probe_write_user", {4, 8},
               {kA, kMem, kSz}, RetType::kInteger),
      {{"mm", 200}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(const std::vector<u8> data,
                            ReadMem(ctx.kernel, a[1], a[2]));
        if (!ctx.kernel.mem().Write(a[0], data).ok()) {
          return NegErrno(kEFault);
        }
        return 0;
      }));

  // --- time ------------------------------------------------------------------
  const auto ktime = [](HelperCtx& ctx,
                        const HelperArgs&) -> xbase::Result<u64> {
    return ctx.kernel.clock().now_ns();
  };
  XB_RETURN_IF_ERROR(def(MakeSpec(kHelperKtimeGetNs, "bpf_ktime_get_ns",
                                  {4, 1}, {}, RetType::kInteger),
                         {{"timekeeping", 8}}, ktime));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperKtimeGetBootNs, "bpf_ktime_get_boot_ns", {5, 8}, {},
               RetType::kInteger),
      {{"timekeeping", 8}}, ktime));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperKtimeGetTaiNs, "bpf_ktime_get_tai_ns", {6, 1}, {},
               RetType::kInteger),
      {{"timekeeping", 8}}, ktime));

  // --- cpu / randomness --------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetPrandomU32, "bpf_get_prandom_u32", {4, 1}, {},
               RetType::kInteger),
      {{"util", 2}},
      [state](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        std::lock_guard<std::mutex> lock(state->mu);
        return state->rng.NextU32();
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetSmpProcessorId, "bpf_get_smp_processor_id", {4, 1},
               {}, RetType::kInteger),
      {},
      [](HelperCtx& ctx, const HelperArgs&) -> xbase::Result<u64> {
        return ctx.kernel.current_cpu();
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetNumaNodeId, "bpf_get_numa_node_id", {4, 10}, {},
               RetType::kInteger),
      {}, [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 0;
      }));

  // --- current task -----------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetCurrentPidTgid, "bpf_get_current_pid_tgid", {4, 2},
               {}, RetType::kInteger),
      {},
      [](HelperCtx& ctx, const HelperArgs&) -> xbase::Result<u64> {
        const simkern::Task* task =
            ctx.kernel.tasks().current(ctx.kernel.current_cpu());
        if (task == nullptr) {
          return NegErrno(kEInval);
        }
        return (static_cast<u64>(task->tgid) << 32) | task->pid;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetCurrentUidGid, "bpf_get_current_uid_gid", {4, 2},
               {}, RetType::kInteger),
      {{"util", 3}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 0;  // root in the simulation
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetCurrentComm, "bpf_get_current_comm", {4, 2},
               {kUMem, kSz}, RetType::kInteger),
      {{"util", 4}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        const simkern::Task* task =
            ctx.kernel.tasks().current(ctx.kernel.current_cpu());
        if (task == nullptr) {
          return NegErrno(kEInval);
        }
        std::vector<u8> buf(std::min<u64>(a[1], 16), 0);
        std::memcpy(buf.data(), task->comm.c_str(),
                    std::min(buf.size() - 1, task->comm.size()));
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[0], buf));
        return 0;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetCurrentTask, "bpf_get_current_task", {4, 8}, {},
               RetType::kInteger),
      {},
      [](HelperCtx& ctx, const HelperArgs&) -> xbase::Result<u64> {
        // Returns the raw task_struct address as a *scalar* — a kernel
        // pointer handed straight to the program. This is faithful to the
        // real helper and is itself a controlled info-leak the verifier
        // cannot do anything about.
        const simkern::Task* task =
            ctx.kernel.tasks().current(ctx.kernel.current_cpu());
        return task == nullptr ? 0 : task->struct_addr;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetCurrentTaskBtf, "bpf_get_current_task_btf", {5, 11},
               {}, RetType::kTaskOrNull),
      {},
      [](HelperCtx& ctx, const HelperArgs&) -> xbase::Result<u64> {
        const simkern::Task* task =
            ctx.kernel.tasks().current(ctx.kernel.current_cpu());
        return task == nullptr ? 0 : task->struct_addr;
      }));

  // --- tracing ------------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperTracePrintk, "bpf_trace_printk", {4, 1}, {kMem, kSz},
               RetType::kInteger, 100),
      {{"trace", 420}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(const std::vector<u8> fmt,
                            ReadMem(ctx.kernel, a[0],
                                    std::min<u64>(a[1], 128)));
        std::string text(fmt.begin(), fmt.end());
        if (const auto nul = text.find('\0'); nul != std::string::npos) {
          text.resize(nul);
        }
        ctx.kernel.Printk("bpf_trace_printk: " + text);
        return text.size();
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperPerfEventRead, "bpf_perf_event_read", {4, 3},
               {kMapPtr, kA}, RetType::kInteger),
      {{"trace", 300}},
      [state](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        std::lock_guard<std::mutex> lock(state->mu);
        return state->rng.NextBelow(1 << 20);  // synthetic counter value
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperPerfEventReadValue, "bpf_perf_event_read_value",
               {4, 15}, {kMapPtr, kA, kUMem, kSz}, RetType::kInteger),
      {{"trace", 310}},
      [state](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        std::vector<u8> buf(std::min<u64>(a[3], 24), 0);
        if (buf.size() >= 8) {
          std::lock_guard<std::mutex> lock(state->mu);
          xbase::StoreLe64(buf.data(), state->rng.NextBelow(1 << 20));
        }
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[2], buf));
        return 0;
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperPerfEventOutput, "bpf_perf_event_output", {4, 4},
               {kCtxA, kMapPtr, kA, kMem, kSz}, RetType::kInteger, 150),
      {{"trace", 520}},
      [state](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(const std::vector<u8> data,
                            ReadMem(ctx.kernel, a[3],
                                    std::min<u64>(a[4], 512)));
        std::lock_guard<std::mutex> lock(state->mu);
        state->perf_events.push_back(data);
        return 0;
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetStackid, "bpf_get_stackid", {4, 6},
               {kCtxA, kMapPtr, kA}, RetType::kInteger, 200),
      {{"trace", 510}, {"mm", 40}},
      [state](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        std::lock_guard<std::mutex> lock(state->mu);
        return state->rng.NextBelow(1024);  // synthetic stack bucket
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetStack, "bpf_get_stack", {4, 18},
               {kCtxA, kUMem, kSz, kA}, RetType::kInteger, 200),
      {{"trace", 500}, {"mm", 40}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        const simkern::Task* task =
            ctx.kernel.tasks().current(ctx.kernel.current_cpu());
        if (task == nullptr) {
          return NegErrno(kEInval);
        }
        const usize bytes = std::min<u64>(a[2], 64) & ~usize{7};
        std::vector<u8> frames(bytes, 0);
        for (usize off = 0; off + 8 <= bytes; off += 8) {
          xbase::StoreLe64(frames.data() + off, task->stack_addr + off);
        }
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[1], frames));
        return bytes;
      }));

  // bpf_get_task_stack: the Table 1 refcount-leak site (commit 06ab134c).
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetTaskStack, "bpf_get_task_stack", {5, 9},
               {ArgType::kTask, kUMem, kSz, kA}, RetType::kInteger, 250),
      {{"task", 500}, {"mm", 60}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        auto task_result = ctx.kernel.tasks().FindByAddr(a[0]);
        if (!task_result.ok()) {
          return NegErrno(kEInval);
        }
        const simkern::Task* task = task_result.value();
        // The helper pins the task while it walks the stack.
        XB_RETURN_IF_ERROR(
            ctx.kernel.Route(ctx.kernel.objects().Acquire(task->object_id)));
        const usize bytes = std::min<u64>(a[2], 64) & ~usize{7};
        if (bytes < 8) {
          // Error path. The injected defect models the real bug: the early
          // return forgets to drop the reference it took above.
          if (!ctx.faults.IsActive(kFaultHelperTaskStackLeak)) {
            XB_RETURN_IF_ERROR(ctx.kernel.Route(
                ctx.kernel.objects().Release(task->object_id)));
          }
          return NegErrno(kEFault);
        }
        std::vector<u8> frames(bytes, 0);
        for (usize off = 0; off + 8 <= bytes; off += 8) {
          xbase::StoreLe64(frames.data() + off, task->stack_addr + off);
        }
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[1], frames));
        XB_RETURN_IF_ERROR(
            ctx.kernel.Route(ctx.kernel.objects().Release(task->object_id)));
        return bytes;
      }));

  // --- cgroups ----------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetCgroupClassid, "bpf_get_cgroup_classid", {4, 3},
               {kCtxA}, RetType::kInteger),
      {{"cgroup", 25}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 1;  // root cgroup class
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperCurrentTaskUnderCgroup, "bpf_current_task_under_cgroup",
               {4, 9}, {kMapPtr, kA}, RetType::kInteger),
      {{"cgroup", 130}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 1;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperCgrpStorageGet, "bpf_cgrp_storage_get", {6, 1},
               {kMapPtr, kA, kA, kA}, RetType::kMapValueOrNull,
               simkern::kCostMapOpNs),
      {{"cgroup", 160}, {"mm", 140}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
        std::vector<u8> key(map->spec().key_size, 0);
        auto addr = map->LookupAddr(ctx.kernel, key);
        return addr.ok() ? addr.value() : u64{0};
      }));

  // --- signals ------------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSendSignal, "bpf_send_signal", {5, 3}, {kA},
               RetType::kInteger),
      {{"task", 400}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        const simkern::Task* task =
            ctx.kernel.tasks().current(ctx.kernel.current_cpu());
        ctx.kernel.Printk(xbase::StrFormat(
            "bpf_send_signal: sig %llu to pid %u",
            static_cast<unsigned long long>(a[0]),
            task == nullptr ? 0 : task->pid));
        return 0;
      }));

  // --- spin locks (v5.1) ----------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSpinLock, "bpf_spin_lock", {5, 1},
               {ArgType::kSpinLock}, RetType::kVoid),
      {{"util", 1}},
      [state](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        // Resolve/create the id under state->mu, but drop it before
        // Acquire: a contended cross-CPU acquire blocks, and holding
        // state->mu through the wait would deadlock against the holder's
        // eventual bpf_spin_unlock (which needs state->mu too).
        simkern::LockId id;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          auto it = state->lock_ids.find(a[0]);
          if (it == state->lock_ids.end()) {
            it = state->lock_ids
                     .emplace(a[0],
                              ctx.kernel.locks().Create(xbase::StrFormat(
                                  "bpf_spin_lock@0x%llx",
                                  static_cast<unsigned long long>(a[0]))))
                     .first;
          }
          id = it->second;
        }
        XB_RETURN_IF_ERROR(
            ctx.kernel.Route(ctx.kernel.locks().Acquire(id, "bpf")));
        return 0;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSpinUnlock, "bpf_spin_unlock", {5, 1},
               {ArgType::kSpinLock}, RetType::kVoid),
      {{"util", 1}},
      [state](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        simkern::LockId id;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          auto it = state->lock_ids.find(a[0]);
          if (it == state->lock_ids.end()) {
            return ctx.kernel.Route(
                xbase::KernelFault("bpf_spin_unlock of unknown lock"));
          }
          id = it->second;
        }
        XB_RETURN_IF_ERROR(ctx.kernel.Route(ctx.kernel.locks().Release(id)));
        return 0;
      }));

  // --- strings (the §3.2 "retirable" helpers) --------------------------------------
  const auto strtol_impl = [](HelperCtx& ctx, const HelperArgs& a,
                              bool is_signed) -> xbase::Result<u64> {
    const usize len = std::min<u64>(a[1], 64);
    XB_ASSIGN_OR_RETURN(const std::vector<u8> raw,
                        ReadMem(ctx.kernel, a[0], len));
    usize pos = 0;
    while (pos < raw.size() && (raw[pos] == ' ' || raw[pos] == '\t')) {
      ++pos;
    }
    bool negative = false;
    if (is_signed && pos < raw.size() &&
        (raw[pos] == '-' || raw[pos] == '+')) {
      negative = raw[pos] == '-';
      ++pos;
    }
    const usize digits_start = pos;
    s64 value = 0;
    while (pos < raw.size() && raw[pos] >= '0' && raw[pos] <= '9') {
      value = value * 10 + (raw[pos] - '0');
      ++pos;
    }
    if (pos == digits_start) {
      return NegErrno(kEInval);
    }
    if (negative) {
      value = -value;
    }
    u8 out[8];
    xbase::StoreLe64(out, static_cast<u64>(value));
    XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[3], out));
    return pos;
  };
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperStrtol, "bpf_strtol", {5, 2}, {kMem, kSz, kA, kUMem},
               RetType::kInteger),
      {{"util", 10}},
      [strtol_impl](HelperCtx& ctx, const HelperArgs& a) {
        return strtol_impl(ctx, a, true);
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperStrtoul, "bpf_strtoul", {5, 2}, {kMem, kSz, kA, kUMem},
               RetType::kInteger),
      {{"util", 10}},
      [strtol_impl](HelperCtx& ctx, const HelperArgs& a) {
        return strtol_impl(ctx, a, false);
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperStrncmp, "bpf_strncmp", {5, 17}, {kMem, kSz, kMem},
               RetType::kInteger),
      {{"util", 8}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        const usize len = std::min<u64>(a[1], 256);
        XB_ASSIGN_OR_RETURN(const std::vector<u8> s1,
                            ReadMem(ctx.kernel, a[0], len));
        XB_ASSIGN_OR_RETURN(const std::vector<u8> s2,
                            ReadMem(ctx.kernel, a[2], len));
        for (usize i = 0; i < len; ++i) {
          if (s1[i] != s2[i]) {
            return static_cast<u64>(
                static_cast<s64>(s1[i]) - static_cast<s64>(s2[i]));
          }
          if (s1[i] == 0) {
            break;
          }
        }
        return 0;
      }));

  XB_RETURN_IF_ERROR(def(
      // The format string is ARG_PTR_TO_CONST_STR in the kernel: walked
      // byte-by-byte to its NUL rather than size-checked.
      MakeSpec(kHelperSnprintf, "bpf_snprintf", {5, 13},
               {kUMem, kSz, kA, kMem, kSz}, RetType::kInteger, 150),
      {{"util", 14}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        std::vector<u8> fmt_raw;
        for (usize i = 0; i < 128; ++i) {
          u8 byte;
          if (!ctx.kernel.mem().Read(a[2] + i, {&byte, 1}).ok()) {
            return NegErrno(kEFault);
          }
          fmt_raw.push_back(byte);
          if (byte == 0) {
            break;
          }
        }
        XB_ASSIGN_OR_RETURN(const std::vector<u8> data,
                            ReadMem(ctx.kernel, a[3],
                                    std::min<u64>(a[4], 64)));
        std::string out;
        usize arg_index = 0;
        for (usize i = 0; i < fmt_raw.size() && fmt_raw[i] != 0; ++i) {
          const char c = static_cast<char>(fmt_raw[i]);
          if (c != '%' || i + 1 >= fmt_raw.size()) {
            out.push_back(c);
            continue;
          }
          const char kind = static_cast<char>(fmt_raw[++i]);
          u64 value = 0;
          if (arg_index * 8 + 8 <= data.size()) {
            value = xbase::LoadLe64(data.data() + arg_index * 8);
          }
          switch (kind) {
            case 'd':
              out += std::to_string(static_cast<s64>(value));
              ++arg_index;
              break;
            case 'u':
              out += std::to_string(value);
              ++arg_index;
              break;
            case 'x':
              out += xbase::StrFormat(
                  "%llx", static_cast<unsigned long long>(value));
              ++arg_index;
              break;
            case '%':
              out.push_back('%');
              break;
            default:
              return NegErrno(kEInval);
          }
        }
        std::vector<u8> buf(std::min<u64>(a[1], out.size() + 1));
        std::memcpy(buf.data(), out.data(),
                    std::min(buf.empty() ? 0 : buf.size() - 1, out.size()));
        if (!buf.empty()) {
          buf.back() = 0;
        }
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[0], buf));
        return out.size() + 1;
      }));

  // --- ring buffer (v5.8) -------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperRingbufOutput, "bpf_ringbuf_output", {5, 8},
               {kMapPtr, kMem, kSz, kA}, RetType::kInteger, 120),
      {{"mm", 350}, {"map_impl", 160}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
        auto* ringbuf = dynamic_cast<RingBufMap*>(map);
        if (ringbuf == nullptr) {
          return NegErrno(kEInval);
        }
        XB_ASSIGN_OR_RETURN(const std::vector<u8> data,
                            ReadMem(ctx.kernel, a[1],
                                    std::min<u64>(a[2], 4096)));
        const xbase::Status status = ringbuf->Output(ctx.kernel, data);
        return status.ok() ? u64{0} : NegErrno(kENoSpc);
      }));

  struct RingbufRec {
    std::map<Addr, simkern::ObjectId> live;
  };
  auto ringbuf_recs = std::make_shared<RingbufRec>();

  {
    HelperSpec spec =
        MakeSpec(kHelperRingbufReserve, "bpf_ringbuf_reserve", {5, 8},
                 {kMapPtr, kSz, kA}, RetType::kMemOrNull, 100);
    spec.acquires_ref = true;
    XB_RETURN_IF_ERROR(def(
        std::move(spec), {{"mm", 280}, {"map_impl", 110}},
        [ringbuf_recs](HelperCtx& ctx,
                       const HelperArgs& a) -> xbase::Result<u64> {
          XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
          auto* ringbuf = dynamic_cast<RingBufMap*>(map);
          if (ringbuf == nullptr) {
            return NegErrno(kEInval);
          }
          auto addr = ringbuf->Reserve(ctx.kernel, static_cast<u32>(a[1]));
          if (!addr.ok()) {
            return 0;  // NULL
          }
          const simkern::ObjectId id = ctx.kernel.objects().Create(
              simkern::ObjectType::kOther, "ringbuf-record");
          ringbuf_recs->live.emplace(addr.value(), id);
          return addr.value();
        }));
  }

  const auto finish_record = [ringbuf_recs](HelperCtx& ctx, u64 addr,
                                            bool commit)
      -> xbase::Result<u64> {
    auto it = ringbuf_recs->live.find(addr);
    if (it == ringbuf_recs->live.end()) {
      return ctx.kernel.Route(
          xbase::KernelFault("ringbuf submit/discard of unknown record"));
    }
    (void)ctx.kernel.objects().Release(it->second);
    // Locate the owning ringbuf by scanning maps (few maps per kernel).
    ringbuf_recs->live.erase(it);
    (void)commit;
    return 0;
  };
  {
    HelperSpec spec = MakeSpec(kHelperRingbufSubmit, "bpf_ringbuf_submit",
                               {5, 8}, {kA, kA}, RetType::kVoid);
    spec.releases_ref_arg = 1;
    XB_RETURN_IF_ERROR(def(std::move(spec), {{"map_impl", 30}},
                           [finish_record](HelperCtx& ctx,
                                           const HelperArgs& a) {
                             return finish_record(ctx, a[0], true);
                           }));
  }
  {
    HelperSpec spec = MakeSpec(kHelperRingbufDiscard, "bpf_ringbuf_discard",
                               {5, 8}, {kA, kA}, RetType::kVoid);
    spec.releases_ref_arg = 1;
    XB_RETURN_IF_ERROR(def(std::move(spec), {{"map_impl", 28}},
                           [finish_record](HelperCtx& ctx,
                                           const HelperArgs& a) {
                             return finish_record(ctx, a[0], false);
                           }));
  }

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperUserRingbufDrain, "bpf_user_ringbuf_drain", {6, 1},
               {kMapPtr, kA, kA, kA}, RetType::kInteger, 200),
      {{"mm", 360}, {"map_impl", 160}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 0;  // no user-side producer in the simulation
      }));

  // --- task storage (v5.11): the NULL-owner bug site -----------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperTaskStorageGet, "bpf_task_storage_get", {5, 11},
               {kMapPtr, ArgType::kTask, kA, kA}, RetType::kMapValueOrNull,
               simkern::kCostMapOpNs),
      {{"task", 380}, {"mm", 140}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
        auto* storage = dynamic_cast<TaskStorageMap*>(map);
        if (storage == nullptr) {
          return NegErrno(kEInval);
        }
        // Commit 1a9c72ad4c26 added exactly this check; with the defect
        // injected the helper dereferences the NULL owner and oopses.
        if (a[1] == 0 &&
            !ctx.faults.IsActive(kFaultHelperTaskStorageNull)) {
          return 0;  // NULL
        }
        const bool create = (a[3] & 1) != 0;
        auto addr = storage->GetForTask(ctx.kernel, a[1], create);
        if (!addr.ok()) {
          if (addr.status().code() == xbase::Code::kKernelFault) {
            return ctx.kernel.Route(addr.status());
          }
          return 0;
        }
        return addr.value();
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperTaskStorageDelete, "bpf_task_storage_delete", {5, 11},
               {kMapPtr, ArgType::kTask}, RetType::kInteger,
               simkern::kCostMapOpNs),
      {{"task", 340}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
        if (a[1] == 0) {
          return NegErrno(kEInval);
        }
        u8 pid_bytes[4];
        if (auto fault = ctx.kernel.mem().ReadChecked(
                a[1] + simkern::TaskLayout::kPid, pid_bytes, 0)) {
          return ctx.kernel.Route(fault->ToStatus());
        }
        const xbase::Status status = map->Delete(ctx.kernel, pid_bytes);
        return status.ok() ? u64{0} : NegErrno(kENoEnt);
      }));

  // --- find_vma ---------------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperFindVma, "bpf_find_vma", {5, 17},
               {ArgType::kTask, kA, kA, kA, kA}, RetType::kInteger, 300),
      {{"mm", 450}, {"task", 100}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        auto task = ctx.kernel.tasks().FindByAddr(a[0]);
        if (!task.ok()) {
          return NegErrno(kEInval);
        }
        const u64 addr = a[1];
        if (addr >= task.value()->stack_addr &&
            addr < task.value()->stack_addr + task.value()->stack_size) {
          return 0;
        }
        return NegErrno(kENoEnt);
      }));

  // --- tail calls --------------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperTailCall, "bpf_tail_call", {4, 2},
               {kCtxA, kMapPtr, kA}, RetType::kVoid),
      {{"bpf_syscall", 25}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[1]));
        auto* progs = dynamic_cast<ProgArrayMap*>(map);
        if (progs == nullptr) {
          return NegErrno(kEInval);
        }
        const auto prog_id = progs->ProgIdAt(static_cast<u32>(a[2]));
        if (!prog_id.has_value()) {
          return NegErrno(kENoEnt);  // fall through, keep executing
        }
        if (ctx.hooks == nullptr) {
          return NegErrno(kEInval);
        }
        if (!ctx.hooks->RequestTailCall(*prog_id).ok()) {
          // Tail-call chain limit reached: the helper fails and execution
          // falls through, like the kernel's MAX_TAIL_CALL_CNT behaviour.
          return NegErrno(kEPerm);
        }
        return 0;
      }));

  // --- bpf_loop (v5.17): the §2.2 termination exploit's vehicle ------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperLoop, "bpf_loop", {5, 17},
               {kA, ArgType::kFunc, kA, kA}, RetType::kInteger),
      {{"bpf_syscall", 5}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        if (ctx.hooks == nullptr) {
          return NegErrno(kEInval);
        }
        const u64 nr_loops = std::min<u64>(a[0], 1ULL << 23);
        const u32 callback_pc = static_cast<u32>(a[1]);
        u64 i = 0;
        for (; i < nr_loops; ++i) {
          XB_ASSIGN_OR_RETURN(const u64 ret,
                              ctx.hooks->InvokeCallback(callback_pc, i,
                                                        a[2]));
          if (ret != 0) {
            ++i;
            break;
          }
        }
        return i;
      }));

  // --- bpf_sys_bpf (v5.14): the §2.2 safety exploit's vehicle --------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSysBpf, "bpf_sys_bpf", {5, 14}, {kA, kMem, kSz},
               RetType::kInteger, 500),
      {{"bpf_syscall", 4800}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        const u32 cmd = static_cast<u32>(a[0]);
        if (a[2] < 16) {
          return NegErrno(kEInval);
        }
        XB_ASSIGN_OR_RETURN(const std::vector<u8> attr,
                            ReadMem(ctx.kernel, a[1],
                                    std::min<u64>(a[2], 64)));
        switch (cmd) {
          case kSysBpfMapCreate: {
            MapSpec spec;
            spec.type = MapType::kArray;
            spec.key_size = 4;
            spec.value_size =
                std::max<u32>(1, xbase::LoadLe32(attr.data() + 4));
            spec.max_entries =
                std::max<u32>(1, xbase::LoadLe32(attr.data() + 8));
            spec.name = "sys_bpf-map";
            auto fd = ctx.maps.Create(spec);
            if (!fd.ok()) {
              return NegErrno(kEInval);
            }
            return static_cast<u64>(fd.value());
          }
          case kSysBpfProgLoad: {
            // The attr is a *union*; for PROG_LOAD the second qword is a
            // pointer to the instruction buffer. The verifier proved that
            // `attr` points to attr_size readable bytes — it knows nothing
            // about the pointer stored inside. Dereferencing it with a NULL
            // or garbage field is the paper's §2.2 kernel crash.
            const u64 insns_ptr =
                xbase::LoadLe64(attr.data() + kSysBpfAttrInsnsPtrOff);
            u8 first_insn[8];
            if (auto fault =
                    ctx.kernel.mem().ReadChecked(insns_ptr, first_insn, 0)) {
              return ctx.kernel.Route(fault->ToStatus());  // oops
            }
            ctx.kernel.Printk("bpf_sys_bpf: nested prog_load accepted");
            return 0;
          }
          default:
            return NegErrno(kEInval);
        }
      }));

  return xbase::Status::Ok();
}

}  // namespace ebpf
