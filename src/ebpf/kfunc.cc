#include "src/ebpf/kfunc.h"

#include "src/ebpf/runtime.h"
#include "src/simkern/subsys.h"
#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace ebpf {

xbase::Status KfuncRegistry::Register(KfuncSpec spec, KfuncFn fn) {
  if (kfuncs_.contains(spec.btf_id)) {
    return xbase::AlreadyExists(
        xbase::StrFormat("kfunc btf_id %u already registered", spec.btf_id));
  }
  const u32 id = spec.btf_id;
  kfuncs_.emplace(id, Entry{std::move(spec), std::move(fn)});
  return xbase::Status::Ok();
}

xbase::Result<const KfuncSpec*> KfuncRegistry::FindSpec(u32 btf_id) const {
  auto it = kfuncs_.find(btf_id);
  if (it == kfuncs_.end()) {
    return xbase::NotFound(
        xbase::StrFormat("unknown kfunc btf_id %u", btf_id));
  }
  return &it->second.spec;
}

xbase::Result<const KfuncFn*> KfuncRegistry::FindFn(u32 btf_id) const {
  auto it = kfuncs_.find(btf_id);
  if (it == kfuncs_.end()) {
    return xbase::NotFound(
        xbase::StrFormat("unknown kfunc btf_id %u", btf_id));
  }
  return &it->second.fn;
}

std::vector<const KfuncSpec*> KfuncRegistry::AllSpecs() const {
  std::vector<const KfuncSpec*> specs;
  for (const auto& [_, entry] : kfuncs_) {
    specs.push_back(&entry.spec);
  }
  return specs;
}

xbase::usize KfuncRegistry::CountAtVersion(
    simkern::KernelVersion version) const {
  xbase::usize count = 0;
  for (const auto& [_, entry] : kfuncs_) {
    if (entry.spec.introduced <= version) {
      ++count;
    }
  }
  return count;
}

namespace {

void LinkKfunc(simkern::Kernel& kernel, const std::string& entry,
               const char* subsys, xbase::usize reach) {
  simkern::CallGraph& graph = kernel.callgraph();
  const simkern::FuncId caller = graph.Intern(entry);
  if (const auto callee = simkern::SubsystemEntry(graph, subsys, reach)) {
    graph.AddEdgeById(caller, *callee);
  }
}

}  // namespace

xbase::Status RegisterDefaultKfuncs(KfuncRegistry& registry,
                                    simkern::Kernel& kernel) {
  using simkern::Addr;

  {
    KfuncSpec spec;
    spec.btf_id = kKfuncTaskAcquire;
    spec.name = "bpf_task_acquire";
    spec.introduced = {5, 13};
    spec.args = {ArgType::kAnything, ArgType::kNone, ArgType::kNone,
                 ArgType::kNone, ArgType::kNone};
    spec.acquires_ref = true;
    spec.entry_func = spec.name;
    LinkKfunc(kernel, spec.name, "task", 60);
    XB_RETURN_IF_ERROR(registry.Register(
        spec, [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
          auto task = ctx.kernel.tasks().FindByAddr(a[0]);
          if (!task.ok()) {
            // Internal callers never pass junk; a hostile BPF caller makes
            // this an oops, not an errno.
            return ctx.kernel.Route(
                xbase::KernelFault("task_acquire on non-task address"));
          }
          XB_RETURN_IF_ERROR(ctx.kernel.Route(
              ctx.kernel.objects().Acquire(task.value()->object_id)));
          return a[0];
        }));
  }

  {
    KfuncSpec spec;
    spec.btf_id = kKfuncTaskRelease;
    spec.name = "bpf_task_release";
    spec.introduced = {5, 13};
    spec.args = {ArgType::kAnything, ArgType::kNone, ArgType::kNone,
                 ArgType::kNone, ArgType::kNone};
    spec.releases_ref = true;
    spec.entry_func = spec.name;
    LinkKfunc(kernel, spec.name, "task", 40);
    XB_RETURN_IF_ERROR(registry.Register(
        spec, [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
          auto task = ctx.kernel.tasks().FindByAddr(a[0]);
          if (!task.ok()) {
            return ctx.kernel.Route(
                xbase::KernelFault("task_release on non-task address"));
          }
          XB_RETURN_IF_ERROR(ctx.kernel.Route(
              ctx.kernel.objects().Release(task.value()->object_id)));
          return 0;
        }));
  }

  {
    KfuncSpec spec;
    spec.btf_id = kKfuncSkbSummarize;
    spec.name = "bpf_skb_summarize";
    spec.introduced = {5, 15};
    spec.args = {ArgType::kCtx, ArgType::kNone, ArgType::kNone,
                 ArgType::kNone, ArgType::kNone};
    spec.entry_func = spec.name;
    spec.cost_ns = 80;
    LinkKfunc(kernel, spec.name, "net_core", 220);
    XB_RETURN_IF_ERROR(registry.Register(
        spec, [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
          auto len = ctx.kernel.mem().ReadU32(
              a[0] + simkern::SkBuffLayout::kLen);
          auto data = ctx.kernel.mem().ReadU64(
              a[0] + simkern::SkBuffLayout::kDataPtr);
          if (!len.ok() || !data.ok()) {
            return NegErrno(kEInval);
          }
          std::vector<u8> head(std::min<u32>(len.value(), 32));
          if (!head.empty() &&
              !ctx.kernel.mem().Read(data.value(), head).ok()) {
            return NegErrno(kEFault);
          }
          return xbase::Fnv1a(head);
        }));
  }

  {
    // The "not written with eBPF in mind" specimen: its contract is "pass
    // a valid task_struct you already hold" — internal callers always do.
    // There is no NULL check, no liveness check, no sanitization; the
    // verifier's shallow kfunc spec cannot require any of that.
    KfuncSpec spec;
    spec.btf_id = kKfuncVmaLookup;
    spec.name = "find_vma";
    spec.introduced = {5, 17};
    spec.args = {ArgType::kAnything, ArgType::kAnything, ArgType::kNone,
                 ArgType::kNone, ArgType::kNone};
    spec.entry_func = "kfunc_find_vma";
    spec.cost_ns = 200;
    LinkKfunc(kernel, spec.entry_func, "mm", 420);
    XB_RETURN_IF_ERROR(registry.Register(
        spec, [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
          // Walks task->stack_ptr without any validation of a[0].
          xbase::u8 buf[8];
          if (auto fault = ctx.kernel.mem().ReadChecked(
                  a[0] + simkern::TaskLayout::kStackPtr, buf, 0)) {
            return ctx.kernel.Route(fault->ToStatus());  // oops
          }
          const Addr stack = xbase::LoadLe64(buf);
          const Addr addr = a[1];
          if (addr >= stack && addr < stack + 8192) {
            return stack;  // "vma" base
          }
          return 0;
        }));
  }

  {
    KfuncSpec spec;
    spec.btf_id = kKfuncCgroupAncestor;
    spec.name = "bpf_cgroup_ancestor";
    spec.introduced = {6, 1};
    spec.args = {ArgType::kAnything, ArgType::kAnything, ArgType::kNone,
                 ArgType::kNone, ArgType::kNone};
    spec.entry_func = spec.name;
    LinkKfunc(kernel, spec.name, "cgroup", 90);
    XB_RETURN_IF_ERROR(registry.Register(
        spec, [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
          return 1;  // root cgroup
        }));
  }

  return xbase::Status::Ok();
}

}  // namespace ebpf
