// Syscall tracer: the observability scenario ([21] "tracing and
// observability" in the paper's intro). A safex extension attached to a
// simulated syscall hook keeps per-task state in a task-storage map,
// pushes structured events into a ring buffer, and parses a text policy
// with the crate's ParseInt (the retired bpf_strtol). Userspace (this
// main) drains the ring buffer — the full producer/consumer loop of a real
// tracing tool.
//
// Run: ./build/examples/syscall_tracer
#include <cstdio>

#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/xbase/bytes.h"

namespace {

struct TraceEvent {
  xbase::u32 pid;
  xbase::u32 syscall_nr;
  xbase::u64 count_for_task;
};

class SyscallTracer : public safex::Extension {
 public:
  SyscallTracer(int storage_fd, int ringbuf_fd, xbase::u32 syscall_nr)
      : storage_fd_(storage_fd), ringbuf_fd_(ringbuf_fd),
        syscall_nr_(syscall_nr) {}

  xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
    // Policy knob parsed from "configuration" text — language feature, not
    // a helper (§3.2).
    auto threshold = ctx.ParseInt("2");
    XB_RETURN_IF_ERROR(threshold.status());

    auto task = ctx.CurrentTask();
    XB_RETURN_IF_ERROR(task.status());

    // Per-task counter in task storage; TaskRef cannot be NULL.
    auto storage = ctx.TaskStorage(storage_fd_, task.value(),
                                   /*create=*/true);
    XB_RETURN_IF_ERROR(storage.status());
    auto count = storage.value().ReadU64(0);
    XB_RETURN_IF_ERROR(count.status());
    const xbase::u64 new_count = count.value() + 1;
    XB_RETURN_IF_ERROR(storage.value().WriteU64(0, new_count));

    // Emit an event once the task crosses the threshold.
    if (new_count >= static_cast<xbase::u64>(threshold.value())) {
      xbase::u8 event[16];
      xbase::StoreLe32(event, task.value().pid());
      xbase::StoreLe32(event + 4, syscall_nr_);
      xbase::StoreLe64(event + 8, new_count);
      XB_RETURN_IF_ERROR(ctx.RingbufOutput(ringbuf_fd_, event));
    }
    return new_count;
  }

 private:
  int storage_fd_;
  int ringbuf_fd_;
  xbase::u32 syscall_nr_;
};

}  // namespace

int main() {
  safex::System sys;
  simkern::Kernel& kernel = sys.kernel;
  ebpf::Bpf& bpf = sys.bpf;

  ebpf::MapSpec storage_spec;
  storage_spec.type = ebpf::MapType::kTaskStorage;
  storage_spec.key_size = 4;
  storage_spec.value_size = 16;
  storage_spec.max_entries = 64;
  storage_spec.name = "task-counters";
  const int storage_fd = bpf.maps().Create(storage_spec).value();

  ebpf::MapSpec ring_spec;
  ring_spec.type = ebpf::MapType::kRingBuf;
  ring_spec.key_size = 0;
  ring_spec.value_size = 0;
  ring_spec.max_entries = 4096;
  ring_spec.name = "trace-events";
  const int ring_fd = bpf.maps().Create(ring_spec).value();

  safex::Toolchain toolchain(safex::System::VendorKey());
  safex::ExtensionManifest manifest;
  manifest.name = "syscall-tracer";
  manifest.version = "0.9";
  manifest.caps = {safex::Capability::kTaskInspect,
                   safex::Capability::kMapAccess,
                   safex::Capability::kRingBuf};
  auto artifact =
      toolchain
          .Build(manifest,
                 [storage_fd, ring_fd]() {
                   return std::make_unique<SyscallTracer>(storage_fd,
                                                          ring_fd, 1 /*write*/);
                 },
                 crypto::Sha256::HashString("syscall-tracer-0.9"))
          .value();
  safex::ExtLoader& loader = *sys.ext_loader;
  const xbase::u32 ext_id = loader.Load(artifact).value();

  // Simulate syscalls from two tasks.
  for (const xbase::u32 pid : {1234u, 4321u, 1234u, 1234u, 4321u, 4321u}) {
    (void)kernel.tasks().SetCurrent(kernel.current_cpu(), pid);
    auto outcome = loader.Invoke(ext_id).value();
    std::printf("hook fired for pid %u: per-task count now %llu%s\n", pid,
                static_cast<unsigned long long>(outcome.ret),
                outcome.panicked ? "  (PANICKED?)" : "");
  }

  // Userspace drains the ring buffer.
  auto map = bpf.maps().Find(ring_fd);
  auto* ringbuf = dynamic_cast<ebpf::RingBufMap*>(map.value());
  std::printf("\nevents above threshold:\n");
  while (true) {
    auto record = ringbuf->Consume(kernel);
    if (!record.ok()) {
      break;
    }
    TraceEvent event;
    event.pid = xbase::LoadLe32(record.value().data());
    event.syscall_nr = xbase::LoadLe32(record.value().data() + 4);
    event.count_for_task = xbase::LoadLe64(record.value().data() + 8);
    std::printf("  pid=%u syscall=%u count=%llu\n", event.pid,
                event.syscall_nr,
                static_cast<unsigned long long>(event.count_for_task));
  }
  return 0;
}
