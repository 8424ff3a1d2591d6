#include "src/simkern/kernel.h"

#include "src/xbase/log.h"
#include "src/xbase/strfmt.h"

namespace simkern {

namespace {
constexpr xbase::usize kDmesgCapacity = 1024;
// Seeds the simulated subsystem call graph every kernel boots with.
constexpr xbase::u64 kSubsystemSeed = 0x5eed;
}  // namespace

Kernel::Kernel(const KernelConfig& config) : config_(config) {
  if (config_.num_cpus < 1) {
    config_.num_cpus = 1;
  } else if (config_.num_cpus > kMaxCpus) {
    config_.num_cpus = kMaxCpus;
  }
  clock_.Configure(this, config_.num_cpus);
  rcu_.Configure(this, config_.num_cpus);
  locks_.Configure(this, config_.num_cpus, &clock_);
  objects_.Configure(this, config_.num_cpus);
  scopes_ = std::vector<CpuScope>(config_.num_cpus);
  runqueues_.reserve(config_.num_cpus);
  for (xbase::u32 cpu = 0; cpu < config_.num_cpus; ++cpu) {
    runqueues_.push_back(std::make_unique<RunQueue>());
  }
  BuildSubsystems(callgraph_, DefaultSubsystems(), kSubsystemSeed);
  Printk(xbase::StrFormat(
      "Linux-sim %s booting (unprivileged_bpf_disabled=%d nr_cpus=%u)",
      config_.version.ToString().c_str(),
      config_.unprivileged_bpf_disabled ? 1 : 0, config_.num_cpus));
}

Kernel::~Kernel() { StopCpus(); }

void Kernel::StartCpus() {
  if (pool_ != nullptr && pool_->running()) {
    return;
  }
  // Arm concurrency guards *before* any worker thread exists; the store is
  // sequenced before thread creation, so workers always observe it.
  mem_.EnableConcurrentAccess();
  smp_active_.store(true, std::memory_order_release);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<CpuPool>(this, config_.num_cpus);
  }
  pool_->Start();
  Printk(xbase::StrFormat("smp: bringing up %u CPUs", config_.num_cpus));
}

void Kernel::StopCpus() {
  if (pool_ != nullptr) {
    pool_->Stop();
  }
}

void Kernel::Oops(const std::string& message) {
  CpuScope& scope = scopes_[current_cpu()];
  OopsRecord record{clock_.now_ns(), message, scope.label, false};
  Printk("------------[ cut here ]------------");
  Printk(message);
  if (scope.open) {
    Printk(xbase::StrFormat("CPU: %u PID: ext Comm: %s", current_cpu(),
                            scope.label.c_str()));
  }
  Printk("---[ end trace ]---");
  KernelState running = KernelState::kRunning;
  if (oops_recovery() && scope.open &&
      state() == KernelState::kRunning) {
    // Containment path: the incident is on an attributed extension's CPU
    // time; record it, charge it to the scope, keep the kernel running.
    record.recovered = true;
    ++scope.oopses;
    Printk("oops contained: attributed to " + scope.label +
           ", kernel keeps running");
  } else {
    state_.compare_exchange_strong(running, KernelState::kOopsed,
                                   std::memory_order_acq_rel);
  }
  std::lock_guard<std::mutex> lock(oops_mu_);
  oopses_.push_back(std::move(record));
}

void Kernel::BeginExtensionScope(const std::string& label) {
  CpuScope& scope = scopes_[current_cpu()];
  scope.open = true;
  scope.label = label;  // copy-assign: reuses the label's capacity
  scope.oopses = 0;
}

xbase::u32 Kernel::EndExtensionScope() {
  CpuScope& scope = scopes_[current_cpu()];
  const xbase::u32 raised = scope.oopses;
  scope.open = false;
  scope.label.clear();
  scope.oopses = 0;
  return raised;
}

void Kernel::Panic(const std::string& message) {
  Printk("Kernel panic - not syncing: " + message);
  state_.store(KernelState::kPanicked, std::memory_order_release);
}

xbase::Status Kernel::Route(xbase::Status status) {
  if (status.code() == xbase::Code::kKernelFault) {
    Oops(status.message());
  }
  return status;
}

void Kernel::Printk(const std::string& line) {
  std::lock_guard<std::mutex> lock(dmesg_mu_);
  dmesg_.push_back(xbase::StrFormat("[%8.6f] %s",
                                    static_cast<double>(clock_.now_ns()) / 1e9,
                                    line.c_str()));
  if (dmesg_.size() > kDmesgCapacity) {
    dmesg_.pop_front();
  }
  XB_DEBUG << dmesg_.back();
}

xbase::Status Kernel::BootstrapWorkload() {
  // A few tasks; pid 1234 is "current" for tracing helpers.
  XB_RETURN_IF_ERROR(tasks_.Create(mem_, objects_, 1, 1, "init").status());
  XB_RETURN_IF_ERROR(
      tasks_.Create(mem_, objects_, 1234, 1200, "memcached").status());
  XB_RETURN_IF_ERROR(
      tasks_.Create(mem_, objects_, 4321, 4321, "nginx").status());
  for (xbase::u32 cpu = 0; cpu < num_cpus(); ++cpu) {
    XB_RETURN_IF_ERROR(tasks_.SetCurrent(cpu, 1234));
  }

  // Established TCP flows for the sk_lookup helpers.
  XB_RETURN_IF_ERROR(net_.CreateSock(mem_, objects_,
                                     SockTuple{0x0a000001, 0x0a000002, 8080,
                                               40000},
                                     6)
                         .status());
  XB_RETURN_IF_ERROR(net_.CreateSock(mem_, objects_,
                                     SockTuple{0x0a000001, 0x0a000003, 443,
                                               40001},
                                     6)
                         .status());
  return xbase::Status::Ok();
}

xbase::Status Kernel::RemoveTask(xbase::u32 pid) {
  for (auto& runqueue : runqueues_) {
    runqueue->Drop(pid);
  }
  XB_RETURN_IF_ERROR(tasks_.Remove(mem_, objects_, pid));
  Printk(xbase::StrFormat("task %u exited", pid));
  return xbase::Status::Ok();
}

}  // namespace simkern
