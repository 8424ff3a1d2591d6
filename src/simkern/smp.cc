#include "src/simkern/smp.h"

#include <chrono>

namespace simkern {

CpuPool::CpuPool(const void* owner, xbase::u32 num_cpus)
    : owner_(owner),
      num_cpus_(num_cpus < 1 ? 1
                             : (num_cpus > kMaxCpus ? kMaxCpus : num_cpus)) {
  queues_.reserve(num_cpus_);
  for (xbase::u32 cpu = 0; cpu < num_cpus_; ++cpu) {
    queues_.push_back(std::make_unique<CpuQueue>());
  }
}

CpuPool::~CpuPool() { Stop(); }

void CpuPool::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  workers_.reserve(num_cpus_);
  for (xbase::u32 cpu = 0; cpu < num_cpus_; ++cpu) {
    workers_.emplace_back([this, cpu] { WorkerMain(cpu); });
  }
}

void CpuPool::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  Drain();
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  running_.store(false, std::memory_order_release);
}

void CpuPool::Submit(xbase::u32 cpu, std::function<void()> fn) {
  const xbase::u32 target = cpu < num_cpus_ ? cpu : 0;
  pending_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(fn));
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_one();
  }
}

bool CpuPool::TakeTask(xbase::u32 cpu, std::function<void()>& out) {
  {
    CpuQueue& own = *queues_[cpu];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  // Steal from the back of a sibling's queue (classic work stealing:
  // owner pops the front, thieves take the back).
  for (xbase::u32 i = 1; i < num_cpus_; ++i) {
    const xbase::u32 victim = (cpu + i) % num_cpus_;
    CpuQueue& queue = *queues_[victim];
    std::lock_guard<std::mutex> lock(queue.mu);
    if (!queue.tasks.empty()) {
      out = std::move(queue.tasks.back());
      queue.tasks.pop_back();
      stats_[cpu].stolen.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void CpuPool::FinishTask() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void CpuPool::WorkerMain(xbase::u32 cpu) {
  ThisThreadCpuBinding() = CpuBinding{owner_, cpu};
  std::function<void()> task;
  while (true) {
    if (TakeTask(cpu, task)) {
      task();
      task = nullptr;
      stats_[cpu].executed.fetch_add(1, std::memory_order_relaxed);
      FinishTask();
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      return;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    // Timed wait: self-heals a wakeup that raced between the empty check
    // above and this wait.
    wake_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void CpuPool::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace simkern
