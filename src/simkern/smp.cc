#include "src/simkern/smp.h"

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
  for (const std::unique_ptr<CpuQueue>& queue : queues_) {
    std::lock_guard<std::mutex> lock(queue->mu);
    queue->cv.notify_one();
  }
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  running_.store(false, std::memory_order_release);
}

void CpuPool::Submit(xbase::u32 cpu, std::function<void()> fn) {
  CpuQueue& queue = *queues_[cpu < num_cpus_ ? cpu : 0];
  pending_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(queue.mu);
    queue.tasks.push_back(std::move(fn));
  }
  // The worker tests its queue under the mutex before it sleeps, so a
  // notify after the push cannot be lost.
  queue.cv.notify_one();
}

void CpuPool::FinishTask() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void CpuPool::WorkerMain(xbase::u32 cpu) {
  ThisThreadCpuBinding() = CpuBinding{owner_, cpu};
  CpuQueue& queue = *queues_[cpu];
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue.mu);
      queue.cv.wait(lock, [this, &queue] {
        return !queue.tasks.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (queue.tasks.empty()) {
        return;
      }
      task = std::move(queue.tasks.front());
      queue.tasks.pop_front();
    }
    task();
    queue.executed.fetch_add(1, std::memory_order_relaxed);
    FinishTask();
  }
}

void CpuPool::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace simkern
