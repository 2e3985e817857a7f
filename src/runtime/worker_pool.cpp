#include "runtime/worker_pool.hpp"

#include <atomic>
#include <cstring>

#include "support/assert.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace mimd {

// ---- Affinity shim ----

bool affinity_supported() {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

bool pin_current_thread_to_cpu(unsigned cpu, CpuAffinityMask* saved) {
#if defined(__linux__)
  static_assert(sizeof(cpu_set_t) <= sizeof(CpuAffinityMask::bytes),
                "CpuAffinityMask too small for this platform's cpu_set_t");
  const unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu == 0) return false;
  cpu_set_t prev;
  CPU_ZERO(&prev);
  if (pthread_getaffinity_np(pthread_self(), sizeof(prev), &prev) != 0) {
    return false;
  }
  // Pin within the thread's *current* allowance: under a cgroup cpuset
  // (containers, taskset) CPU (cpu % ncpu) may not be permitted, so pick
  // the (cpu mod allowed)-th allowed CPU instead of failing.
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &prev)) allowed.push_back(c);
  }
  if (allowed.empty()) return false;
  cpu_set_t want;
  CPU_ZERO(&want);
  CPU_SET(allowed[cpu % allowed.size()], &want);
  if (pthread_setaffinity_np(pthread_self(), sizeof(want), &want) != 0) {
    return false;
  }
  if (saved != nullptr) {
    std::memcpy(saved->bytes, &prev, sizeof(prev));
    saved->valid = true;
  }
  return true;
#else
  (void)cpu;
  (void)saved;
  return false;
#endif
}

void restore_current_thread_affinity(const CpuAffinityMask& mask) {
#if defined(__linux__)
  if (!mask.valid) return;
  cpu_set_t prev;
  std::memcpy(&prev, mask.bytes, sizeof(prev));
  (void)pthread_setaffinity_np(pthread_self(), sizeof(prev), &prev);
#else
  (void)mask;
#endif
}

namespace {

/// Rotating base CPU for pinned gangs (one counter for the whole
/// process): each pinned gang claims a contiguous slice of gang-width
/// CPUs, so concurrent pinned gangs spread across the allowed set.
std::atomic<unsigned> pin_slice{0};

}  // namespace

unsigned claim_pin_slice(unsigned width) {
  return pin_slice.fetch_add(width, std::memory_order_relaxed);
}

WorkerPool& process_pool() {
  static WorkerPool pool;
  return pool;
}

void run_indexed_gang(WorkerPool* pool, std::size_t count, bool pin,
                      const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const unsigned slice =
      pin ? claim_pin_slice(static_cast<unsigned>(count)) : 0;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tasks.emplace_back([&body, pin, slice, i] {
      CpuAffinityMask saved;
      const bool pinned =
          pin && pin_current_thread_to_cpu(
                     slice + static_cast<unsigned>(i), &saved);
      body(i);
      if (pinned) restore_current_thread_affinity(saved);
    });
  }
  (pool != nullptr ? *pool : process_pool()).run_gang(std::move(tasks));
}

// ---- WorkerPool ----

WorkerPool::WorkerPool(std::size_t initial_workers) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_workers_locked(initial_workers);
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::ensure_workers_locked(std::size_t want) {
  while (workers_.size() < want) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void WorkerPool::run_gang(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  auto gang = std::make_shared<Gang>();
  gang->remaining = tasks.size();
  gang->tasks = std::move(tasks);

  std::unique_lock<std::mutex> lock(mu_);
  MIMD_EXPECTS(!stopping_);
  // A gang's tasks block on each other through channels, so all of them
  // must be runnable concurrently — and independent gangs should overlap,
  // not queue behind one gang's width: size the pool for every admitted
  // task.  Growth is bounded by the concurrent callers (each blocks here
  // until its gang finishes).
  admitted_tasks_ += gang->tasks.size();
  ensure_workers_locked(admitted_tasks_);
  queue_.push_back(gang);
  work_ready_.notify_all();
  gang_done_.wait(lock, [&] { return gang->remaining == 0; });
  ++gangs_run_;
}

void WorkerPool::worker_main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;  // drained: queued gangs complete before exit
      continue;
    }
    // Claim strictly from the front gang; pop it once fully claimed so at
    // most one gang is ever partially claimed (the deadlock-freedom
    // invariant — see the class comment).
    const std::shared_ptr<Gang> gang = queue_.front();
    const std::size_t idx = gang->next_task++;
    if (gang->next_task == gang->tasks.size()) queue_.pop_front();
    lock.unlock();
    gang->tasks[idx]();
    lock.lock();
    --admitted_tasks_;
    if (--gang->remaining == 0) gang_done_.notify_all();
  }
}

std::size_t WorkerPool::num_workers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

std::uint64_t WorkerPool::gangs_run() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return gangs_run_;
}

}  // namespace mimd
