// Persistent worker pool — the only source of the threads a run executes
// on, and the "spawn once, serve many runs" half of the plan service (the
// other half is runtime/plan_cache.hpp).
//
// At the small-n request sizes a plan service handles, creating a thread
// per compiled thread per run would dominate the run itself — the exact
// overhead inversion McKenney's *Is Parallel Programming Hard* warns
// about for fine-grained parallel runtimes.  A WorkerPool keeps its
// threads alive across runs, so a run costs two condvar handoffs per
// worker instead of a clone()/join() pair.  A run names its pool
// (RunOptions::pool — mimdd's PlanServer passes its own) or borrows the
// process pool, process_pool(), built on first use.  A pool's threads do
// not survive fork(), so a process that forks (mimdd --daemonize) builds
// every pool it runs on after the fork.
//
// Scheduling unit: the *gang*.  A compiled program's threads communicate
// through blocking channels, so a run's tasks must all be in flight
// before any of them can finish — running half a gang can deadlock the
// pool.  run_gang() therefore enqueues the task set as one unit and
// grows the pool to cover every *admitted* task (all unfinished tasks of
// queued and running gangs, plus the new gang's), so concurrent gangs
// from independent callers genuinely overlap instead of serializing
// behind one gang's width; growth is bounded by the callers themselves —
// each blocks in run_gang(), so admitted work never exceeds
// (concurrent callers) x (widest gang).  Workers claim tasks strictly
// from the front gang (FIFO), which keeps even a hypothetically
// undersized pool deadlock-free: at most one gang is ever partially
// claimed (the front one), every fully claimed gang is self-contained
// and finishes, and its freed workers then complete the front gang's
// claim — no circular wait, for any mix of concurrent run_gang() callers.
//
// CPU-affinity pinning rides on the pool: the compiled thread order was frozen at compile() time precisely so thread
// i of a plan can be bound to CPU (i mod cores) run after run
// (RunOptions::pin_threads).  The Linux implementation uses
// pthread_setaffinity_np behind the portable shim below; elsewhere
// pinning degrades to a no-op and pin_current_thread_to_cpu reports
// false.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mimd {

/// Opaque saved affinity mask, sized for Linux's cpu_set_t (1024 CPUs).
/// Valid only after a successful pin_current_thread_to_cpu(..., &saved).
struct CpuAffinityMask {
  unsigned char bytes[128] = {};
  bool valid = false;
};

/// True when this platform can pin threads to CPUs (Linux).
[[nodiscard]] bool affinity_supported();

/// Pin the calling thread to CPU `cpu % hardware_concurrency`, saving the
/// previous mask into `*saved` (when non-null) for restoration.  Returns
/// false — leaving the thread untouched — on unsupported platforms or if
/// the syscall fails (e.g. a cgroup cpuset excluding that CPU).
bool pin_current_thread_to_cpu(unsigned cpu, CpuAffinityMask* saved);

/// Restore a mask saved by pin_current_thread_to_cpu.  No-op when
/// !mask.valid.  Pool workers restore after every pinned gang so a later
/// unpinned run on the same worker is not silently confined.
void restore_current_thread_affinity(const CpuAffinityMask& mask);

/// Claim a contiguous slice of `width` CPUs from the process-wide
/// rotating base every pinned gang draws from — the interpreted executor
/// and pooled native kernels share one counter, so concurrent pinned
/// runs of either kind get disjoint CPU ranges (mod the allowed set)
/// instead of all stacking onto CPUs 0..width-1.  Pin task i of the gang
/// to CPU (returned base + i).
[[nodiscard]] unsigned claim_pin_slice(unsigned width);

class WorkerPool;

/// The pool a run given no pool borrows: one per process, built on first
/// use, joined at exit.
[[nodiscard]] WorkerPool& process_pool();

/// Run `count` indexed tasks as one gang on `pool`'s workers — the
/// process pool when `pool` is null — returning when all have finished.
/// With `pin`, each task's executing thread is pinned to CPU (slice + i)
/// for the task's duration (one claim_pin_slice(count) per call) and the
/// previous mask is restored afterwards.  This is the one pool + pinning
/// policy shared by the interpreted executor and the JIT's pooled kernel
/// dispatch.  `body(i)` must not throw.
void run_indexed_gang(WorkerPool* pool, std::size_t count, bool pin,
                      const std::function<void(std::size_t)>& body);

/// A persistent pool of worker threads executing gangs of blocking,
/// mutually communicating tasks.  Thread-safe: any number of threads may
/// call run_gang() concurrently; gangs are claimed FIFO.
///
/// Tasks must not throw — they run on pool threads where an escaping
/// exception is std::terminate (see ExecutorPlan::run's contract on
/// mid-run channel violations).
class WorkerPool {
 public:
  /// Workers are spawned lazily as gangs demand them; `initial_workers`
  /// merely pre-warms.  The pool only ever grows (to the largest gang
  /// seen), never shrinks — it is a process-lifetime resource.
  explicit WorkerPool(std::size_t initial_workers = 0);

  /// Completes every queued gang, then joins all workers.  The caller
  /// must ensure no run_gang() is in flight.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run every task in `tasks` concurrently and return when all have
  /// finished.  Grows the pool to cover all admitted tasks first, so the
  /// gang can never starve itself and concurrent gangs run side by side.
  /// The calling thread blocks but does not execute tasks (it typically
  /// holds no worker invariants, and a blocked caller is exactly what
  /// plan.run() promised).
  void run_gang(std::vector<std::function<void()>> tasks);

  [[nodiscard]] std::size_t num_workers() const;

  /// Cumulative gangs executed — cheap observability for tests/benches.
  [[nodiscard]] std::uint64_t gangs_run() const;

 private:
  struct Gang {
    std::vector<std::function<void()>> tasks;
    std::size_t next_task = 0;   ///< claim cursor
    std::size_t remaining = 0;   ///< tasks not yet finished
  };

  void ensure_workers_locked(std::size_t want);
  void worker_main();

  mutable std::mutex mu_;
  std::condition_variable work_ready_;   ///< workers wait here
  std::condition_variable gang_done_;    ///< run_gang callers wait here
  std::deque<std::shared_ptr<Gang>> queue_;
  std::vector<std::thread> workers_;
  /// Unfinished tasks across every admitted gang — the pool-size floor
  /// that lets concurrent gangs overlap.
  std::size_t admitted_tasks_ = 0;
  std::uint64_t gangs_run_ = 0;
  bool stopping_ = false;
};

}  // namespace mimd
