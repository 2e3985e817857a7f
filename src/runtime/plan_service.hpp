// run_batch — the plan service's front door: push N independent loop
// instances through one shared PlanCache and one persistent WorkerPool,
// concurrently, and report throughput.
//
// This is the first end-to-end "many requests, one compiled program"
// scenario from the ROADMAP's north star: a service holding a warm cache
// of compiled plans and a warm pool of workers, where a request costs
// a hash lookup plus a pooled run instead of a full
// partition/compile/spawn cycle.  Duplicate structures across the batch
// — the common case for a service replaying the same hot loops — compile
// exactly once (PlanCache dedupes concurrent first requests too).
//
// Concurrency shape: `concurrency` driver threads pull jobs from a
// shared cursor; each driver resolves its job's plan in the cache and
// runs it: on its own thread (the one-thread tier, runtime/executor.hpp)
// unless the job asks for per-op work or pinning, or runs native, which
// go to the pool's workers as a gang.  Results land in per-job slots, so
// the output vector is in job order regardless of completion order.
//
// mimdc --batch <dir> and bench_plan_service are the two callers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/worker_pool.hpp"

namespace mimd {

/// One independent loop instance to execute.
struct BatchJob {
  PartitionedProgram program;
  Ddg graph;
  /// Iterations to run; 0 means the program's own compiled count, and any
  /// other value must equal it.
  std::int64_t iterations = 0;
  CompileOptions copts;
  /// Kernel / pinning for this job.  `pool` is overridden by run_batch —
  /// every job runs on the shared pool.
  RunOptions ropts;
};

/// Which tier served runs, tallied by dispatch_resolved.  Atomic, so
/// run_batch's concurrent threads and the daemon's handlers share one
/// tally.  `native` counts kernel-served runs and `interpreted` the rest,
/// which `one_thread` and `gang` split by run_tier; `ineligible` is the
/// subset of `interpreted` that had a published kernel but whose request
/// shape fell outside what the kernel implements — the counter that
/// tells an operator why warm traffic isn't native.
struct RunCounters {
  std::atomic<std::uint64_t> native{0};
  std::atomic<std::uint64_t> interpreted{0};
  std::atomic<std::uint64_t> ineligible{0};
  std::atomic<std::uint64_t> one_thread{0};
  std::atomic<std::uint64_t> gang{0};
};

/// The one dispatch rule: run `kernel` on the caller's pool when it is
/// published and `opts` is jit_run_eligible; otherwise interpret `plan`
/// on run_tier(opts)'s tier.  Bit-identical either way — the kernel is
/// the same CompiledProgram lowered through the C backend.  `n` must be
/// the compiled iteration count (every path raises ContractViolation
/// otherwise, before any op runs).  `counters`, when non-null, receives
/// one tally once the run has completed.
ExecutionResult dispatch_resolved(const ExecutorPlan& plan,
                                  const std::shared_ptr<const JitKernel>& kernel,
                                  std::int64_t n, const RunOptions& opts,
                                  RunCounters* counters);

/// One run of a cached plan, the way the daemon's Run handler and
/// run_batch serve it: the entry's kernel from cache.kernel_for_run (which
/// may queue its compile), dispatch_resolved, then the call's wall time
/// (result allocation included, so both tiers pay the same costs) to
/// cache.record_native_run for a native run or cache.record_run
/// otherwise, so the JIT's admission and its measured comparison see
/// every run.
ExecutionResult run_cached(PlanCache& cache, const PlanCache::CachedPlan& entry,
                           std::int64_t n, const RunOptions& opts,
                           RunCounters* counters);

struct BatchReport {
  /// One result per job, in job order.
  std::vector<ExecutionResult> results;
  /// Cache stats after the batch (deltas vs before are the batch's own).
  PlanCache::Stats cache_stats;
  /// End-to-end wall time for the whole batch, including compiles.
  double wall_seconds = 0.0;
  /// Jobs served by a published native kernel instead of the interpreted
  /// executor, on the shared pool (always 0 for a cache without JIT).
  std::uint64_t jit_native_runs = 0;
  /// Jobs with a published kernel that still ran interpreted.
  std::uint64_t jit_ineligible_runs = 0;
};

/// Run every job through `cache` + `pool` with `concurrency` concurrent
/// drivers (0 = hardware_concurrency, clamped to the job count).  If a
/// job's program is ill-formed, peers stop picking up new jobs, in-flight
/// jobs finish, and the first error (what compile() throws) is rethrown
/// after all drivers drain.
BatchReport run_batch(const std::vector<BatchJob>& jobs, PlanCache& cache,
                      WorkerPool& pool, std::size_t concurrency = 0);

}  // namespace mimd
