#include "runtime/plan_service.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "runtime/jit_compiler.hpp"

namespace mimd {

namespace {

/// The shared concurrent-driver skeleton: `concurrency` plain std::threads
/// pull indexes [0, count) from one cursor and hand each to `body`.  On
/// the first exception the cursor is poisoned (peers stop picking up new
/// work, in-flight work finishes) and that exception is rethrown after
/// every driver has drained.
template <typename Body>
void drive_indexed(std::size_t count, std::size_t concurrency,
                   const Body& body) {
  if (count == 0) return;
  if (concurrency == 0) {
    concurrency = std::thread::hardware_concurrency();
    if (concurrency == 0) concurrency = 1;
  }
  if (concurrency > count) concurrency = count;

  std::atomic<std::size_t> cursor{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto drive = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        cursor.store(count, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> drivers;
  drivers.reserve(concurrency);
  for (std::size_t d = 0; d < concurrency; ++d) {
    drivers.emplace_back(drive);
  }
  for (std::thread& d : drivers) d.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

ExecutionResult dispatch_resolved(const ExecutorPlan& plan,
                                  const std::shared_ptr<const JitKernel>& kernel,
                                  std::int64_t n, const RunOptions& opts,
                                  RunCounters* counters) {
  if (kernel && jit_run_eligible(opts)) {
    ExecutionResult r = kernel->run_pooled(n, opts.pool, opts.pin_threads);
    if (counters) counters->native.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  ExecutionResult r = plan.run(n, opts);
  if (counters) {
    counters->interpreted.fetch_add(1, std::memory_order_relaxed);
    if (kernel) counters->ineligible.fetch_add(1, std::memory_order_relaxed);
    (run_tier(opts) == RunTier::OneThread ? counters->one_thread
                                          : counters->gang)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return r;
}

ExecutionResult run_cached(PlanCache& cache, const PlanCache::CachedPlan& entry,
                           std::int64_t n, const RunOptions& opts,
                           RunCounters* counters) {
  const std::shared_ptr<const JitKernel> kernel =
      cache.kernel_for_run(entry, opts);
  const auto t0 = std::chrono::steady_clock::now();
  ExecutionResult r = dispatch_resolved(*entry.plan, kernel, n, opts, counters);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (kernel && jit_run_eligible(opts)) {
    cache.record_native_run(entry, seconds);
  } else {
    cache.record_run(entry, opts, seconds);
  }
  return r;
}

BatchReport run_batch(const std::vector<BatchJob>& jobs, PlanCache& cache,
                      WorkerPool& pool, std::size_t concurrency) {
  BatchReport report;
  report.results.resize(jobs.size());
  if (jobs.empty()) {
    report.cache_stats = cache.stats();
    return report;
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::exception_ptr error;
  RunCounters counters;
  try {
    drive_indexed(jobs.size(), concurrency, [&](std::size_t i) {
      const BatchJob& job = jobs[i];
      const auto cached =
          cache.get_or_compile_jit(job.program, job.graph, job.copts);
      RunOptions opts = job.ropts;
      opts.pool = &pool;
      const std::int64_t n = job.iterations != 0
                                 ? job.iterations
                                 : cached.plan->program().iterations;
      report.results[i] = run_cached(cache, cached, n, opts, &counters);
    });
  } catch (...) {
    error = std::current_exception();
  }
  const auto t1 = std::chrono::steady_clock::now();

  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  report.cache_stats = cache.stats();
  report.jit_native_runs = counters.native.load(std::memory_order_relaxed);
  report.jit_ineligible_runs =
      counters.ineligible.load(std::memory_order_relaxed);
  if (error) std::rethrow_exception(error);
  return report;
}

}  // namespace mimd
