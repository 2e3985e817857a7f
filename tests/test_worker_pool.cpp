// The plan service's pool half: gang execution, growth, concurrent gangs
// (the FIFO-claim deadlock-freedom invariant, replayed under TSan in CI),
// runs on a caller's pool bit-identical to runs on the process pool, and
// the CPU-affinity shim behind RunOptions::pin_threads.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/worker_pool.hpp"
#include "schedule/cyclic_sched.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"

namespace mimd {
namespace {

ExecutorPlan fig7_plan(std::int64_t n) {
  const Ddg g = workloads::fig7_loop();
  const Machine m{2, 2};
  const CyclicSchedResult r = cyclic_sched(g, m);
  EXPECT_TRUE(r.pattern.has_value());
  return compile(lower(materialize(*r.pattern, m.processors, n), g), g);
}

void expect_identical(const ExecutionResult& a, const ExecutionResult& b,
                      std::int64_t n) {
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t v = 0; v < a.values.size(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(a.values[v][static_cast<std::size_t>(i)],
                b.values[v][static_cast<std::size_t>(i)])
          << "node " << v << " iter " << i;
    }
  }
}

// ---- The pool itself ----

TEST(WorkerPool, RunsEveryTaskOfAGangExactlyOnce) {
  WorkerPool pool;
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_gang(std::move(tasks));
  EXPECT_EQ(counter.load(), 8);
  EXPECT_EQ(pool.gangs_run(), 1u);
  EXPECT_GE(pool.num_workers(), 8u);
}

TEST(WorkerPool, GrowsToTheWidestGangAndPersists) {
  WorkerPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2u);
  pool.run_gang({[] {}, [] {}, [] {}, [] {}, [] {}});
  EXPECT_GE(pool.num_workers(), 5u);
  const std::size_t grown = pool.num_workers();
  pool.run_gang({[] {}});
  EXPECT_EQ(pool.num_workers(), grown);  // never shrinks
  EXPECT_EQ(pool.gangs_run(), 2u);
}

TEST(WorkerPool, EmptyGangIsANoOp) {
  WorkerPool pool;
  pool.run_gang({});
  EXPECT_EQ(pool.gangs_run(), 0u);
}

TEST(WorkerPool, GangTasksMayBlockOnEachOther) {
  // The executor's real shape: tasks that cannot finish until their gang
  // peers run.  A pool that ran tasks one at a time would deadlock here.
  WorkerPool pool;
  std::atomic<int> arrived{0};
  std::vector<std::function<void()>> tasks;
  constexpr int kGang = 4;
  for (int i = 0; i < kGang; ++i) {
    tasks.emplace_back([&arrived] {
      arrived.fetch_add(1);
      while (arrived.load() < kGang) std::this_thread::yield();
    });
  }
  pool.run_gang(std::move(tasks));
  EXPECT_EQ(arrived.load(), kGang);
}

TEST(WorkerPool, ConcurrentGangsFromManyCallersComplete) {
  WorkerPool pool;
  constexpr int kCallers = 6;
  constexpr int kGangsEach = 10;
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < kGangsEach; ++r) {
        std::atomic<int> arrived{0};
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 3; ++i) {
          tasks.emplace_back([&arrived, &total] {
            arrived.fetch_add(1);
            while (arrived.load() < 3) std::this_thread::yield();
            total.fetch_add(1);
          });
        }
        pool.run_gang(std::move(tasks));
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kGangsEach * 3);
  EXPECT_EQ(pool.gangs_run(),
            static_cast<std::uint64_t>(kCallers) * kGangsEach);
}

// ---- Pooled executor runs ----

TEST(WorkerPool, PooledRunIsBitIdenticalToSpawnOnBothTransports) {
  // A caller's pool and the process pool a pool-less gang run borrows
  // give the same bytes, and so does the one-thread run, which uses
  // neither.
  const std::int64_t n = 40;
  const ExecutorPlan plan = fig7_plan(n);
  WorkerPool pool;
  const ExecutionResult on_process_pool = plan.run_gang(n);

  RunOptions pooled_opts;
  pooled_opts.pool = &pool;
  const ExecutionResult pooled_first = plan.run_gang(n, pooled_opts);
  const ExecutionResult pooled_again = plan.run_gang(n, pooled_opts);

  expect_identical(pooled_first, on_process_pool, n);
  expect_identical(pooled_again, on_process_pool, n);  // reuse: no change
  expect_identical(plan.run(n, pooled_opts), on_process_pool, n);
  EXPECT_EQ(pool.gangs_run(), 2u);  // the default run took no gang
}

TEST(WorkerPool, PoolLessRunsShareTheProcessPool) {
  // A gang run given no pool borrows the process pool: every run is one
  // gang on it, and after the first run its workers are reused, not added.
  const std::int64_t n = 24;
  const ExecutorPlan plan = fig7_plan(n);
  WorkerPool& shared = process_pool();
  const std::uint64_t gangs_before = shared.gangs_run();
  const ExecutionResult first = plan.run_gang(n);
  const std::size_t workers = shared.num_workers();
  EXPECT_GE(workers, plan.program().threads.size());
  for (int r = 1; r < 20; ++r) expect_identical(plan.run_gang(n), first, n);
  EXPECT_EQ(shared.gangs_run(), gangs_before + 20);
  EXPECT_EQ(shared.num_workers(), workers);
}

TEST(WorkerPool, OnePoolServesManyPlansAndConcurrentRuns) {
  const std::int64_t n = 30;
  const Ddg ll20 = workloads::ll20_discrete_ordinates();
  const Machine m{3, 2};
  const CyclicSchedResult r = cyclic_sched(ll20, m);
  ASSERT_TRUE(r.pattern.has_value());
  const ExecutorPlan ll20_plan =
      compile(lower(materialize(*r.pattern, m.processors, n), ll20), ll20);
  const ExecutorPlan fig7 = fig7_plan(n);

  WorkerPool pool;
  std::vector<std::thread> drivers;
  std::atomic<bool> ok{true};
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&, d] {
      const ExecutorPlan& plan = (d % 2 == 0) ? fig7 : ll20_plan;
      const Ddg& g = (d % 2 == 0) ? fig7.graph() : ll20;
      RunOptions opts;
      opts.pool = &pool;
      const ExecutionResult res = plan.run_gang(n, opts);
      const auto reference = run_sequential(g, n);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        for (std::int64_t i = 0; i < n; ++i) {
          if (res.values[v][static_cast<std::size_t>(i)] !=
              reference[v][static_cast<std::size_t>(i)]) {
            ok.store(false);
          }
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(pool.gangs_run(), 4u);
}

// ---- The JIT's pool dispatch path, with a stub kernel ----

// JitKernel::run_pooled is compiled out under TSan (dlopen'd kernels are
// uninstrumented), but its dispatch skeleton — one context, one
// run_indexed_gang over threads() tasks — is plain instrumented code.
// Replay it with an in-process fake kernel whose "threads" rendezvous
// through the context, proving run_indexed_gang co-schedules the whole
// gang (a dispatcher running tasks one at a time would deadlock) and
// funnels every index to its own slot exactly once, on a caller's pool or
// the process pool, pinned or not.
TEST(WorkerPool, IndexedGangCoSchedulesAStubKernelsThreads) {
  constexpr std::size_t kThreads = 3;
  struct FakeCtx {
    std::atomic<int> arrived{0};
    std::atomic<int> runs[kThreads] = {};
  };
  WorkerPool pool;
  for (const bool use_pool : {true, false}) {
    for (const bool pin : {false, true}) {
      FakeCtx ctx;  // mimics mimd_kernel_ctx_create
      run_indexed_gang(use_pool ? &pool : nullptr, kThreads, pin,
                       [&ctx](std::size_t i) {
                         // mimics mimd_kernel_run_on(ctx, i): blocks until
                         // every gang peer is in flight, like the real
                         // kernel's ring handoffs.
                         ctx.arrived.fetch_add(1);
                         while (ctx.arrived.load() <
                                static_cast<int>(kThreads)) {
                           std::this_thread::yield();
                         }
                         ctx.runs[i].fetch_add(1);
                       });
      for (std::size_t i = 0; i < kThreads; ++i) {
        EXPECT_EQ(ctx.runs[i].load(), 1)
            << "thread " << i << (use_pool ? " own pool" : " process pool")
            << (pin ? " pinned" : "");
      }
    }
  }
  EXPECT_EQ(pool.gangs_run(), 2u);  // only the use_pool rounds
}

// Concurrent pinned gangs draw disjoint rotating CPU slices from the
// process-wide counter run_indexed_gang claims from — the same counter
// the interpreted executor and pooled native kernels share.
TEST(WorkerPool, PinSliceRotatesAcrossClaims) {
  const unsigned a = claim_pin_slice(3);
  const unsigned b = claim_pin_slice(3);
  const unsigned c = claim_pin_slice(2);
  EXPECT_EQ(b, a + 3);
  EXPECT_EQ(c, b + 3);
}

// ---- Affinity pinning ----

TEST(Affinity, PinAndRestoreRoundTripOnSupportedPlatforms) {
  if (!affinity_supported()) {
    GTEST_SKIP() << "affinity pinning unsupported on this platform";
  }
  CpuAffinityMask saved;
  ASSERT_TRUE(pin_current_thread_to_cpu(0, &saved));
  EXPECT_TRUE(saved.valid);
  // Pinning again with a huge index wraps into the allowed set rather
  // than failing — the shim pins within the thread's cgroup allowance.
  EXPECT_TRUE(pin_current_thread_to_cpu(1u << 20, nullptr));
  restore_current_thread_affinity(saved);
}

TEST(Affinity, PinnedRunsAreBitIdenticalPooledAndSpawned) {
  const std::int64_t n = 40;
  const ExecutorPlan plan = fig7_plan(n);
  RunOptions plain;
  const ExecutionResult unpinned = plan.run(n, plain);

  RunOptions pinned;
  pinned.pin_threads = true;
  expect_identical(plan.run(n, pinned), unpinned, n);  // process pool

  WorkerPool pool;
  pinned.pool = &pool;
  expect_identical(plan.run(n, pinned), unpinned, n);  // caller's pool
  // A later unpinned pooled run still matches: workers restored their
  // masks after the pinned gang.
  RunOptions pooled_plain;
  pooled_plain.pool = &pool;
  expect_identical(plan.run(n, pooled_plain), unpinned, n);
}

}  // namespace
}  // namespace mimd
