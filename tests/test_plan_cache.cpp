// The plan service's cache half: structural hashing (stability, value
// relevance, name blindness), hit/miss/eviction accounting, single-compile
// deduplication under concurrency (the suite the CI TSan job replays),
// the JIT admission rule (a native compile once a plan's interpreted runs
// have taken a compile's time; the CI ASan+UBSan job runs these with the
// JIT on), and run_batch pushing many loops through one cache + pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "partition/compiled_program.hpp"
#include "partition/lowering.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_service.hpp"
#include "runtime/worker_pool.hpp"
#include "schedule/cyclic_sched.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {
namespace {

PartitionedProgram pattern_program(const Ddg& g, const Machine& m,
                                   std::int64_t n) {
  const CyclicSchedResult r = cyclic_sched(g, m);
  EXPECT_TRUE(r.pattern.has_value());
  return lower(materialize(*r.pattern, m.processors, n), g);
}

void expect_matches_sequential(const ExecutionResult& res, const Ddg& g,
                               std::int64_t n) {
  const auto reference = run_sequential(g, n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(res.values[v][static_cast<std::size_t>(i)],
                reference[v][static_cast<std::size_t>(i)])
          << "node " << v << " iter " << i;
    }
  }
}

// ---- structural_hash ----

TEST(StructuralHash, StableAcrossCallsAndCopies) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);
  const std::uint64_t h1 = structural_hash(p, g);
  const std::uint64_t h2 = structural_hash(p, g);
  EXPECT_EQ(h1, h2);
  // Deep copies hash identically: the hash is a pure function of
  // structure, no addresses or container identity.
  const PartitionedProgram p_copy = p;  // NOLINT(performance-*)
  const Ddg g_copy = g;                 // NOLINT(performance-*)
  EXPECT_EQ(structural_hash(p_copy, g_copy), h1);
}

TEST(StructuralHash, DistinguishesProgramGraphAndOptions) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p20 = pattern_program(g, Machine{2, 2}, 20);
  const PartitionedProgram p24 = pattern_program(g, Machine{2, 2}, 24);
  EXPECT_NE(structural_hash(p20, g), structural_hash(p24, g));

  CompileOptions o1;
  o1.opt = OptLevel::O1;
  EXPECT_NE(structural_hash(p20, g), structural_hash(p20, g, o1));

  const Ddg other = workloads::ll20_discrete_ordinates();
  EXPECT_NE(structural_hash(g), structural_hash(other));
}

TEST(StructuralHash, IgnoresNodeNamesButNotLatencies) {
  // Two graphs identical except for names: same hash (names never reach
  // the synthetic values).  Bump one latency: different hash.
  Ddg a;
  a.add_node("A", 1);
  a.add_node("B", 2);
  a.add_edge(0u, 1u, 0);
  a.add_edge(1u, 0u, 1);

  Ddg renamed;
  renamed.add_node("X", 1);
  renamed.add_node("Y", 2);
  renamed.add_edge(0u, 1u, 0);
  renamed.add_edge(1u, 0u, 1);
  EXPECT_EQ(structural_hash(a), structural_hash(renamed));

  Ddg slower;
  slower.add_node("A", 1);
  slower.add_node("B", 3);  // latency changes the computed values
  slower.add_edge(0u, 1u, 0);
  slower.add_edge(1u, 0u, 1);
  EXPECT_NE(structural_hash(a), structural_hash(slower));
}

TEST(StructuralHash, EquivalenceMatchesTheHashDomain) {
  // structurally_equivalent is the hit-time collision guard: it must see
  // exactly what structural_hash(Ddg) sees — latencies and edges yes,
  // names no.
  Ddg a;
  a.add_node("A", 1);
  a.add_node("B", 2);
  a.add_edge(0u, 1u, 0);
  a.add_edge(1u, 0u, 1);

  Ddg renamed;
  renamed.add_node("X", 1);
  renamed.add_node("Y", 2);
  renamed.add_edge(0u, 1u, 0);
  renamed.add_edge(1u, 0u, 1);
  EXPECT_TRUE(structurally_equivalent(a, renamed));

  Ddg slower = a;
  EXPECT_TRUE(structurally_equivalent(a, slower));
  Ddg different;
  different.add_node("A", 1);
  different.add_node("B", 2);
  different.add_edge(0u, 1u, 0);
  different.add_edge(1u, 0u, 2);  // distance differs
  EXPECT_FALSE(structurally_equivalent(a, different));
}

// ---- Hit / miss / sharing ----

TEST(PlanCache, SecondRequestHitsAndSharesThePlan) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);

  PlanCache cache;
  const auto plan1 = cache.get_or_compile(p, g);
  const auto plan2 = cache.get_or_compile(p, g);
  EXPECT_EQ(plan1.get(), plan2.get());  // one artifact, shared

  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);

  expect_matches_sequential(plan1->run(20), g, 20);
}

TEST(PlanCache, AMissMovesAnRvalueProgramIntoTheEntry) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);

  PlanCache cache;
  PartitionedProgram given = p;
  const auto plan1 = cache.get_or_compile_jit(std::move(given), g).plan;
  EXPECT_TRUE(given.programs.empty());  // moved into the entry on the miss
  // The entry still holds the full key: an equal program hits.
  PartitionedProgram again = p;
  const auto plan2 = cache.get_or_compile_jit(std::move(again), g).plan;
  EXPECT_EQ(plan1.get(), plan2.get());
  EXPECT_EQ(again, p);  // a hit leaves the caller's program as it was
  EXPECT_EQ(cache.get_or_compile(p, g).get(), plan1.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  expect_matches_sequential(plan1->run(20), g, 20);
}

TEST(PlanCache, DifferentOptionsAreDifferentEntries) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);

  PlanCache cache;
  CompileOptions o1;
  o1.opt = OptLevel::O1;
  const auto off_plan = cache.get_or_compile(p, g);
  const auto o1_plan = cache.get_or_compile(p, g, o1);
  EXPECT_NE(off_plan.get(), o1_plan.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  // The opt level only keys the entry; both plans execute identically.
  expect_matches_sequential(o1_plan->run(20), g, 20);
}

TEST(PlanCache, EqualProgramsOnDifferentGraphsDoNotCollide) {
  // A hand-built one-processor program is valid on two graphs that differ
  // only in a latency — the values differ, so the cache must compile both.
  auto make_graph = [](int latency_b) {
    Ddg g;
    g.add_node("A", 1);
    g.add_node("B", latency_b);
    g.add_edge(0u, 1u, 0);
    g.add_edge(1u, 0u, 1);
    return g;
  };
  const Ddg g1 = make_graph(2);
  const Ddg g2 = make_graph(3);

  PartitionedProgram p;
  p.processors = 1;
  p.programs.resize(1);
  p.programs[0].proc = 0;
  for (std::int64_t i = 0; i < 4; ++i) {
    p.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{0u, i}, 0, -1});
    p.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{1u, i}, 0, -1});
  }

  PlanCache cache;
  const auto plan1 = cache.get_or_compile(p, g1);
  const auto plan2 = cache.get_or_compile(p, g2);
  EXPECT_NE(plan1.get(), plan2.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  expect_matches_sequential(plan1->run(4), g1, 4);
  expect_matches_sequential(plan2->run(4), g2, 4);
}

TEST(PlanCache, FailedCompileIsNotCached) {
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram bad;  // compute before its operand exists
  bad.processors = 1;
  bad.programs.resize(1);
  bad.programs[0].proc = 0;
  bad.programs[0].ops.push_back(
      Op{Op::Kind::Compute, Inst{*g.find("B"), 0}, 0, -1});

  PlanCache cache;
  EXPECT_THROW((void)cache.get_or_compile(bad, g), ContractViolation);
  EXPECT_THROW((void)cache.get_or_compile(bad, g), ContractViolation);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);   // the retracted build left nothing behind
  EXPECT_EQ(s.misses, 2u);    // and did not poison later requests
}

// ---- LRU eviction ----

TEST(PlanCache, EvictsLeastRecentlyUsedAtCapacity) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram a = pattern_program(g, Machine{2, 2}, 12);
  const PartitionedProgram b = pattern_program(g, Machine{2, 2}, 16);
  const PartitionedProgram c = pattern_program(g, Machine{2, 2}, 20);

  PlanCache cache(2);
  (void)cache.get_or_compile(a, g);
  (void)cache.get_or_compile(b, g);
  (void)cache.get_or_compile(a, g);  // touch a: b becomes the LRU entry
  (void)cache.get_or_compile(c, g);  // evicts b

  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);

  (void)cache.get_or_compile(a, g);  // still resident: hit
  EXPECT_EQ(cache.stats().hits, 2u);
  (void)cache.get_or_compile(b, g);  // evicted: recompiles
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(PlanCache, ClearDropsEntriesButKeepsHandedOutPlans) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);
  PlanCache cache;
  const auto plan = cache.get_or_compile(p, g);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  // The shared_ptr we hold is unaffected by eviction.
  expect_matches_sequential(plan->run(20), g, 20);
  (void)cache.get_or_compile(p, g);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// ---- Concurrency (replayed under TSan in CI) ----

TEST(PlanCache, ConcurrentRequestsCompileEachStructureOnce) {
  const Ddg g = workloads::fig7_loop();
  std::vector<PartitionedProgram> programs;
  for (const std::int64_t n : {12, 16, 20}) {
    programs.push_back(pattern_program(g, Machine{2, 2}, n));
  }

  PlanCache cache;
  constexpr int kThreads = 8;
  constexpr int kRounds = 16;
  std::vector<std::shared_ptr<const ExecutorPlan>> seen(
      static_cast<std::size_t>(kThreads) * programs.size());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t j = 0; j < programs.size(); ++j) {
          auto plan = cache.get_or_compile(programs[j], g);
          seen[static_cast<std::size_t>(t) * programs.size() + j] =
              std::move(plan);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly one compile per distinct structure — concurrent first
  // requests waited for the builder instead of duplicating the work.
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, programs.size());
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * kRounds *
                programs.size());
  // Every thread ended holding the same artifact per structure.
  for (std::size_t j = 0; j < programs.size(); ++j) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[j].get(),
                seen[static_cast<std::size_t>(t) * programs.size() + j].get());
    }
  }
}

// ---- JIT admission: a native compile once the runs have paid for it ----
//
// Run durations are reported through record_run, the call run_cached
// makes with each run's wall time, so no test below depends on how fast
// this host interprets or compiles.

/// A JIT-enabled cache, or null when this build or host has no usable
/// toolchain (the caller skips).
std::unique_ptr<PlanCache> jit_cache(std::size_t capacity = 8) {
  PlanCache::JitConfig cfg;
  cfg.enabled = true;
  auto cache = std::make_unique<PlanCache>(capacity, cfg);
  if (!cache->jit_available()) return nullptr;
  return cache;
}

#define REQUIRE_JIT_CACHE(cache)                                       \
  do {                                                                 \
    if ((cache) == nullptr) {                                          \
      GTEST_SKIP() << "jit unavailable: " << jit_unavailable_reason(); \
    }                                                                  \
  } while (false)

/// One interpreted run of `entry` as run_cached makes it, reported as
/// having taken `seconds`.
void interpreted_run(PlanCache& cache, const PlanCache::CachedPlan& entry,
                     double seconds, const RunOptions& opts = {}) {
  EXPECT_EQ(cache.kernel_for_run(entry, opts), nullptr);
  cache.record_run(entry, opts, seconds);
}

TEST(PlanCacheJit, APlanRunOnceNeverQueuesACompile) {
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);
  // A miss and a hit queue nothing; neither does the one run, however
  // long it took.
  const PlanCache::CachedPlan entry = cache->get_or_compile_jit(p, g);
  (void)cache->get_or_compile_jit(p, g);
  interpreted_run(*cache, entry, 10 * cache->expected_jit_compile_seconds());
  cache->wait_jit_idle();
  const PlanCache::Stats s = cache->stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.jit_compiles, 0u);
  EXPECT_EQ(s.jit_failures, 0u);
  EXPECT_EQ(s.jit_in_flight, 0u);
  EXPECT_EQ(s.jit_deferred_runs, 1u);
}

TEST(PlanCacheJit, RunsThatStayBelowTheEstimateNeverQueue) {
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);
  const PlanCache::CachedPlan entry = cache->get_or_compile_jit(p, g);
  const double estimate = cache->expected_jit_compile_seconds();
  ASSERT_GT(estimate, 0.0);
  // Twenty runs of a fortieth of a compile each: half a compile in all.
  for (int run = 0; run < 20; ++run) {
    interpreted_run(*cache, entry, estimate / 40);
  }
  cache->wait_jit_idle();
  const PlanCache::Stats s = cache->stats();
  EXPECT_EQ(s.jit_compiles, 0u);
  EXPECT_EQ(s.jit_in_flight, 0u);
  EXPECT_EQ(s.jit_deferred_runs, 20u);
}

TEST(PlanCacheJit, TheFirstRunAfterTheSumReachesTheEstimateQueuesOneCompile) {
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);
  const PlanCache::CachedPlan entry = cache->get_or_compile_jit(p, g);
  const double estimate = cache->expected_jit_compile_seconds();
  // Four quarters reach the estimate exactly; only the run after the
  // fourth sees the sum and queues.
  for (int run = 0; run < 4; ++run) interpreted_run(*cache, entry, estimate / 4);
  cache->wait_jit_idle();
  EXPECT_EQ(cache->stats().jit_compiles, 0u);
  EXPECT_EQ(cache->stats().jit_deferred_runs, 4u);

  interpreted_run(*cache, entry, estimate / 4);  // the fifth queues
  cache->wait_jit_idle();
  PlanCache::Stats s = cache->stats();
  EXPECT_EQ(s.jit_compiles, 1u);
  EXPECT_EQ(s.jit_failures, 0u);
  EXPECT_EQ(s.jit_deferred_runs, 4u);

  const std::shared_ptr<const JitKernel> kernel =
      cache->kernel_for_run(entry, RunOptions{});
  ASSERT_NE(kernel, nullptr);
  RunCounters counters;
  const ExecutionResult native =
      dispatch_resolved(*entry.plan, kernel, 20, RunOptions{}, &counters);
  EXPECT_EQ(counters.native.load(), 1u);
  EXPECT_TRUE(values_match(native, entry.plan->run(20), 20));
  expect_matches_sequential(native, g, 20);
  cache->wait_jit_idle();
  s = cache->stats();
  EXPECT_EQ(s.jit_compiles, 1u);  // runs after it queue none
  EXPECT_EQ(s.jit_deferred_runs, 4u);
}

TEST(PlanCacheJit, TheSecondRunQueuesOneCompileAndTheThirdRunsNative) {
  // A plan whose first run took as long as a compile goes native from
  // its second run.
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);
  const PlanCache::CachedPlan entry = cache->get_or_compile_jit(p, g);
  interpreted_run(*cache, entry, cache->expected_jit_compile_seconds());
  cache->wait_jit_idle();
  EXPECT_EQ(cache->stats().jit_compiles, 0u);

  EXPECT_EQ(cache->kernel_for_run(entry, RunOptions{}), nullptr);
  cache->wait_jit_idle();
  EXPECT_EQ(cache->stats().jit_compiles, 1u);
  EXPECT_EQ(cache->stats().jit_in_flight, 0u);

  const std::shared_ptr<const JitKernel> kernel =
      cache->kernel_for_run(entry, RunOptions{});
  ASSERT_NE(kernel, nullptr);
  RunCounters counters;
  const ExecutionResult native =
      dispatch_resolved(*entry.plan, kernel, 20, RunOptions{}, &counters);
  EXPECT_EQ(counters.native.load(), 1u);
  EXPECT_TRUE(values_match(native, entry.plan->run(20), 20));
  expect_matches_sequential(native, g, 20);
  cache->wait_jit_idle();
  EXPECT_EQ(cache->stats().jit_compiles, 1u);  // runs after it queue none
}

TEST(PlanCacheJit, EightThreadsRacingTheSecondRunCostOneCompile) {
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);
  interpreted_run(*cache, cache->get_or_compile_jit(p, g),
                  cache->expected_jit_compile_seconds());

  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const PlanCache::CachedPlan entry = cache->get_or_compile_jit(p, g);
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      (void)cache->kernel_for_run(entry, RunOptions{});
    });
  }
  for (std::thread& t : threads) t.join();
  cache->wait_jit_idle();
  const PlanCache::Stats s = cache->stats();
  EXPECT_EQ(s.jit_compiles, 1u);
  EXPECT_EQ(s.jit_failures, 0u);
  EXPECT_EQ(s.jit_in_flight, 0u);
}

TEST(PlanCacheJit, ARunTheKernelCannotServeDoesNotCount) {
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);
  const PlanCache::CachedPlan entry = cache->get_or_compile_jit(p, g);
  const double estimate = cache->expected_jit_compile_seconds();
  RunOptions busy;
  busy.kernel.work_per_cycle = 8;  // not jit_run_eligible
  // Ineligible runs neither queue, nor add their time, nor count as
  // deferred.
  for (int i = 0; i < 3; ++i) interpreted_run(*cache, entry, estimate, busy);
  interpreted_run(*cache, entry, estimate / 2);
  (void)cache->kernel_for_run(entry, RunOptions{});
  cache->wait_jit_idle();
  EXPECT_EQ(cache->stats().jit_compiles, 0u);  // half a compile paid
  EXPECT_EQ(cache->stats().jit_deferred_runs, 2u);

  cache->record_run(entry, RunOptions{}, estimate / 2);
  (void)cache->kernel_for_run(entry, RunOptions{});
  cache->wait_jit_idle();
  EXPECT_EQ(cache->stats().jit_compiles, 1u);
}

// ---- The measured comparison: a published kernel serves only once a
// native run has beaten the entry's interpreted runs ----

/// An entry of `cache` whose two interpreted runs took half an estimate
/// each (`mean`: the publish moves the estimate, not the runs), and whose
/// kernel the second run's successor compiled.
struct OnTrial {
  PlanCache::CachedPlan entry;
  double mean = 0.0;
};
OnTrial entry_with_a_kernel_on_trial(PlanCache& cache, const Ddg& g) {
  OnTrial t{cache.get_or_compile_jit(pattern_program(g, Machine{2, 2}, 20), g),
            cache.expected_jit_compile_seconds() / 2};
  interpreted_run(cache, t.entry, t.mean);
  interpreted_run(cache, t.entry, t.mean);
  EXPECT_EQ(cache.kernel_for_run(t.entry, RunOptions{}), nullptr);  // queues
  cache.wait_jit_idle();
  EXPECT_EQ(cache.stats().jit_compiles, 1u);
  return t;
}

TEST(PlanCacheJit, ANativeRunFasterThanTheInterpretedMeanKeepsTheKernel) {
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const Ddg g = workloads::fig7_loop();
  const auto [entry, mean] = entry_with_a_kernel_on_trial(*cache, g);
  // Slower runs short of the trial count leave it on trial; the first
  // faster one keeps it, and no later run can drop it.
  for (int i = 1; i < JitSlot::kNativeTrials; ++i) {
    ASSERT_NE(cache->kernel_for_run(entry, RunOptions{}), nullptr);
    cache->record_native_run(entry, 2 * mean);
  }
  ASSERT_NE(cache->kernel_for_run(entry, RunOptions{}), nullptr);
  cache->record_native_run(entry, mean / 2);
  for (int i = 0; i < 2 * JitSlot::kNativeTrials; ++i) {
    cache->record_native_run(entry, 10 * mean);
  }
  const std::shared_ptr<const JitKernel> kernel =
      cache->kernel_for_run(entry, RunOptions{});
  ASSERT_NE(kernel, nullptr);
  expect_matches_sequential(kernel->run_pooled(20, nullptr), g, 20);
  EXPECT_EQ(cache->stats().jit_dropped, 0u);
  EXPECT_EQ(cache->stats().jit_compiles, 1u);
}

TEST(PlanCacheJit, NativeRunsSlowerThanTheInterpretedMeanDropTheKernelForGood) {
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const Ddg g = workloads::fig7_loop();
  const auto [entry, mean] = entry_with_a_kernel_on_trial(*cache, g);
  for (int i = 0; i < JitSlot::kNativeTrials; ++i) {
    ASSERT_NE(cache->kernel_for_run(entry, RunOptions{}), nullptr) << i;
    cache->record_native_run(entry, mean);  // a tie does not beat the mean
  }
  EXPECT_EQ(cache->stats().jit_dropped, 1u);
  // Dropped: every run interprets, however much the runs pay, and the
  // entry never queues another compile or counts as deferred.
  for (int i = 0; i < 4; ++i) {
    interpreted_run(*cache, entry, cache->expected_jit_compile_seconds());
  }
  cache->record_native_run(entry, mean / 100);  // a stale native run
  cache->wait_jit_idle();
  const PlanCache::Stats s = cache->stats();
  EXPECT_EQ(s.jit_compiles, 1u);
  EXPECT_EQ(s.jit_in_flight, 0u);
  EXPECT_EQ(s.jit_dropped, 1u);
  EXPECT_EQ(s.jit_deferred_runs, 2u);  // the two runs before the compile
  EXPECT_EQ(cache->kernel_for_run(entry, RunOptions{}), nullptr);
}

TEST(PlanCacheJit, PrewarmQueuesAtOnce) {
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, 20);
  const PlanCache::CachedPlan entry = cache->get_or_compile_jit(p, g);
  cache->prewarm(entry);
  cache->wait_jit_idle();
  EXPECT_EQ(cache->stats().jit_compiles, 1u);
  const std::shared_ptr<const JitKernel> kernel =
      cache->kernel_for_run(entry, RunOptions{});  // its first run
  ASSERT_NE(kernel, nullptr);
  expect_matches_sequential(kernel->run_pooled(20, nullptr), g, 20);
  EXPECT_EQ(cache->stats().jit_deferred_runs, 0u);
}

TEST(PlanCacheJit, TheEstimateStartsAtTheProbeAndBecomesTheMeanCompile) {
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const double probe = jit_probe_seconds();
  ASSERT_GT(probe, 0.0);
  EXPECT_EQ(cache->expected_jit_compile_seconds(), probe);
  EXPECT_EQ(cache->stats().jit_compile_estimate_us,
            static_cast<std::uint64_t>(std::llround(probe * 1e6)));

  // Two published compiles: the estimate is their mean wall time, which
  // lies between the probe's few milliseconds and the compiles' own
  // duration.
  const Ddg g = workloads::fig7_loop();
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::int64_t n : {20, 24}) {
    cache->prewarm(cache->get_or_compile_jit(
        pattern_program(g, Machine{2, 2}, n), g));
  }
  cache->wait_jit_idle();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  ASSERT_EQ(cache->stats().jit_compiles, 2u);
  const double mean = cache->expected_jit_compile_seconds();
  EXPECT_NE(mean, probe);
  EXPECT_GT(mean, 0.0);
  EXPECT_LE(2 * mean, elapsed);  // both compiles ran inside the window
  EXPECT_EQ(cache->stats().jit_compile_estimate_us,
            static_cast<std::uint64_t>(std::llround(mean * 1e6)));
}

// ---- run_batch: the end-to-end plan service ----

TEST(PlanService, BatchMatchesSequentialAndDedupesPlans) {
  const Ddg fig7 = workloads::fig7_loop();
  const Ddg ll20 = workloads::ll20_discrete_ordinates();

  std::vector<BatchJob> jobs;
  for (int copy = 0; copy < 3; ++copy) {
    BatchJob a;
    a.program = pattern_program(fig7, Machine{2, 2}, 20);
    a.graph = fig7;
    a.iterations = 20;
    jobs.push_back(a);

    BatchJob b;
    b.program = pattern_program(ll20, Machine{3, 2}, 18);
    b.graph = ll20;
    b.iterations = 18;
    jobs.push_back(b);
  }

  PlanCache cache;
  WorkerPool pool;
  const BatchReport report = run_batch(jobs, cache, pool, 4);

  ASSERT_EQ(report.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_matches_sequential(report.results[i], jobs[i].graph,
                              jobs[i].iterations);
  }
  // Six jobs, two distinct structures: two compiles, four hits.
  EXPECT_EQ(report.cache_stats.misses, 2u);
  EXPECT_EQ(report.cache_stats.hits, 4u);
  EXPECT_GT(report.wall_seconds, 0.0);
}

// run_batch reports each run's wall time to the cache (run_cached), so a
// repeated job goes native once its runs have paid for a compile.  The
// earlier runs are reported as one microsecond short of the estimate; the
// batch's first run pays the rest, and its second queues the compile.
TEST(PlanService, ARepeatedJobWhoseRunsPassTheEstimateQueuesOneCompile) {
  const auto cache = jit_cache();
  REQUIRE_JIT_CACHE(cache);
  const Ddg g = workloads::fig7_loop();
  BatchJob job;
  job.program = pattern_program(g, Machine{2, 2}, 20);
  job.graph = g;
  job.iterations = 20;
  cache->record_run(cache->get_or_compile_jit(job.program, g), RunOptions{},
                    cache->expected_jit_compile_seconds() - 1e-6);

  WorkerPool pool;
  const BatchReport cold = run_batch({job, job}, *cache, pool, 1);
  cache->wait_jit_idle();
  PlanCache::Stats s = cache->stats();
  EXPECT_EQ(s.jit_compiles, 1u);
  EXPECT_EQ(s.jit_failures, 0u);
  EXPECT_EQ(s.jit_deferred_runs, 1u);
  EXPECT_EQ(cold.jit_native_runs, 0u);

  const BatchReport warm = run_batch({job}, *cache, pool, 1);
  EXPECT_EQ(warm.jit_native_runs, 1u);
  EXPECT_TRUE(values_match(warm.results[0], cold.results[0], 20));
  expect_matches_sequential(warm.results[0], g, 20);
  cache->wait_jit_idle();
  EXPECT_EQ(cache->stats().jit_compiles, 1u);
}

TEST(PlanService, BatchIterationsDefaultToTheCompiledCount) {
  const Ddg g = workloads::fig7_loop();
  std::vector<BatchJob> jobs(1);
  jobs[0].program = pattern_program(g, Machine{2, 2}, 16);
  jobs[0].graph = g;
  jobs[0].iterations = 0;  // "the program's own count"

  PlanCache cache;
  WorkerPool pool;
  const BatchReport report = run_batch(jobs, cache, pool, 1);
  expect_matches_sequential(report.results[0], g, 16);
}

TEST(PlanService, BatchRefusesANegativeIterationCount) {
  // Only 0 means "the compiled count"; -1 must equal it like any other.
  const Ddg g = workloads::fig7_loop();
  std::vector<BatchJob> jobs(1);
  jobs[0].program = pattern_program(g, Machine{2, 2}, 16);
  jobs[0].graph = g;
  jobs[0].iterations = -1;

  PlanCache cache;
  WorkerPool pool;
  EXPECT_THROW((void)run_batch(jobs, cache, pool, 1), ContractViolation);
}

TEST(PlanService, BatchRethrowsTheFirstCompileError) {
  const Ddg g = workloads::fig7_loop();
  std::vector<BatchJob> jobs(2);
  jobs[0].program = pattern_program(g, Machine{2, 2}, 12);
  jobs[0].graph = g;
  jobs[0].iterations = 12;
  // Ill-formed: a compute whose cross-processor operand never arrives.
  jobs[1].graph = g;
  jobs[1].program.processors = 1;
  jobs[1].program.programs.resize(1);
  jobs[1].program.programs[0].proc = 0;
  jobs[1].program.programs[0].ops.push_back(
      Op{Op::Kind::Compute, Inst{*g.find("B"), 0}, 0, -1});

  PlanCache cache;
  WorkerPool pool;
  EXPECT_THROW((void)run_batch(jobs, cache, pool, 2), ContractViolation);
}

}  // namespace
}  // namespace mimd
