// JIT compiler suite: the dlopen'd native kernel must be a bit-identical
// (IEEE-754) drop-in for the interpreted ExecutorPlan — same values, same
// zero rows, no tolerance — and the machinery around it must degrade, not
// break: a missing toolchain serves interpreted forever, N concurrent
// runs that admit a compile compile exactly once, a failed compile moves
// no estimate, and eviction never unloads a kernel a caller still holds.
//
// Every test that needs a real compiler probes first (jit_available) and
// GTEST_SKIPs with the pinned reason otherwise, so the suite is green on
// toolchain-less hosts and under MIMD_ENABLE_JIT=OFF / TSan builds where
// the JIT is compiled out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "partition/c_codegen.hpp"
#include "runtime/executor.hpp"
#include "runtime/jit_compiler.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/worker_pool.hpp"
#include "support/loop_gen.hpp"

namespace mimd {
namespace {

using testsupport::GeneratedLoop;
using testsupport::generate_loop;

#define REQUIRE_JIT()                                                  \
  do {                                                                 \
    if (!jit_available()) {                                            \
      GTEST_SKIP() << "jit unavailable: " << jit_unavailable_reason(); \
    }                                                                  \
  } while (false)

// The shared-object emission mode produces a loadable kernel, not a
// program: exported entry points + ABI constant, no main, no self-check
// recompute, and no thread creation (the caller owns the threads).
TEST(JitCompiler, SharedObjectSourceIsAKernelNotAProgram) {
  const GeneratedLoop gl = generate_loop(2000);
  const ExecutorPlan plan = compile(gl.program, gl.graph);
  const std::string src = emit_c_program(plan.program(), gl.graph,
                                         CEmitOptions{CArtifact::Kernel});
  EXPECT_NE(src.find("void* mimd_kernel_ctx_create(double* R)"),
            std::string::npos);
  EXPECT_NE(src.find("int mimd_kernel_run_on(void* ctx"), std::string::npos);
  EXPECT_NE(src.find("void mimd_kernel_ctx_destroy(void* ctx)"),
            std::string::npos);
  EXPECT_NE(src.find("mimd_kernel_info"), std::string::npos);
  EXPECT_EQ(src.find("pthread_create"), std::string::npos);
  EXPECT_EQ(src.find("int main"), std::string::npos);
  EXPECT_EQ(src.find("SEQ"), std::string::npos);
  EXPECT_EQ(src.find("MISMATCH"), std::string::npos);
  // All mutable state lives in the per-call context, so the kernel is
  // reentrant — no static channel rings (the standalone mode's
  // "static double chan0_buf[...]") or result arrays.
  EXPECT_NE(src.find("kctx_t"), std::string::npos);
  EXPECT_EQ(src.find("static double chan0_buf"), std::string::npos);
  EXPECT_EQ(src.find("static double R["), std::string::npos);
}

// The acceptance differential: 50 generated programs, each run native
// on the shared WorkerPool, interpreted, and sequentially — all three
// bit-identical.
TEST(JitCompiler, FuzzDifferentialNativeVsInterpretedVsSequential) {
  REQUIRE_JIT();
  WorkerPool pool;  // one shared pool across all 50 programs, like mimdd's
  for (std::uint64_t seed = 2000; seed < 2050; ++seed) {
    const GeneratedLoop gl = generate_loop(seed);
    const ExecutorPlan plan = compile(gl.program, gl.graph);
    std::shared_ptr<const JitKernel> kernel;
    try {
      kernel = jit_compile(plan);
    } catch (const JitError& e) {
      ADD_FAILURE() << gl.tag << ": jit_compile failed: " << e.what();
      continue;
    }
    ASSERT_NE(kernel, nullptr) << gl.tag;
    const ExecutionResult native = kernel->run_pooled(gl.iterations, &pool);
    const ExecutionResult interp = plan.run(gl.iterations);
    const ExecutionResult seq = run_reference(gl.graph, gl.iterations);
    EXPECT_TRUE(values_match(native, interp, gl.iterations))
        << gl.tag << ": native vs interpreted";
    EXPECT_TRUE(values_match(native, seq, gl.iterations))
        << gl.tag << ": native vs sequential";
    EXPECT_EQ(testsupport::tiers_off_reference(plan, &pool), "") << gl.tag;
  }
  EXPECT_GT(pool.gangs_run(), 0u);
}

// A kernel is reentrant: repeat runs (and runs after other kernels
// loaded) produce the same bytes, because every run calloc's its own
// channel/result context.
TEST(JitCompiler, RepeatRunsAreIdentical) {
  REQUIRE_JIT();
  const GeneratedLoop gl = generate_loop(2060);
  const ExecutorPlan plan = compile(gl.program, gl.graph);
  const std::shared_ptr<const JitKernel> kernel = jit_compile(plan);
  const ExecutionResult first = kernel->run_pooled(gl.iterations, nullptr);
  const ExecutionResult second = kernel->run_pooled(gl.iterations, nullptr);
  EXPECT_TRUE(values_match(first, second, gl.iterations));
}

// No toolchain is a mode, not an error: probes say why, jit_compile
// throws JitError, and a PlanCache configured with the broken toolchain
// serves interpreted plans forever with no kernel, however often they run.
TEST(JitCompiler, MissingToolchainDegradesGracefully) {
  JitOptions opts;
  opts.cc = "/nonexistent/mimd-jit-no-such-cc";
  EXPECT_FALSE(jit_available(opts));
  EXPECT_FALSE(jit_unavailable_reason(opts).empty());

  const GeneratedLoop gl = generate_loop(2100);
  const ExecutorPlan plan = compile(gl.program, gl.graph);
  EXPECT_THROW((void)jit_compile(plan, opts), JitError);

  PlanCache::JitConfig cfg;
  cfg.enabled = true;
  cfg.options = opts;
  PlanCache cache(4, cfg);
  EXPECT_FALSE(cache.jit_available());
  const PlanCache::CachedPlan cached =
      cache.get_or_compile_jit(gl.program, gl.graph);
  ASSERT_NE(cached.plan, nullptr);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(cache.kernel_for_run(cached, RunOptions{}), nullptr);
    cache.record_run(cached, RunOptions{}, 1.0);  // long runs, no compiler
  }
  cache.wait_jit_idle();  // must not hang: nothing was ever queued
  EXPECT_EQ(cache.stats().jit_compiles, 0u);
  EXPECT_EQ(cache.stats().jit_deferred_runs, 0u);
  const ExecutionResult r = cached.plan->run(gl.iterations);
  EXPECT_TRUE(values_match(r, run_reference(gl.graph, gl.iterations),
                           gl.iterations));
}

// N threads racing the run that admits one structure's compile must cost
// exactly one background compile (the Empty -> Queued CAS is the dedup).
TEST(JitCompiler, ConcurrentFirstRequestsCompileExactlyOnce) {
  PlanCache::JitConfig cfg;
  cfg.enabled = true;
  PlanCache cache(8, cfg);
  if (!cache.jit_available()) {
    GTEST_SKIP() << "jit unavailable: " << cache.jit_unavailable_reason();
  }
  const GeneratedLoop gl = generate_loop(2101);
  // The first run, reported as long as a compile: it queues nothing, but
  // every run after it may.
  const PlanCache::CachedPlan first =
      cache.get_or_compile_jit(gl.program, gl.graph);
  (void)cache.kernel_for_run(first, RunOptions{});
  cache.record_run(first, RunOptions{}, cache.expected_jit_compile_seconds());
  constexpr int kThreads = 8;
  std::atomic<int> null_plans{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      const PlanCache::CachedPlan c =
          cache.get_or_compile_jit(gl.program, gl.graph);
      if (c.plan == nullptr) ++null_plans;
      (void)cache.kernel_for_run(c, RunOptions{});
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(null_plans.load(), 0);
  cache.wait_jit_idle();
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.jit_compiles, 1u);
  EXPECT_EQ(s.jit_failures, 0u);
  EXPECT_EQ(s.jit_in_flight, 0u);

  const PlanCache::CachedPlan warm =
      cache.get_or_compile_jit(gl.program, gl.graph);
  const std::shared_ptr<const JitKernel> kernel =
      cache.kernel_for_run(warm, RunOptions{});
  ASSERT_NE(kernel, nullptr);
  EXPECT_TRUE(values_match(kernel->run_pooled(gl.iterations, nullptr),
                           run_reference(gl.graph, gl.iterations),
                           gl.iterations));
}

// Eviction drops the cache's reference, not the caller's: a held kernel
// keeps running after its entry is evicted, and the mapping unloads only
// when the last shared_ptr goes away.
TEST(JitCompiler, EvictionUnloadsKernelOnlyAfterCallersFinish) {
  PlanCache::JitConfig cfg;
  cfg.enabled = true;
  PlanCache cache(1, cfg);
  if (!cache.jit_available()) {
    GTEST_SKIP() << "jit unavailable: " << cache.jit_unavailable_reason();
  }
  const GeneratedLoop a = generate_loop(2102);
  const GeneratedLoop b = generate_loop(2103);

  PlanCache::CachedPlan ca = cache.get_or_compile_jit(a.program, a.graph);
  (void)cache.kernel_for_run(ca, RunOptions{});
  // A's first run took a compile's time, so its second run queues it.
  cache.record_run(ca, RunOptions{}, cache.expected_jit_compile_seconds());
  (void)cache.kernel_for_run(ca, RunOptions{});
  cache.wait_jit_idle();  // A's kernel published; entry no longer pinned
  ca = cache.get_or_compile_jit(a.program, a.graph);
  std::shared_ptr<const JitKernel> kernel =
      cache.kernel_for_run(ca, RunOptions{});
  ASSERT_NE(kernel, nullptr);
  std::weak_ptr<const JitKernel> weak = kernel;
  ca = PlanCache::CachedPlan{};  // keep only the kernel itself

  // B's insert overflows the capacity-1 cache and evicts A's entry.
  (void)cache.get_or_compile_jit(b.program, b.graph);
  cache.wait_jit_idle();

  EXPECT_FALSE(weak.expired()) << "eviction dlclosed a kernel in use";
  EXPECT_TRUE(values_match(kernel->run_pooled(a.iterations, nullptr),
                           run_reference(a.graph, a.iterations),
                           a.iterations));
  kernel.reset();
  EXPECT_TRUE(weak.expired())
      << "kernel outlived its last reference (leak)";
}

// A compile that fails marks its slot Failed and leaves the engine's
// compile-time estimate where it was: only published compiles move it.
// The toolchain here builds the probe but refuses every kernel.
TEST(JitCompiler, AFailedCompileLeavesTheEstimateUnchanged) {
  REQUIRE_JIT();
  const std::filesystem::path script =
      std::filesystem::path(::testing::TempDir()) /
      "mimd-jit-cc-refuses-kernels.sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\n"
           "for a; do src=$a; done\n"
           "if grep -q mimd_kernel_run_on \"$src\"; then\n"
           "  echo 'kernel refused' >&2\n"
           "  exit 1\n"
           "fi\n"
           "exec cc \"$@\"\n";
  }
  std::filesystem::permissions(script, std::filesystem::perms::owner_all);
  JitOptions opts;
  opts.cc = script.string();
  ASSERT_TRUE(jit_available(opts)) << jit_unavailable_reason(opts);
  const double probe = jit_probe_seconds(opts);
  ASSERT_GT(probe, 0.0);

  PlanCache::JitConfig cfg;
  cfg.enabled = true;
  cfg.options = opts;
  PlanCache cache(4, cfg);
  EXPECT_EQ(cache.expected_jit_compile_seconds(), probe);
  const GeneratedLoop gl = generate_loop(2104);
  const PlanCache::CachedPlan entry =
      cache.get_or_compile_jit(gl.program, gl.graph);
  cache.prewarm(entry);
  cache.wait_jit_idle();
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.jit_compiles, 0u);
  EXPECT_EQ(s.jit_failures, 1u);
  EXPECT_EQ(cache.expected_jit_compile_seconds(), probe);

  // Failed is terminal: later runs, however long, stay interpreted, queue
  // nothing and are not counted as deferred.
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(cache.kernel_for_run(entry, RunOptions{}), nullptr);
    cache.record_run(entry, RunOptions{}, 10 * probe);
  }
  cache.wait_jit_idle();
  s = cache.stats();
  EXPECT_EQ(s.jit_failures, 1u);
  EXPECT_EQ(s.jit_deferred_runs, 0u);
  EXPECT_EQ(cache.expected_jit_compile_seconds(), probe);
  std::filesystem::remove(script);
}

// A client numbers its processors freely (the validator asks only that
// ids be distinct), so the emitted function names must not depend on them.
// Named after processor ids, ids -1 and 1 emitted `pe-1_main`, which cc
// rejects: the JIT failed that structure on every compile.
TEST(JitCompiler, NegativeProcessorIdsCompileAndRunBitIdentical) {
  REQUIRE_JIT();
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const EdgeId ab = g.add_edge(a, b, 0);
  (void)g.add_edge(a, a, 1);
  (void)g.add_edge(b, b, 1);
  PartitionedProgram prog;
  prog.processors = 2;
  prog.programs.resize(2);
  prog.programs[0].proc = -1;
  prog.programs[1].proc = 1;
  for (std::int64_t i = 0; i < 3; ++i) {
    prog.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{a, i}, 0, -1});
    prog.programs[0].ops.push_back(Op{Op::Kind::Send, Inst{a, i}, ab, 1});
    prog.programs[1].ops.push_back(Op{Op::Kind::Receive, Inst{a, i}, ab, -1});
    prog.programs[1].ops.push_back(Op{Op::Kind::Compute, Inst{b, i}, 0, -1});
  }
  const ExecutorPlan plan = compile(prog, g);
  const std::string src = emit_c_program(plan.program(), g,
                                         CEmitOptions{CArtifact::Kernel});
  EXPECT_EQ(src.find("pe-"), std::string::npos);
  std::shared_ptr<const JitKernel> kernel;
  try {
    kernel = jit_compile(plan);
  } catch (const JitError& e) {
    FAIL() << "jit_compile failed: " << e.what();
  }
  const ExecutionResult native = kernel->run_pooled(3, nullptr);
  EXPECT_TRUE(values_match(native, plan.run(3), 3));
  EXPECT_TRUE(values_match(native, run_reference(g, 3), 3));
}

// The kernel context lifecycle (create -> run_on xN -> destroy) under the
// suite's sanitizer builds: repeated pooled runs — with and without a
// pool, pinned and not — must neither leak the calloc'd context (ASan)
// nor diverge in values, and an n other than the compiled count must be
// rejected before any context is created.
TEST(JitCompiler, PooledContextLifecycleIsLeakFreeAcrossRepeatRuns) {
  REQUIRE_JIT();
  const GeneratedLoop gl = generate_loop(2201);
  const ExecutorPlan plan = compile(gl.program, gl.graph);
  const std::shared_ptr<const JitKernel> kernel = jit_compile(plan);
  EXPECT_THROW((void)kernel->run_pooled(gl.iterations - 1, nullptr),
               ContractViolation);
  EXPECT_THROW((void)kernel->run_pooled(gl.iterations + 4, nullptr),
               ContractViolation);
  WorkerPool pool;
  const ExecutionResult first = kernel->run_pooled(gl.iterations, &pool);
  for (int round = 0; round < 8; ++round) {
    WorkerPool* p = round % 2 == 0 ? &pool : nullptr;
    const bool pin = round % 4 < 2;
    const ExecutionResult again =
        kernel->run_pooled(gl.iterations, p, pin);
    EXPECT_TRUE(values_match(again, first, gl.iterations))
        << "round " << round << (p ? " pooled" : " spawned")
        << (pin ? " pinned" : "");
  }
}

// The run-site gate: only a default-shaped run (no synthetic work) may
// be served natively — the work knob changes timing semantics the kernel
// does not implement.  Pinning is not a shape question: the caller
// provides the kernel's threads, so the rotating CPU-slice policy
// applies to native runs exactly as to interpreted ones.
TEST(JitCompiler, RunEligibilityGate) {
  RunOptions o;
  EXPECT_TRUE(jit_run_eligible(o));
  o.pin_threads = true;
  EXPECT_TRUE(jit_run_eligible(o));
  o = RunOptions{};
  o.kernel.work_per_cycle = 8;
  EXPECT_FALSE(jit_run_eligible(o));
}

}  // namespace
}  // namespace mimd
