// Real-thread execution of partitioned loops (google-benchmark).  Grain is
// controlled by work_per_cycle (the paper's footnote 3: node execution
// time should be of the same order as communication cost).
//
// Uses the compiled-plan API: each loop is compiled once
// (compile -> ExecutorPlan) and the same plan is executed threaded, native
// and as the sequential reference, so the series isolates execution cost
// from plan construction.  Counters report the liveness
// pass's effect (slots vs slots_ssa) so a slot-reuse regression shows up
// in the recorded JSON, not just in wall time.
//
// Run it with --benchmark_format=json --benchmark_out=<file> to keep a
// snapshot; tools/bench_diff.py diffs two of them.
#include <benchmark/benchmark.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/mimd.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/jit_compiler.hpp"
#include "runtime/worker_pool.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"

namespace {

using namespace mimd;

constexpr std::int64_t kIterations = 400;
constexpr int kWorkPerCycle = 4000;  // coarse grain: channels amortized

Ddg loop_by_name(const std::string& name) {
  if (name == "fig7") return workloads::fig7_loop();
  if (name == "LL18") return workloads::livermore18_loop();
  if (name == "LL20") return workloads::ll20_discrete_ordinates();
  // Loud on a kLoops entry with no mapping — a silent fallback would
  // record a mislabeled benchmark series.
  MIMD_EXPECTS(name == "elliptic");
  return workloads::elliptic_filter_loop();
}

ExecutorPlan make_plan(const Ddg& g) {
  const Machine m{2, 2};
  FullSchedOptions fold;
  fold.flow_strategy = FlowStrategy::Fold;
  const FullSchedResult sched = full_sched(g, m, kIterations, fold);
  return compile(lower(sched.schedule, g), g);
}

struct LoopCase {
  ExecutorPlan plan;
  ExecutionResult reference;
};

/// google-benchmark re-enters each benchmark function several times
/// (iteration-count estimation, --min-time); cache the compiled plan and
/// the sequential reference per loop so that setup runs once, not per
/// re-entry.  Benchmarks run sequentially, so no locking.
const LoopCase& cached_case(const std::string& name) {
  static std::map<std::string, LoopCase> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    const Ddg g = loop_by_name(name);
    KernelOptions kernel;
    kernel.work_per_cycle = kWorkPerCycle;
    LoopCase c{make_plan(g), run_reference(g, kIterations, kernel)};
    it = cache.emplace(name, std::move(c)).first;
  }
  return it->second;
}

void BM_Threaded(benchmark::State& state, const std::string& name) {
  const LoopCase& c = cached_case(name);
  const ExecutorPlan& plan = c.plan;
  KernelOptions kernel;
  kernel.work_per_cycle = kWorkPerCycle;
  const RunOptions opts{kernel};

  // Validate once per loop, outside the timed loop: the bench must not
  // record a number for a wrong execution.
  static std::set<std::string> validated;
  if (validated.find(name) == validated.end()) {
    if (!values_match(plan.run(kIterations, opts), c.reference,
                      kIterations)) {
      state.SkipWithError("threaded execution mismatched sequential");
      return;
    }
    validated.insert(name);
  }

  for (auto _ : state) {
    const ExecutionResult res = plan.run(kIterations, opts);
    benchmark::DoNotOptimize(res);
  }
  state.counters["threads"] =
      static_cast<double>(plan.program().threads.size());
  state.counters["channels"] =
      static_cast<double>(plan.program().channels.size());
  state.counters["slots"] = static_cast<double>(plan.program().total_slots());
  state.counters["slots_ssa"] =
      static_cast<double>(plan.program().total_slots_ssa());
}

void BM_NativePooled(benchmark::State& state, const std::string& name) {
  // The JIT's pool-dispatched path (the kernel's entries on a shared
  // WorkerPool) per workload.  Native kernels implement only the real
  // computation — no synthetic work_per_cycle — so this series is not
  // comparable to BM_Threaded above; it isolates the per-run dispatch +
  // compute floor the daemon pays for eligible warm traffic, per loop.
  if (!jit_available()) {
    state.SkipWithError(jit_unavailable_reason().c_str());
    return;
  }
  const ExecutorPlan& plan = cached_case(name).plan;
  static std::map<std::string, std::shared_ptr<const JitKernel>> kernels;
  auto it = kernels.find(name);
  if (it == kernels.end()) {
    it = kernels.emplace(name, jit_compile(plan)).first;
  }
  const JitKernel& kernel = *it->second;
  static WorkerPool pool;
  static std::set<std::string> validated;
  if (validated.find(name) == validated.end()) {
    if (!values_match(kernel.run_pooled(kIterations, &pool),
                      plan.run(kIterations), kIterations)) {
      state.SkipWithError("pooled native mismatched interpreted");
      return;
    }
    validated.insert(name);
  }
  for (auto _ : state) {
    const ExecutionResult res = kernel.run_pooled(kIterations, &pool);
    benchmark::DoNotOptimize(res);
  }
  state.counters["threads"] = static_cast<double>(kernel.threads());
}

void BM_Sequential(benchmark::State& state, const std::string& name) {
  const Ddg g = loop_by_name(name);
  KernelOptions kernel;
  kernel.work_per_cycle = kWorkPerCycle;
  for (auto _ : state) {
    const ExecutionResult res = run_reference(g, kIterations, kernel);
    benchmark::DoNotOptimize(res);
  }
}

const char* kLoops[] = {"fig7", "LL18", "LL20", "elliptic"};

[[maybe_unused]] const bool registered = [] {
  for (const char* loop : kLoops) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Sequential/") + loop).c_str(),
        [loop](benchmark::State& s) { BM_Sequential(s, loop); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_Threaded/") + loop).c_str(),
        [loop](benchmark::State& s) { BM_Threaded(s, loop); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_NativePooled/") + loop).c_str(),
        [loop](benchmark::State& s) { BM_NativePooled(s, loop); })
        ->Unit(benchmark::kMillisecond);
  }
  return true;
}();

}  // namespace
// main() comes from benchmark::benchmark_main (see bench/CMakeLists.txt);
// the static registrar above runs before it.
