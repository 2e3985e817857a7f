// Microbenchmarks of the compiler itself (google-benchmark):
//   * classification          — paper claims O(m)
//   * Cyclic-sched + pattern  — paper claims O(M*P*N^2) worst case, near
//                               O(N) pattern checks in practice
//   * window-based detection  — the paper's Section-2.3 device
//   * DOACROSS scheduling     — the baseline compiler
//   * lower / validate / compile — the three O(n) steps between a
//                               schedule and a runnable plan, on the
//                               structures the plan service serves
// Scheduler sizes sweep the random-loop generator's node count; the
// partition benches sweep the trip count and report items = ops, so the
// rate column reads as ops per second.
#include <benchmark/benchmark.h>

#include "baseline/doacross.hpp"
#include "classify/classify.hpp"
#include "core/parallelizer.hpp"
#include "partition/compiled_program.hpp"
#include "partition/lowering.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/pattern.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace mimd;

workloads::RandomLoopSpec spec_for(std::int64_t nodes) {
  workloads::RandomLoopSpec spec;
  spec.nodes = static_cast<std::size_t>(nodes);
  spec.loop_carried = spec.nodes / 2;
  spec.simple = spec.nodes / 2;
  return spec;
}

void BM_Classification(benchmark::State& state) {
  const Ddg g = workloads::random_loop(1, spec_for(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Classification)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_CyclicSchedWithPatternDetection(benchmark::State& state) {
  const Ddg g = workloads::random_connected_cyclic_loop(2, spec_for(state.range(0)));
  const Machine m{8, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cyclic_sched(g, m));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CyclicSchedWithPatternDetection)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->Complexity();

void BM_WindowPatternDetection(benchmark::State& state) {
  const Ddg g = workloads::random_connected_cyclic_loop(3, spec_for(state.range(0)));
  const Machine m{8, 3};
  CyclicSchedOptions horizon;
  horizon.horizon_iterations = 40;
  const Schedule s = cyclic_sched(g, m, horizon).schedule;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_pattern_window(s, g, m.comm_estimate + 1));
  }
}
BENCHMARK(BM_WindowPatternDetection)->RangeMultiplier(2)->Range(16, 64);

void BM_Doacross(benchmark::State& state) {
  const Ddg g = workloads::random_connected_cyclic_loop(4, spec_for(state.range(0)));
  const Machine m{8, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(doacross(g, m, 64));
  }
}
BENCHMARK(BM_Doacross)->RangeMultiplier(2)->Range(16, 128);

void BM_Materialize(benchmark::State& state) {
  const Ddg g = workloads::random_connected_cyclic_loop(5);
  const Machine m{8, 3};
  const CyclicSchedResult r = cyclic_sched(g, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        materialize(*r.pattern, m.processors, state.range(0)));
  }
}
BENCHMARK(BM_Materialize)->RangeMultiplier(4)->Range(16, 1024);

// ---- lower -> find_program_violation -> compile_program ----
// Arg 0 picks the structure (0 fig7, 1 elliptic, 2 LL18), arg 1 is n;
// p = 2, k = 1, as the plan service's mixed-n traffic sends them.

ParallelizeResult partition_input(const benchmark::State& state) {
  const Ddg g = state.range(0) == 0   ? workloads::fig7_loop()
                : state.range(0) == 1 ? workloads::elliptic_filter_loop()
                                      : workloads::livermore18_loop();
  ParallelizeOptions popts;
  popts.machine = Machine{2, 1};
  popts.iterations = state.range(1);
  popts.emit_code = false;
  return parallelize(g, popts);
}

void partition_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"structure", "n"});
  for (const std::int64_t structure : {0, 1, 2}) {
    for (const std::int64_t n : {64, 512, 2048}) b->Args({structure, n});
  }
  b->Unit(benchmark::kMicrosecond);
}

void BM_Lower(benchmark::State& state) {
  const ParallelizeResult r = partition_input(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lower(r.sched.schedule, r.normalized.graph));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(r.program.total_ops()));
}
BENCHMARK(BM_Lower)->Apply(partition_args);

void BM_ValidateProgram(benchmark::State& state) {
  const ParallelizeResult r = partition_input(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        find_program_violation(r.program, r.normalized.graph));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(r.program.total_ops()));
}
BENCHMARK(BM_ValidateProgram)->Apply(partition_args);

/// compile_program includes its own validation pass.
void BM_CompileProgram(benchmark::State& state) {
  const ParallelizeResult r = partition_input(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile_program(r.program, r.normalized.graph));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(r.program.total_ops()));
}
BENCHMARK(BM_CompileProgram)->Apply(partition_args);

}  // namespace
