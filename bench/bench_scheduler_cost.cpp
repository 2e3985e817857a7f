// Microbenchmarks of the compiler itself (google-benchmark):
//   * classification          — paper claims O(m)
//   * Cyclic-sched + pattern  — paper claims O(M*P*N^2) worst case, near
//                               O(N) pattern checks in practice
//   * window-based detection  — the paper's Section-2.3 device
//   * DOACROSS scheduling     — the baseline compiler
//   * full_sched                — the scheduling step of a plan-cache
//                               miss, on the structures the plan service
//                               serves and on two slow-to-settle loops
//   * parallelize               — the client's whole half of a mixed-n
//                               miss: normalize, full_sched, lower
//   * horizon-strand detection  — steady_state_pattern on the Cyclic
//                               subsets that settle only after thousands
//                               of iterations
//   * lower / validate / compile — the three O(n) steps between a
//                               schedule and a runnable plan, on the
//                               structures the plan service serves
//   * encode / decode / hash    — the per-op walks of a submit (the
//                               client's SubmitProgram encode, the
//                               server's decode, structural_hash) and the
//                               per-value walks of a run reply
// Scheduler sizes sweep the random-loop generator's node count; the
// partition benches sweep the trip count and report items = ops (values
// for the run-reply rows), so the rate column reads as items per second.
#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <string>

#include "baseline/doacross.hpp"
#include "classify/classify.hpp"
#include "core/parallelizer.hpp"
#include "ir/dependence.hpp"
#include "ir/ifconvert.hpp"
#include "ir/parser.hpp"
#include "opt/pipeline.hpp"
#include "partition/compiled_program.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/wire.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/full_sched.hpp"
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
BENCHMARK(BM_Materialize)->RangeMultiplier(4)->Range(16, 1024)->Arg(2048);

// ---- full_sched ----
// Arg 0 picks one of the six structures of perfbench's mixed-n workload
// (0 fig7, 1 cytron86, 2 elliptic, 3 LL18, 4 LL6, 5 LL20), normalized as
// parallelize() normalizes it; arg 1 is p, arg 2 the trip count; k = 1.

Ddg hot_structure(std::int64_t i) {
  switch (i) {
    case 0: return workloads::fig7_loop();
    case 1: return workloads::cytron86_loop();
    case 2: return workloads::elliptic_filter_loop();
    case 3: return workloads::livermore18_loop();
    case 4: return workloads::ll6_linear_recurrence();
    default: return workloads::ll20_discrete_ordinates();
  }
}

void BM_FullSched(benchmark::State& state) {
  const Unrolled u = normalize_distances(hot_structure(state.range(0)));
  const Machine m{static_cast<int>(state.range(1)), 1};
  const std::int64_t n = (state.range(2) + u.factor - 1) / u.factor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(full_sched(u.graph, m, n));
  }
}
BENCHMARK(BM_FullSched)
    ->ArgNames({"structure", "p", "n"})
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {2, 4}, {16, 64, 512, 2048}})
    ->Unit(benchmark::kMicrosecond);

/// The first O1 strand of tests/loops/pattern_horizon_<seed>.loop, as
/// mimdc schedules it; its Cyclic subset settles at p = 4 only after
/// 8213 (seed 707) or 10960 (seed 810) iterations.
Ddg horizon_strand(std::int64_t seed) {
  std::ifstream f(std::string(MIMD_TEST_LOOPS_DIR) + "/pattern_horizon_" +
                  std::to_string(seed) + ".loop");
  std::ostringstream source;
  source << f.rdbuf();
  const ir::Loop raw = ir::parse_loop(source.str());
  opt::OptOptions oopts;
  oopts.level = OptLevel::O1;
  const opt::PipelineResult o =
      opt::optimize(raw.has_control_flow() ? ir::if_convert(raw) : raw, oopts);
  return normalize_distances(ir::analyze_dependences(o.loops.front()).graph)
      .graph;
}

void BM_FullSchedHorizonStrand(benchmark::State& state) {
  const Ddg g = horizon_strand(state.range(0));
  const Machine m{4, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(full_sched(g, m, 64));
  }
}
BENCHMARK(BM_FullSchedHorizonStrand)
    ->ArgName("seed")
    ->Arg(707)
    ->Arg(810)
    ->Unit(benchmark::kMicrosecond);

/// Full pattern detection on the Cyclic subset of a horizon strand at
/// p = 4: 8214 (seed 707) or 10970 (seed 810) unwound iterations.
void BM_DetectHorizonStrand(benchmark::State& state) {
  const Ddg strand = horizon_strand(state.range(0));
  const Ddg sub = cyclic_subgraph(strand, classify(strand));
  const Machine m{4, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(steady_state_pattern(sub, m));
  }
}
BENCHMARK(BM_DetectHorizonStrand)
    ->ArgName("seed")
    ->Arg(707)
    ->Arg(810)
    ->Unit(benchmark::kMillisecond);

/// parallelize() as mixed-n's client calls it: the six structures (same
/// numbering as BM_FullSched), Machine{p, 1}, n original iterations, no
/// pseudo-code.
void BM_Parallelize(benchmark::State& state) {
  const Ddg g = hot_structure(state.range(0));
  ParallelizeOptions popts;
  popts.machine = Machine{static_cast<int>(state.range(1)), 1};
  popts.iterations = state.range(2);
  popts.emit_code = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallelize(g, popts));
  }
}
BENCHMARK(BM_Parallelize)
    ->ArgNames({"structure", "p", "n"})
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {2, 4}, {64, 512, 2048}})
    ->Unit(benchmark::kMicrosecond);

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

/// find_program_violation is compile_program's own check-and-compile walk
/// (it builds the compiled ops and drops them), so this row times that
/// shared walk without slot reuse.
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

/// The shared walk plus slot reuse: everything a submit miss compiles.
void BM_CompileProgram(benchmark::State& state) {
  const ParallelizeResult r = partition_input(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile_program(r.program, r.normalized.graph));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(r.program.total_ops()));
}
BENCHMARK(BM_CompileProgram)->Apply(partition_args);

// ---- the byte walks of a submit and of a run reply ----
// Same inputs as the partition rows; the run reply is the sequential
// reference's result for the program's n, the shape a Run returns.

void set_ops_processed(benchmark::State& state, const ParallelizeResult& r) {
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(r.program.total_ops()));
}

/// The client's SubmitProgram payload, encoded from its own program.
void BM_EncodeSubmit(benchmark::State& state) {
  const ParallelizeResult r = partition_input(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wire::encode_submit_program(r.program, r.normalized.graph, {}));
  }
  set_ops_processed(state, r);
}
BENCHMARK(BM_EncodeSubmit)->Apply(partition_args);

/// The server's decode of that payload.
void BM_DecodeSubmit(benchmark::State& state) {
  const ParallelizeResult r = partition_input(state);
  const std::vector<std::uint8_t> payload =
      wire::encode_submit_program(r.program, r.normalized.graph, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode_submit_program(payload));
  }
  set_ops_processed(state, r);
}
BENCHMARK(BM_DecodeSubmit)->Apply(partition_args);

/// The cache / shard key of the request, graph included.
void BM_StructuralHash(benchmark::State& state) {
  const ParallelizeResult r = partition_input(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(structural_hash(r.program, r.normalized.graph));
  }
  set_ops_processed(state, r);
}
BENCHMARK(BM_StructuralHash)->Apply(partition_args);

ExecutionResult run_reply_input(const ParallelizeResult& r) {
  return run_reference(r.normalized.graph, r.normalized_iterations);
}

void set_values_processed(benchmark::State& state, const ExecutionResult& res) {
  const auto values =
      static_cast<std::int64_t>(res.values.size() * res.values.row_length());
  state.SetItemsProcessed(state.iterations() * values);
}

/// The server's RunReply payload.
void BM_EncodeRunReply(benchmark::State& state) {
  const ExecutionResult res = run_reply_input(partition_input(state));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode_run_reply(res));
  }
  set_values_processed(state, res);
}
BENCHMARK(BM_EncodeRunReply)->Apply(partition_args);

/// The client's decode of that payload.
void BM_DecodeRunReply(benchmark::State& state) {
  const ExecutionResult res = run_reply_input(partition_input(state));
  const std::vector<std::uint8_t> payload = wire::encode_run_reply(res);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode_run_reply(payload));
  }
  set_values_processed(state, res);
}
BENCHMARK(BM_DecodeRunReply)->Apply(partition_args);

}  // namespace
