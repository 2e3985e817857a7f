// The value transport, microbenchmarked (google-benchmark).
//
// The paper's premise is that partitioned loops win only when
// cross-processor communication is cheap relative to compute; these
// benchmarks measure exactly the per-message overhead a channel adds, at
// the smallest payloads the runtime ever ships.  A channel is single-use
// (runtime/spsc_ring.hpp): a run builds it holding exactly the values it
// carries, so the two channel legs build a fresh one per batch of kBatch
// messages, outside the timed region:
//
//  * PerMessage_Spsc   — uncontended send+receive rounds on one thread:
//                        the pure bookkeeping cost of a message (one
//                        release-store, one acquire-load);
//  * Stream_Spsc       — a real producer thread streaming a batch through
//                        a channel to the consumer;
//  * Executor_Spsc     — the whole threaded runtime (a gang run) on fig7
//                        at work_per_cycle = 0 (the smallest kernel
//                        payload), with per-message cost reported;
//  * PlanCompile/Run   — what ExecutorPlan amortizes: compile() cost vs a
//                        reused plan's run() cost (the one-thread tier
//                        at these options).
//
// Run it with --benchmark_format=json --benchmark_out=<file> to keep a
// snapshot that tools/bench_diff.py can compare; EXPERIMENTS.md
// ("Transports") keeps the recorded numbers.
#include <benchmark/benchmark.h>

#include <thread>

#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/spsc_ring.hpp"
#include "schedule/cyclic_sched.hpp"
#include "workloads/paper_examples.hpp"

namespace {

using namespace mimd;

/// Messages per channel in the two channel legs.
constexpr std::int64_t kBatch = 8192;

// ---- Pure per-message overhead, uncontended. ----

void BM_PerMessage_Spsc(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SpscChannel c(kBatch);
    state.ResumeTiming();
    for (std::int64_t i = 0; i < kBatch; ++i) {
      c.send({i, 1.0});
      benchmark::DoNotOptimize(c.receive());
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_PerMessage_Spsc);

// ---- Cross-thread streaming through one channel. ----

void BM_Stream_Spsc(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SpscChannel c(kBatch);
    state.ResumeTiming();
    std::thread producer([&] {
      for (std::int64_t i = 0; i < kBatch; ++i) c.send({i, 0.5});
    });
    double sink = 0.0;
    for (std::int64_t i = 0; i < kBatch; ++i) sink += c.receive().value;
    producer.join();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_Stream_Spsc)->UseRealTime();

// ---- End-to-end runtime at the smallest kernel payload. ----

struct Fig7Plan {
  Ddg g = workloads::fig7_loop();
  std::int64_t n = 256;
  ExecutorPlan plan;
  std::int64_t messages = 0;

  Fig7Plan() {
    const Machine m{2, 2};
    const CyclicSchedResult r = cyclic_sched(g, m);
    plan = compile(lower(materialize(*r.pattern, m.processors, n), g), g);
    for (const ChannelDesc& c : plan.program().channels) {
      messages += c.messages;
    }
  }
};

Fig7Plan& fig7_plan() {
  static Fig7Plan p;
  return p;
}

void BM_Executor_Spsc(benchmark::State& state) {
  Fig7Plan& f = fig7_plan();
  for (auto _ : state) {
    // work_per_cycle = 0: messages are all that matters.
    benchmark::DoNotOptimize(f.plan.run_gang(f.n));
  }
  state.SetItemsProcessed(state.iterations() * f.messages);
  state.counters["msgs"] =
      benchmark::Counter(static_cast<double>(f.messages));
}
BENCHMARK(BM_Executor_Spsc)->UseRealTime()->Unit(benchmark::kMicrosecond);

// ---- What the plan split amortizes. ----

void BM_PlanCompile(benchmark::State& state) {
  Fig7Plan& f = fig7_plan();
  const Machine m{2, 2};
  const CyclicSchedResult r = cyclic_sched(f.g, m);
  const PartitionedProgram prog =
      lower(materialize(*r.pattern, m.processors, f.n), f.g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile(prog, f.g));
  }
}
BENCHMARK(BM_PlanCompile)->Unit(benchmark::kMicrosecond);

void BM_PlanRunReused(benchmark::State& state) {
  Fig7Plan& f = fig7_plan();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.plan.run(f.n));
  }
}
BENCHMARK(BM_PlanRunReused)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace
