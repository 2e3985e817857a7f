// The plan service, A/B-benchmarked (google-benchmark): what a "request"
// costs with and without the service's two amortizations.
//
// A request is "execute this partitioned loop for n iterations".  The
// naive server pays the full pipeline per request; the plan service pays
// it once per *structure*:
//
//  * Request_ColdCompileSpawn — compile(prog, g) + a run on a fresh
//                               WorkerPool (its threads spawned for the
//                               run and joined after it): the
//                               pre-service cost of every request;
//  * Request_CachedPooled     — PlanCache::get_or_compile + run() with
//                               a pool: the steady-state service cost
//                               (first iteration compiles, the rest hit;
//                               run() takes the one-thread tier, so the
//                               pool stays idle);
//  * Run_Spawn / Run_Pooled   — the pool's own contribution to a gang
//                               run, isolated (plan held constant, only
//                               the thread acquisition differs: a fresh
//                               pool per run vs one persistent pool);
//  * Run_OneThread            — the same plan round-robin on the calling
//                               thread, no pool at all;
//  * Run_PooledPinned         — affinity pinning on top of the pool
//                               (RunOptions::pin_threads; on one-core CI
//                               containers this measures overhead, not
//                               placement benefit);
//  * Batch_Throughput         — run_batch() end to end: 24 requests over
//                               3 distinct structures, 4 concurrent
//                               drivers, one cache + one pool;
//  * Fleet_Shards/1 vs /3     — the same batch routed by ShardRouter over
//                               1 vs 3 in-process PlanServers (Unix
//                               sockets).  Consistent hashing keeps the
//                               fleet-wide miss count at 1 per unique
//                               structure regardless of shard count — the
//                               fleet_misses counter pins that invariant
//                               while the timing shows what the extra
//                               shards cost/buy at this request size;
//  * Jit_VsInterpreted_*      — the JIT A/B: a procs x trip-count
//                               matrix over fig7, plus the six mixed-n
//                               structures at p = 2 (both sides compiled
//                               AT the benchmarked n, as parallelize()
//                               lowers it for mixed-n): ColdCompile is
//                               the one-time background cost of building
//                               the dlopen'd kernel, WarmNativePooled the
//                               steady-state native run on the shared
//                               pool (compile_seconds counter = the
//                               latency a background compile hides;
//                               run_overhead = the share of a call spent
//                               outside the kernel's gang),
//                               InterpretedPooled the interpreted plan on
//                               a gang of the shared pool, and
//                               InterpretedOneThread the same plan on the
//                               one-thread tier, which is what the daemon
//                               serves while the kernel is not published
//                               or has been dropped.
//
// The cold-vs-cached and pool-vs-spawn ratios live in EXPERIMENTS.md
// ("Plan service A/B"), the native-vs-interpreted ratio in "JIT A/B".
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "core/parallelizer.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/jit_compiler.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_server.hpp"
#include "runtime/plan_service.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/worker_pool.hpp"
#include "schedule/cyclic_sched.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"

namespace {

using namespace mimd;

/// Small-n fig7: the regime where per-request compile + spawn overhead
/// dominates actual execution — exactly what a plan service amortizes.
struct Fig7Request {
  Ddg g = workloads::fig7_loop();
  std::int64_t n = 24;
  PartitionedProgram prog;

  Fig7Request() {
    const Machine m{2, 2};
    const CyclicSchedResult r = cyclic_sched(g, m);
    prog = lower(materialize(*r.pattern, m.processors, n), g);
  }
};

Fig7Request& fig7_request() {
  static Fig7Request r;
  return r;
}

/// Run `plan` on threads spawned for this run alone: a fresh pool, joined
/// when it leaves scope.
ExecutionResult run_on_fresh_threads(const ExecutorPlan& plan,
                                     std::int64_t n) {
  WorkerPool pool;
  RunOptions opts;
  opts.pool = &pool;
  return plan.run_gang(n, opts);
}

void BM_Request_ColdCompileSpawn(benchmark::State& state) {
  Fig7Request& f = fig7_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_on_fresh_threads(compile(f.prog, f.g), f.n));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Request_ColdCompileSpawn)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Request_CachedPooled(benchmark::State& state) {
  Fig7Request& f = fig7_request();
  static PlanCache cache;
  static WorkerPool pool;
  RunOptions opts;
  opts.pool = &pool;
  for (auto _ : state) {
    const auto plan = cache.get_or_compile(f.prog, f.g);
    benchmark::DoNotOptimize(plan->run(f.n, opts));
  }
  state.SetItemsProcessed(state.iterations());
  const PlanCache::Stats s = cache.stats();
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(s.hits));
  state.counters["cache_misses"] =
      benchmark::Counter(static_cast<double>(s.misses));
}
BENCHMARK(BM_Request_CachedPooled)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// ---- The pool's contribution, isolated (plan construction excluded). ----

ExecutorPlan& fig7_plan() {
  static ExecutorPlan plan = [] {
    Fig7Request& f = fig7_request();
    return compile(f.prog, f.g);
  }();
  return plan;
}

void BM_Run_Spawn(benchmark::State& state) {
  const ExecutorPlan& plan = fig7_plan();
  Fig7Request& f = fig7_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_on_fresh_threads(plan, f.n));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Run_Spawn)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_Run_Pooled(benchmark::State& state) {
  const ExecutorPlan& plan = fig7_plan();
  Fig7Request& f = fig7_request();
  static WorkerPool pool;
  RunOptions opts;
  opts.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.run_gang(f.n, opts));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Run_Pooled)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_Run_OneThread(benchmark::State& state) {
  const ExecutorPlan& plan = fig7_plan();
  Fig7Request& f = fig7_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.run_one_thread(f.n));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Run_OneThread)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_Run_PooledPinned(benchmark::State& state) {
  const ExecutorPlan& plan = fig7_plan();
  Fig7Request& f = fig7_request();
  static WorkerPool pool;
  RunOptions opts;
  opts.pool = &pool;
  opts.pin_threads = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.run(f.n, opts));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["affinity"] =
      benchmark::Counter(affinity_supported() ? 1.0 : 0.0);
}
BENCHMARK(BM_Run_PooledPinned)->UseRealTime()->Unit(benchmark::kMicrosecond);

// ---- JIT A/B: native kernel vs interpreted plan, same request. ----

void BM_Jit_VsInterpreted_ColdCompile(benchmark::State& state) {
  if (!jit_available()) {
    state.SkipWithError(jit_unavailable_reason().c_str());
    return;
  }
  const ExecutorPlan& plan = fig7_plan();
  // Each iteration is a full emit + cc -shared + dlopen + handshake: the
  // price the background compiler thread pays once per structure.
  for (auto _ : state) {
    benchmark::DoNotOptimize(jit_compile(plan));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Jit_VsInterpreted_ColdCompile)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Both sides of the A/B are compiled AT the benchmarked trip count: a
// plan runs exactly the iteration count it was compiled for.  At small n
// per-run fixed costs dominate, so the two are comparable; at realistic
// trip counts the native steady-state loop pulls away from per-node
// interpretation — where the values do not cross processors every
// iteration.  Arg 0 picks the structure (0 fig7, 1 cytron86, 2 elliptic,
// 3 LL18, 4 LL6, 5 LL20, mixed-n's six), arg 1 is p, arg 2 the trip count;
// k = 1, lowered by parallelize() as mixed-n's client lowers it.
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

struct JitAbPair {
  ExecutorPlan plan;
  std::int64_t n = 0;  ///< the plan's compiled (normalized) trip count
  std::shared_ptr<const JitKernel> kernel;  // null when jit unavailable
  double compile_seconds = 0.0;
};

JitAbPair& jit_ab_pair(const benchmark::State& state) {
  // benchmarks run serially
  static std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>,
                  JitAbPair>
      pairs;
  const auto key = std::make_tuple(state.range(0), state.range(1),
                                   state.range(2));
  auto it = pairs.find(key);
  if (it == pairs.end()) {
    ParallelizeOptions popts;
    popts.machine = Machine{static_cast<int>(state.range(1)), 1};
    popts.iterations = state.range(2);
    popts.emit_code = false;
    const ParallelizeResult r =
        parallelize(hot_structure(state.range(0)), popts);
    JitAbPair ab;
    ab.plan = compile(r.program, r.normalized.graph);
    ab.n = r.normalized_iterations;
    if (jit_available()) {
      const auto t0 = std::chrono::steady_clock::now();
      ab.kernel = jit_compile(ab.plan);
      ab.compile_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
    it = pairs.emplace(key, std::move(ab)).first;
  }
  return it->second;
}

void jit_ab_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"structure", "procs", "n"});
  for (const std::int64_t procs : {1, 2}) {
    for (const std::int64_t n : {24, 4096}) b->Args({0, procs, n});
  }
  for (std::int64_t structure = 0; structure < 6; ++structure) {
    for (const std::int64_t n : {181, 2048}) b->Args({structure, 2, n});
  }
  b->UseRealTime()->Unit(benchmark::kMicrosecond);
}

void BM_Jit_VsInterpreted_WarmNativePooled(benchmark::State& state) {
  // The warm kernel dispatched onto the shared WorkerPool — zero
  // pthread_create per request, exactly how the daemon serves eligible
  // warm traffic.  Compare against InterpretedPooled (the --jit=off
  // steady state) at the same args.
  if (!jit_available()) {
    state.SkipWithError(jit_unavailable_reason().c_str());
    return;
  }
  const JitAbPair& ab = jit_ab_pair(state);
  static WorkerPool pool;
  double kernel_seconds = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const ExecutionResult res = ab.kernel->run_pooled(ab.n, &pool);
    kernel_seconds += res.wall_seconds;
    benchmark::DoNotOptimize(res);
  }
  const double call_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  state.SetItemsProcessed(state.iterations() * state.range(2));
  // The one-time latency the background thread hides from request paths.
  state.counters["compile_seconds"] = benchmark::Counter(ab.compile_seconds);
  // run_pooled's own cost around the gang: the result matrix, the
  // kernel context and the unpack into per-node rows.
  state.counters["run_overhead"] =
      benchmark::Counter(1.0 - kernel_seconds / call_seconds);
}
BENCHMARK(BM_Jit_VsInterpreted_WarmNativePooled)->Apply(jit_ab_args);

void BM_Jit_VsInterpreted_InterpretedPooled(benchmark::State& state) {
  // The interpreted plan on a gang of the shared pool: what a pinned or
  // per-op-work run costs.  The WarmNativePooled/this ratio is the
  // native kernel's gain over the interpreter on the same threads.
  const JitAbPair& ab = jit_ab_pair(state);
  static WorkerPool pool;
  RunOptions opts;
  opts.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ab.plan.run_gang(ab.n, opts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(2));
}
BENCHMARK(BM_Jit_VsInterpreted_InterpretedPooled)->Apply(jit_ab_args);

void BM_Jit_VsInterpreted_InterpretedOneThread(benchmark::State& state) {
  // The same plan round-robin on the calling thread: the --jit=off
  // steady state, and the bar a published kernel must clear
  // (PlanCache::record_native_run).  WarmNativePooled/this above 1 is a
  // kernel the daemon drops.
  const JitAbPair& ab = jit_ab_pair(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ab.plan.run_one_thread(ab.n));
  }
  state.SetItemsProcessed(state.iterations() * state.range(2));
}
BENCHMARK(BM_Jit_VsInterpreted_InterpretedOneThread)->Apply(jit_ab_args);

// ---- run_batch end to end. ----

void BM_Batch_Throughput(benchmark::State& state) {
  // 24 requests over 3 distinct structures — the shape of a service
  // replaying hot loops: first touch compiles, the rest hit the cache.
  static const std::vector<BatchJob> jobs = [] {
    std::vector<BatchJob> js;
    const Ddg fig7 = workloads::fig7_loop();
    const Ddg ll20 = workloads::ll20_discrete_ordinates();
    for (int copy = 0; copy < 8; ++copy) {
      for (const std::int64_t n : {16, 24}) {
        BatchJob j;
        const Machine m{2, 2};
        const CyclicSchedResult r = cyclic_sched(fig7, m);
        j.program = lower(materialize(*r.pattern, m.processors, n), fig7);
        j.graph = fig7;
        j.iterations = n;
        js.push_back(std::move(j));
      }
      BatchJob j;
      const Machine m{3, 2};
      const CyclicSchedResult r = cyclic_sched(ll20, m);
      j.program = lower(materialize(*r.pattern, m.processors, 18), ll20);
      j.graph = ll20;
      j.iterations = 18;
      js.push_back(std::move(j));
    }
    return js;
  }();

  static PlanCache cache;
  static WorkerPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batch(jobs, cache, pool, 4));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
  state.counters["jobs"] =
      benchmark::Counter(static_cast<double>(jobs.size()));
}
BENCHMARK(BM_Batch_Throughput)->UseRealTime()->Unit(benchmark::kMicrosecond);

// ---- Fleet A/B: the same batch over 1 vs 3 shards. ----

/// The Batch_Throughput job mix as ShardJobs: 24 requests, 3 unique
/// structures (fig7@16, fig7@24, ll20@18 — the iteration count is lowered
/// into the program, so it is part of the structure).
const std::vector<ShardJob>& fleet_jobs() {
  static const std::vector<ShardJob> jobs = [] {
    std::vector<ShardJob> js;
    const Ddg fig7 = workloads::fig7_loop();
    const Ddg ll20 = workloads::ll20_discrete_ordinates();
    for (int copy = 0; copy < 8; ++copy) {
      for (const std::int64_t n : {16, 24}) {
        ShardJob j;
        const Machine m{2, 2};
        const CyclicSchedResult r = cyclic_sched(fig7, m);
        j.program = lower(materialize(*r.pattern, m.processors, n), fig7);
        j.graph = fig7;
        j.iterations = n;
        js.push_back(std::move(j));
      }
      ShardJob j;
      const Machine m{3, 2};
      const CyclicSchedResult r = cyclic_sched(ll20, m);
      j.program = lower(materialize(*r.pattern, m.processors, 18), ll20);
      j.graph = ll20;
      j.iterations = 18;
      js.push_back(std::move(j));
    }
    return js;
  }();
  return jobs;
}

/// N in-process PlanServers on Unix sockets plus the router over them.
/// Members declared servers-then-router so teardown disconnects the
/// router's clients before the listeners go away.
struct BenchFleet {
  std::vector<std::unique_ptr<PlanServer>> servers;
  std::unique_ptr<ShardRouter> router;

  explicit BenchFleet(int shards) {
    ShardRouterOptions ropts;
    for (int i = 0; i < shards; ++i) {
      PlanServerOptions sopts;
      sopts.socket_path = "/tmp/mimd-bench-fleet-" + std::to_string(shards) +
                          "-" + std::to_string(i) + ".sock";
      sopts.remove_existing = true;
      // A warm-cache bench loop legitimately sustains far more than the
      // hostile-tenant defaults (10k frames/s, 4096 registered ids —
      // run_jobs re-submits every job, so the registry grows per
      // iteration); this measures routing cost, not quota behavior, so
      // both quotas are off.
      sopts.max_frames_per_second = 0;
      sopts.max_programs_per_connection = 0;
      servers.push_back(std::make_unique<PlanServer>(sopts));
      servers.back()->start();
      ropts.endpoints.push_back(servers.back()->socket_path());
    }
    router = std::make_unique<ShardRouter>(std::move(ropts));
  }
  ~BenchFleet() {
    router.reset();
    for (auto& s : servers) s->stop();
  }
};

void BM_Fleet_Shards(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  // One fleet per shard count, reused across google-benchmark's repeated
  // calls so the warm-cache regime dominates (first iteration compiles,
  // the rest hit — same as BM_Request_CachedPooled).
  static std::map<int, std::unique_ptr<BenchFleet>> fleets;
  std::unique_ptr<BenchFleet>& fleet = fleets[shards];
  if (!fleet) fleet = std::make_unique<BenchFleet>(shards);

  const std::vector<ShardJob>& jobs = fleet_jobs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet->router->run_jobs(jobs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));

  std::uint64_t hits = 0, misses = 0, alive = 0;
  for (const ShardStatsRow& row : fleet->router->fleet_stats()) {
    if (!row.alive) continue;
    ++alive;
    hits += row.stats.cache.hits;
    misses += row.stats.cache.misses;
  }
  // The invariant under test: misses stays at the unique-structure count
  // (3) for BOTH shard counts — sharding never re-compiles a structure.
  state.counters["fleet_misses"] =
      benchmark::Counter(static_cast<double>(misses));
  state.counters["fleet_hits"] = benchmark::Counter(static_cast<double>(hits));
  state.counters["shards_alive"] =
      benchmark::Counter(static_cast<double>(alive));
}
BENCHMARK(BM_Fleet_Shards)
    ->Arg(1)
    ->Arg(3)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
