// ShardRouter suite: the consistent-hash ring's contracts (stability
// under fleet growth, same-hash-same-shard, full-coverage preference
// order), dead-shard failover against real in-process servers, and the
// fleet-level fuzz/differential test — >= 50 generated programs routed
// through a 3-shard fleet must be bit-identical to the in-process plan
// service and to sequential execution (the same three-way oracle
// test_plan_server.cpp applies to one daemon).
//
// Runs under TSan in CI: the router's per-shard threads, the servers'
// handler threads, and the shared cache/pool all race here if they can.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/plan_server.hpp"
#include "runtime/plan_service.hpp"
#include "runtime/shard_router.hpp"
#include "support/loop_gen.hpp"

namespace mimd {
namespace {

using testsupport::GeneratedLoop;
using testsupport::generate_loop;
using testsupport::renamed_copy;

std::string temp_socket(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  return dir + name + ".sock";
}

/// A small in-process fleet on per-test Unix sockets (the wire framing is
/// family-agnostic, so Unix shards exercise the router identically to TCP
/// ones without consuming ports).
struct TestFleet {
  std::vector<std::unique_ptr<PlanServer>> servers;
  std::vector<std::string> endpoints;

  explicit TestFleet(const std::string& name, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      PlanServerOptions opts;
      opts.socket_path = temp_socket(name + std::to_string(i));
      opts.remove_existing = true;
      servers.push_back(std::make_unique<PlanServer>(opts));
      servers.back()->start();
      endpoints.push_back(servers.back()->socket_path());
    }
  }
  ~TestFleet() {
    for (auto& s : servers) s->stop();
  }
};

ShardJob make_job(const GeneratedLoop& gl) {
  ShardJob job;
  job.program = gl.program;
  job.graph = gl.graph;
  job.iterations = 0;  // compiled count
  return job;
}

std::vector<std::string> fake_endpoints(std::size_t n) {
  std::vector<std::string> eps;
  for (std::size_t i = 0; i < n; ++i) {
    eps.push_back("10.0.0." + std::to_string(i + 1) + ":7070");
  }
  return eps;
}

// Adding one shard to an N-shard ring must remap only ~1/(N+1) of the
// keyspace — THE consistent-hashing property (naive modulo remaps
// (N-1)/N ≈ 80%).  Also pins rough load balance across shards.
TEST(ShardRouter, AddingAShardRemapsOnlyItsShareOfKeys) {
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kKeys = 20000;

  ShardRouterOptions small_opts;
  small_opts.endpoints = fake_endpoints(kShards);
  ShardRouter small(small_opts);
  ShardRouterOptions grown_opts;
  grown_opts.endpoints = fake_endpoints(kShards + 1);
  ShardRouter grown(grown_opts);

  std::vector<std::uint64_t> load(kShards, 0);
  std::uint64_t remapped = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t key = k * 0x9e3779b97f4a7c15ull;  // spread the keys
    const std::size_t before = small.shard_for(key);
    const std::size_t after = grown.shard_for(key);
    ++load[before];
    // Endpoint identity, not index, is what must be stable.
    if (small.endpoints()[before] != grown.endpoints()[after]) ++remapped;
  }
  const double frac = static_cast<double>(remapped) / kKeys;
  // Ideal is 1/5 = 0.20; vnode granularity wobbles it, catastrophic
  // rehash (0.8) or no-op rings (0.0) are what this bound excludes.
  EXPECT_GT(frac, 0.10) << "new shard got (almost) no keys";
  EXPECT_LT(frac, 0.35) << "adding one shard remapped far more than 1/N";

  const std::uint64_t max_load = *std::max_element(load.begin(), load.end());
  const std::uint64_t min_load = *std::min_element(load.begin(), load.end());
  EXPECT_GT(min_load, 0u);
  EXPECT_LT(static_cast<double>(max_load) * kShards,
            2.0 * static_cast<double>(kKeys))
      << "one shard owns more than 2x its fair share";
}

// Structurally identical programs (renamed copies included: names are
// excluded from structural_hash) must route to the same shard, on any
// router instance, regardless of endpoint-list order.
TEST(ShardRouter, SameStructureSameShardAcrossInstancesAndOrder) {
  ShardRouterOptions opts;
  opts.endpoints = fake_endpoints(3);
  ShardRouter a(opts);
  ShardRouterOptions reversed = opts;
  std::reverse(reversed.endpoints.begin(), reversed.endpoints.end());
  ShardRouter b(reversed);

  for (const std::uint64_t seed : {3u, 14u, 159u, 2653u}) {
    const GeneratedLoop gl = generate_loop(seed);
    const Ddg renamed = renamed_copy(gl.graph, "other_");
    const std::uint64_t k1 = ShardRouter::route_key(gl.program, gl.graph, {});
    const std::uint64_t k2 = ShardRouter::route_key(gl.program, renamed, {});
    EXPECT_EQ(k1, k2) << gl.tag << ": renamed copy hashed differently";
    EXPECT_EQ(a.shard_for(k1), a.shard_for(k2));
    EXPECT_EQ(a.endpoints()[a.shard_for(k1)], b.endpoints()[b.shard_for(k1)])
        << gl.tag << ": endpoint-list order changed the routing";
  }
}

TEST(ShardRouter, PreferenceOrderCoversEveryShardOnce) {
  ShardRouterOptions opts;
  opts.endpoints = fake_endpoints(5);
  ShardRouter router(opts);
  for (std::uint64_t key : {0ull, 1ull, 0xdeadbeefull, ~0ull}) {
    const std::vector<std::size_t> order = router.preference_order(key);
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order.front(), router.shard_for(key));
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
}

TEST(ShardRouter, RejectsEmptyFleet) {
  EXPECT_THROW(ShardRouter{ShardRouterOptions{}}, std::invalid_argument);
}

// A shard marked dead degrades to its consistent-hash successor instead
// of failing the batch, and results stay bit-exact.
TEST(ShardRouter, DeadShardFailsOverToSuccessor) {
  TestFleet fleet("sr_failover", 2);
  ShardRouterOptions opts;
  opts.endpoints = fleet.endpoints;
  opts.connect_attempts = 1;
  opts.dead_cooldown_ms = 60'000;  // stays dead for the whole test
  ShardRouter router(opts);

  std::vector<ShardJob> jobs;
  std::vector<GeneratedLoop> loops;
  for (std::uint64_t seed = 401; seed <= 408; ++seed) {
    loops.push_back(generate_loop(seed));
    jobs.push_back(make_job(loops.back()));
  }

  router.mark_dead(0);
  EXPECT_TRUE(router.is_dead(0));
  const std::vector<ExecutionResult> results = router.run_jobs(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(values_match(results[i],
                             run_reference(loops[i].graph, loops[i].iterations),
                             loops[i].iterations))
        << loops[i].tag;
  }
  // Every run landed on the one live shard.
  EXPECT_EQ(fleet.servers[1]->stats().runs_executed, jobs.size());
  EXPECT_EQ(fleet.servers[0]->stats().runs_executed, 0u);
}

// An endpoint that was NEVER reachable (connection refused at dial time)
// is the same failover event as a mid-conversation death.
TEST(ShardRouter, UnreachableEndpointDegradesNotFails) {
  TestFleet fleet("sr_unreach", 2);
  ShardRouterOptions opts;
  opts.endpoints = fleet.endpoints;
  opts.endpoints.push_back(temp_socket("sr_unreach_ghost"));  // nobody home
  opts.connect_attempts = 2;  // retry-with-backoff path, then declare dead
  opts.connect_backoff_initial_ms = 1;
  opts.dead_cooldown_ms = 60'000;
  ShardRouter router(opts);

  std::vector<ShardJob> jobs;
  std::vector<GeneratedLoop> loops;
  for (std::uint64_t seed = 421; seed <= 436; ++seed) {
    loops.push_back(generate_loop(seed));
    jobs.push_back(make_job(loops.back()));
  }
  const std::vector<ExecutionResult> results = router.run_jobs(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(values_match(results[i],
                             run_reference(loops[i].graph, loops[i].iterations),
                             loops[i].iterations))
        << loops[i].tag;
  }
  // The ghost shard ended up marked dead (if any key routed to it).
  const std::vector<ShardStatsRow> rows = router.fleet_stats();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0].alive);
  EXPECT_TRUE(rows[1].alive);
  EXPECT_FALSE(rows[2].alive);
}

TEST(ShardRouter, AllShardsDeadThrowsWireError) {
  TestFleet fleet("sr_alldead", 2);
  ShardRouterOptions opts;
  opts.endpoints = fleet.endpoints;
  opts.dead_cooldown_ms = 60'000;
  ShardRouter router(opts);
  router.mark_dead(0);
  router.mark_dead(1);
  const GeneratedLoop gl = generate_loop(440);
  EXPECT_THROW((void)router.run_jobs({make_job(gl)}),
               wire::WireError);
}

// JIT PR satellite: the router remembers which structures it already
// submitted on each connection (keyed by route_key), so repeat run_jobs
// calls reuse the daemon-side program ids — the fleet's registered-program
// counter must stay FLAT across the second call, not grow by jobs.size().
TEST(ShardRouter, RepeatRunJobsSkipSubmitProgram) {
  TestFleet fleet("sr_resubmit", 2);
  ShardRouterOptions opts;
  opts.endpoints = fleet.endpoints;
  ShardRouter router(opts);

  std::vector<GeneratedLoop> loops;
  std::vector<ShardJob> jobs;
  for (std::uint64_t seed = 461; seed <= 468; ++seed) {
    loops.push_back(generate_loop(seed));
    jobs.push_back(make_job(loops.back()));
  }

  const std::vector<ExecutionResult> first = router.run_jobs(jobs);
  std::uint64_t registered_after_first = 0;
  for (const ShardStatsRow& row : router.fleet_stats()) {
    ASSERT_TRUE(row.alive);
    registered_after_first += row.stats.programs_registered;
  }
  EXPECT_GT(registered_after_first, 0u);

  const std::vector<ExecutionResult> again = router.run_jobs(jobs);
  std::uint64_t registered_after_second = 0;
  for (const ShardStatsRow& row : router.fleet_stats()) {
    registered_after_second += row.stats.programs_registered;
  }
  EXPECT_EQ(registered_after_second, registered_after_first)
      << "repeat run_jobs re-submitted already-registered programs";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(values_match(again[i], first[i], loops[i].iterations))
        << loops[i].tag;
  }

  // A reconnect invalidates the cached ids (they are connection-scoped):
  // after burying a shard, rerouted jobs must submit fresh ids, not reuse
  // dead ones.
  router.mark_dead(0);
  const std::vector<ExecutionResult> rerouted = router.run_jobs(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(values_match(rerouted[i], first[i], loops[i].iterations))
        << loops[i].tag;
  }
}

// drop_program invalidates the router's submitted-id cache AND the
// shard's registry: the next run_jobs with the same structure re-submits
// cleanly (exactly one new registration), and results stay bit-exact.
TEST(ShardRouter, DropProgramInvalidatesTheSubmittedIdCache) {
  TestFleet fleet("sr_drop", 2);
  ShardRouterOptions opts;
  opts.endpoints = fleet.endpoints;
  ShardRouter router(opts);

  std::vector<GeneratedLoop> loops;
  std::vector<ShardJob> jobs;
  for (std::uint64_t seed = 471; seed <= 476; ++seed) {
    loops.push_back(generate_loop(seed));
    jobs.push_back(make_job(loops.back()));
  }
  const std::vector<ExecutionResult> first = router.run_jobs(jobs);

  const auto fleet_registered = [&router] {
    std::uint64_t total = 0;
    for (const ShardStatsRow& row : router.fleet_stats()) {
      total += row.stats.programs_registered;
    }
    return total;
  };
  const std::uint64_t before = fleet_registered();

  // Some shard held the program; after the drop, none does.
  EXPECT_TRUE(router.drop_program(loops[0].program, loops[0].graph));
  EXPECT_FALSE(router.drop_program(loops[0].program, loops[0].graph));

  // The rerun re-submits ONLY the dropped structure (the registration
  // counter is cumulative, so flat-plus-one is the exact signature) and
  // every result is still bit-identical.
  const std::vector<ExecutionResult> again = router.run_jobs(jobs);
  EXPECT_EQ(fleet_registered(), before + 1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(values_match(again[i], first[i], loops[i].iterations))
        << loops[i].tag;
  }
}

// The fleet acceptance test: >= 50 generated programs through 3 shards,
// bit-identical to the in-process plan service and to sequential.
TEST(ShardRouter, FuzzDifferentialFleetVsInProcessVsSequential) {
  constexpr std::uint64_t kPrograms = 50;
  TestFleet fleet("sr_fuzz", 3);
  ShardRouterOptions opts;
  opts.endpoints = fleet.endpoints;
  ShardRouter router(opts);

  std::vector<GeneratedLoop> loops;
  std::vector<ShardJob> shard_jobs;
  std::vector<BatchJob> local_jobs;
  for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
    loops.push_back(generate_loop(seed));
    shard_jobs.push_back(make_job(loops.back()));
    BatchJob job;
    job.program = loops.back().program;
    job.graph = loops.back().graph;
    job.iterations = 0;
    local_jobs.push_back(std::move(job));
  }

  const std::vector<ExecutionResult> via_fleet = router.run_jobs(shard_jobs);
  ASSERT_EQ(via_fleet.size(), loops.size());

  PlanCache cache(kPrograms + 8);
  WorkerPool pool;
  const BatchReport in_process = run_batch(local_jobs, cache, pool);
  ASSERT_EQ(in_process.results.size(), loops.size());

  for (std::size_t i = 0; i < loops.size(); ++i) {
    const GeneratedLoop& gl = loops[i];
    const ExecutionResult seq = run_reference(gl.graph, gl.iterations);
    EXPECT_TRUE(values_match(via_fleet[i], seq, gl.iterations))
        << gl.tag << ": fleet vs sequential";
    EXPECT_TRUE(values_match(via_fleet[i], in_process.results[i],
                             gl.iterations))
        << gl.tag << ": fleet vs in-process";
  }

  // Warm-cache preservation fleet-wide: every shard compiled each of ITS
  // structures exactly once, so fleet misses == distinct structures, and
  // rerunning the same jobs adds hits, not misses.
  std::set<std::uint64_t> distinct;
  for (const GeneratedLoop& gl : loops) {
    distinct.insert(ShardRouter::route_key(gl.program, gl.graph, {}));
  }
  std::uint64_t misses_before = 0;
  for (const ShardStatsRow& row : router.fleet_stats()) {
    ASSERT_TRUE(row.alive);
    misses_before += row.stats.cache.misses;
  }
  EXPECT_EQ(misses_before, distinct.size());

  // The rerun asks for pinning, so every shard runs it on a gang: the
  // first pass ran each program on one thread.  Both tiers must agree.
  for (ShardJob& job : shard_jobs) job.run_opts.pin_threads = true;
  const std::vector<ExecutionResult> again = router.run_jobs(shard_jobs);
  for (std::size_t i = 0; i < loops.size(); ++i) {
    EXPECT_TRUE(values_match(again[i], via_fleet[i], loops[i].iterations))
        << loops[i].tag << ": gang vs one-thread";
  }
  std::uint64_t misses_after = 0, runs_total = 0, one_thread = 0, gang = 0;
  for (const ShardStatsRow& row : router.fleet_stats()) {
    misses_after += row.stats.cache.misses;
    runs_total += row.stats.runs_executed;
    one_thread += row.stats.one_thread_runs;
    gang += row.stats.gang_runs;
  }
  EXPECT_EQ(misses_after, misses_before) << "re-routing caused recompiles";
  EXPECT_EQ(runs_total, 2 * kPrograms);
  EXPECT_EQ(one_thread, kPrograms);
  EXPECT_EQ(gang, kPrograms);
}

}  // namespace
}  // namespace mimd
