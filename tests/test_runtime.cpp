#include <gtest/gtest.h>

#include <cmath>

#include "baseline/doacross.hpp"
#include "baseline/sequential.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/jit_compiler.hpp"
#include "runtime/wire.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/full_sched.hpp"
#include "support/loop_gen.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {
namespace {

/// The central runtime property: a partitioned execution computes
/// bit-identical values to the sequential reference, on one thread and
/// on a gang of real threads alike.
void expect_threaded_matches_sequential(const Ddg& g, const Machine& m,
                                        std::int64_t n) {
  const CyclicSchedResult r = cyclic_sched(g, m);
  ASSERT_TRUE(r.pattern.has_value());
  const Schedule s = materialize(*r.pattern, m.processors, n);
  const PartitionedProgram prog = lower(s, g);
  ASSERT_EQ(find_program_violation(prog, g), std::nullopt);

  const ExecutionResult threaded = run_threaded(prog, g, n);
  const auto reference = run_sequential(g, n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(threaded.values[v][static_cast<std::size_t>(i)],
                reference[v][static_cast<std::size_t>(i)])
          << g.node(v).name << "@" << i;
    }
  }
  EXPECT_EQ(testsupport::tiers_off_reference(compile(prog, g)), "");
}

TEST(Runtime, Fig7ThreadedMatchesSequential) {
  expect_threaded_matches_sequential(workloads::fig7_loop(), Machine{2, 2}, 50);
}

TEST(Runtime, Ll20ThreadedMatchesSequential) {
  expect_threaded_matches_sequential(workloads::ll20_discrete_ordinates(),
                                     Machine{3, 2}, 40);
}

TEST(Runtime, Livermore18ThreadedMatchesSequential) {
  expect_threaded_matches_sequential(workloads::livermore18_loop(),
                                     Machine{4, 2}, 30);
}

TEST(Runtime, FullScheduleWithFlowPoolsExecutesCorrectly) {
  const Ddg g = workloads::cytron86_loop();
  const Machine m{8, 2};
  const std::int64_t n = 24;
  const FullSchedResult r = full_sched(g, m, n);
  const PartitionedProgram prog = lower(r.schedule, g);
  EXPECT_EQ(testsupport::tiers_off_reference(compile(prog, g)), "");
  const ExecutionResult threaded = run_threaded(prog, g, n);
  const auto reference = run_sequential(g, n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(threaded.values[v][static_cast<std::size_t>(i)],
                reference[v][static_cast<std::size_t>(i)]);
    }
  }
}

TEST(Runtime, DoacrossProgramExecutesCorrectly) {
  const Ddg g = workloads::cytron86_loop();
  const Machine m{4, 2};
  const DoacrossResult doa = doacross(g, m, 16);
  EXPECT_EQ(testsupport::tiers_off_reference(compile(lower(doa.schedule, g), g)),
            "");
  const ExecutionResult threaded = run_threaded(lower(doa.schedule, g), g, 16);
  const auto reference = run_sequential(g, 16);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::int64_t i = 0; i < 16; ++i) {
      ASSERT_EQ(threaded.values[v][static_cast<std::size_t>(i)],
                reference[v][static_cast<std::size_t>(i)]);
    }
  }
}

class RuntimeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeProperty, RandomLoopsExecuteBitIdentically) {
  expect_threaded_matches_sequential(
      workloads::random_connected_cyclic_loop(GetParam()), Machine{4, 3}, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeProperty,
                         ::testing::Values(1, 2, 3, 6, 12, 19, 25));

TEST(Runtime, ReportsWallTime) {
  const Ddg g = workloads::fig7_loop();
  const ExecutionResult r = run_reference(g, 100);
  EXPECT_GE(r.wall_seconds, 0.0);
  EXPECT_EQ(r.values.size(), g.num_nodes());
}

TEST(Runtime, ZeroIterationsRunsCleanly) {
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram empty;
  empty.processors = 2;
  empty.programs.resize(2);
  empty.programs[0].proc = 0;
  empty.programs[1].proc = 1;
  const ExecutionResult r = run_threaded(empty, g, 0);
  EXPECT_EQ(r.values.size(), g.num_nodes());
}

/// `r` holds one row-major nodes x n block: row v starts v * n cells
/// after row 0 and is n cells long.
void expect_one_block(const ExecutionResult& r, std::size_t nodes,
                      std::size_t n, const std::string& what) {
  ASSERT_EQ(r.values.size(), nodes) << what;
  for (std::size_t v = 0; v < nodes; ++v) {
    EXPECT_EQ(r.values[v].data(), r.values[0].data() + v * n)
        << what << ", row " << v;
    EXPECT_EQ(r.values[v].size(), n) << what << ", row " << v;
  }
}

TEST(Runtime, EveryTierWritesOneRowMajorBlock) {
  const testsupport::HotProgram hp =
      testsupport::hot_program(workloads::cytron86_loop(), 2, 64);
  const ExecutorPlan plan = compile(hp.program, hp.graph);
  const std::int64_t n = plan.program().iterations;
  const std::size_t nodes = plan.graph().num_nodes();
  const auto cells = static_cast<std::size_t>(n);
  expect_one_block(plan.run_one_thread(n), nodes, cells, "one-thread run");
  expect_one_block(plan.run_gang(n), nodes, cells, "gang run");
  expect_one_block(run_reference(plan.graph(), n), nodes, cells,
                   "run_reference");
  expect_one_block(
      wire::decode_run_reply(wire::encode_run_reply(plan.run(n))), nodes,
      cells, "decoded reply");
  if (!jit_available()) {
    GTEST_SKIP() << "native run not checked, jit unavailable: "
                 << jit_unavailable_reason();
  }
  expect_one_block(jit_compile(plan, JitOptions{})->run_pooled(n, nullptr),
                   nodes, cells, "native run");
}

}  // namespace
}  // namespace mimd
