#include <gtest/gtest.h>

#include <cmath>

#include "baseline/doacross.hpp"
#include "baseline/sequential.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
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

}  // namespace
}  // namespace mimd
