#include <gtest/gtest.h>

#include "runtime/kernels.hpp"
#include "workloads/paper_examples.hpp"

namespace mimd {
namespace {

TEST(Kernels, InitialValuesAreDistinctPerNode) {
  EXPECT_NE(initial_value(0), initial_value(1));
  EXPECT_DOUBLE_EQ(initial_value(0), 0.5);
}

TEST(Kernels, SyntheticValueIsDeterministic) {
  const Ddg g = workloads::fig7_loop();
  const KernelOptions o;
  const std::vector<double> ops{1.0, 2.0};
  EXPECT_DOUBLE_EQ(synthetic_value(g, 0, 3, ops, o),
                   synthetic_value(g, 0, 3, ops, o));
}

TEST(Kernels, SyntheticValueDependsOnOperandOrder) {
  const Ddg g = workloads::fig7_loop();
  const KernelOptions o;
  EXPECT_NE(synthetic_value(g, 0, 0, {1.0, 2.0}, o),
            synthetic_value(g, 0, 0, {2.0, 1.0}, o));
}

TEST(Kernels, SyntheticValueStaysBounded) {
  const Ddg g = workloads::fig7_loop();
  const KernelOptions o;
  std::vector<double> ops{3.9, 3.9, 3.9};
  double v = 3.9;
  for (int i = 0; i < 1000; ++i) {
    v = synthetic_value(g, 1, i, {v, v}, o);
    EXPECT_LT(std::abs(v), 16.0);
  }
}

TEST(Kernels, WorkKnobDoesNotChangeValues) {
  const Ddg g = workloads::fig7_loop();
  KernelOptions fast, slow;
  slow.work_per_cycle = 100;
  const auto a = run_sequential(g, 20, fast);
  const auto b = run_sequential(g, 20, slow);
  EXPECT_EQ(a, b);
}

TEST(RunSequential, ShapesMatchGraphAndIterations) {
  const Ddg g = workloads::cytron86_loop();
  const auto out = run_sequential(g, 9);
  ASSERT_EQ(out.size(), g.num_nodes());
  for (std::size_t v = 0; v < out.size(); ++v) EXPECT_EQ(out[v].size(), 9u);
}

TEST(RunSequential, RecurrenceActuallyEvolves) {
  const Ddg g = workloads::fig7_loop();
  const auto out = run_sequential(g, 10);
  const NodeId a = *g.find("A");
  // A[i] = f(A[i-1], E[i-1]) is non-constant across iterations.
  EXPECT_NE(out[a][0], out[a][5]);
}

TEST(RunSequential, UsesInitialValuesBeforeIterationZero) {
  // Single self-recurrence node: first value folds initial_value(0).
  Ddg g;
  const NodeId x = g.add_node("X");
  g.add_edge(x, x, 1);
  const auto out = run_sequential(g, 2);
  const KernelOptions o;
  EXPECT_DOUBLE_EQ(out[x][0],
                   synthetic_value(g, x, 0, {initial_value(x)}, o));
  EXPECT_DOUBLE_EQ(out[x][1], synthetic_value(g, x, 1, {out[x][0]}, o));
}

TEST(RunSequential, ZeroIterations) {
  const Ddg g = workloads::fig7_loop();
  const auto out = run_sequential(g, 0);
  EXPECT_EQ(out.size(), g.num_nodes());
  EXPECT_TRUE(out[0].empty());
}

}  // namespace
}  // namespace mimd
