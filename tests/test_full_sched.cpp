#include <gtest/gtest.h>

#include <set>

#include "schedule/full_sched.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"

namespace mimd {
namespace {

/// The schedule is the requested prefix of the whole graph's steady-state
/// pattern, whether or not the result carries that pattern.
void expect_prefix_of_pattern(const FullSchedResult& r, const Ddg& g,
                              const Machine& m) {
  EXPECT_EQ(r.schedule.placements(),
            materialize(steady_state_pattern(g, m), m.processors,
                        r.iterations)
                .placements());
}

TEST(FullSched, Fig7AllCyclicReachesSteadyThree) {
  const Ddg g = workloads::fig7_loop();
  const FullSchedResult r = full_sched(g, Machine{2, 2}, 40);
  expect_prefix_of_pattern(r, g, Machine{2, 2});
  EXPECT_NEAR(r.steady_ii, 3.0, 1e-9);
  EXPECT_EQ(r.flow_in_processors, 0);
  EXPECT_EQ(r.flow_out_processors, 0);
  EXPECT_EQ(find_dependence_violation(g, Machine{2, 2}, r.schedule),
            std::nullopt);
}

TEST(FullSched, CytronCombinedScheduleIsValidAndFast) {
  const Ddg g = workloads::cytron86_loop();
  const Machine m{8, 2};
  const FullSchedResult r = full_sched(g, m, 60);
  ASSERT_TRUE(r.pattern.has_value());
  // Flow-in pool: ceil(12 / 6) = 2 processors; Cyclic uses 2.
  EXPECT_EQ(r.flow_in_processors, 2);
  EXPECT_EQ(r.cyclic_processors, 2);
  EXPECT_EQ(r.flow_out_processors, 0);
  EXPECT_EQ(r.processors_used, 4);
  // The Flow-in pool keeps up: the combined steady state stays at the
  // Cyclic pattern's 6 cycles/iteration (the paper's Sp = 72.7%).
  EXPECT_NEAR(r.steady_ii, 6.0, 1e-9);
  EXPECT_EQ(find_dependence_violation(g, m, r.schedule), std::nullopt);
}

TEST(FullSched, CytronEveryInstanceScheduled) {
  const Ddg g = workloads::cytron86_loop();
  const FullSchedResult r = full_sched(g, Machine{8, 2}, 20);
  EXPECT_EQ(r.schedule.size(), g.num_nodes() * 20);
}

TEST(FullSched, EllipticFilterFoldsItsSingleFlowOutNode) {
  // The greedy Cyclic pattern spreads the filter's slack-rich side ops
  // over every processor, so no free pool remains for the lone Flow-out
  // node and the scheduler falls back to the Section-3 folding heuristic
  // — the right call for a loop that is Cyclic except for one node.
  const Ddg g = workloads::elliptic_filter_loop();
  const Machine m{8, 2};
  const FullSchedResult r = full_sched(g, m, 40);
  expect_prefix_of_pattern(r, g, m);
  EXPECT_EQ(r.flow_out_processors, 0);  // folded
  EXPECT_EQ(r.schedule.size(), g.num_nodes() * 40);
  EXPECT_EQ(find_dependence_violation(g, m, r.schedule), std::nullopt);
}

TEST(FullSched, FoldStrategySchedulesWholeGraphOnCyclicProcessors) {
  const Ddg g = workloads::cytron86_loop();
  const Machine m{8, 2};
  FullSchedOptions opts;
  opts.flow_strategy = FlowStrategy::Fold;
  const FullSchedResult r = full_sched(g, m, 40, opts);
  expect_prefix_of_pattern(r, g, m);
  EXPECT_EQ(r.flow_in_processors, 0);
  EXPECT_EQ(find_dependence_violation(g, m, r.schedule), std::nullopt);
  EXPECT_EQ(r.schedule.size(), g.num_nodes() * 40);
}

TEST(FullSched, FallsBackToFoldWhenProcessorsScarce) {
  // With only the processors the Cyclic pattern itself needs, the
  // Figure-5 pools cannot be formed; the scheduler must fold.
  const Ddg g = workloads::cytron86_loop();
  const Machine m{2, 2};
  const FullSchedResult r = full_sched(g, m, 30);
  EXPECT_EQ(r.flow_in_processors, 0);  // fold path taken
  EXPECT_EQ(find_dependence_violation(g, m, r.schedule), std::nullopt);
}

TEST(FullSched, DoallLoopRoundRobins) {
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B", 2);
  g.add_edge(a, b, 0);
  const Machine m{3, 1};
  const FullSchedResult r = full_sched(g, m, 30);
  EXPECT_TRUE(r.classification.is_doall());
  EXPECT_FALSE(r.pattern.has_value());
  EXPECT_EQ(r.schedule.size(), 60u);
  EXPECT_EQ(find_dependence_violation(g, m, r.schedule), std::nullopt);
  // Perfect 3-way split of a 3-cycle body: one iteration per cycle.
  EXPECT_NEAR(r.steady_ii, 1.0, 1e-9);
}

TEST(FullSched, SteadyIiNeverBeatsRecurrenceBound) {
  for (const auto& [name, g0] : workloads::livermore_suite()) {
    if (!g0.distances_normalized()) continue;  // LL6 handled via facade
    const FullSchedResult r = full_sched(g0, Machine{8, 2}, 48);
    EXPECT_GE(r.steady_ii + 1e-6,
              r.pattern.has_value() ? r.pattern->initiation_interval() : 0.0)
        << name;
  }
}

TEST(FullSched, MeasureSteadyIiOnKnownSchedule) {
  // Hand-built: one op per iteration, 4 cycles apart.
  Ddg g;
  g.add_node("A");
  Schedule s(1);
  for (std::int64_t i = 0; i < 10; ++i) s.place(Inst{0, i}, 0, i * 4, i * 4 + 1);
  EXPECT_NEAR(measure_steady_ii(s, 10), 4.0, 1e-9);
}

TEST(FullSched, MeasureSteadyIiExactOnStaircases) {
  // Batched completion (round-robin over 3 processors): completion jumps
  // by 9 every 3 iterations.  The two-endpoint slope would alias with the
  // batch phase; the periodic-tail detector must return exactly 3.
  Ddg g;
  g.add_node("A");
  Schedule s(3);
  for (std::int64_t i = 0; i < 30; ++i) {
    const std::int64_t batch = i / 3;
    s.place(Inst{0, i}, static_cast<int>(i % 3), batch * 9, batch * 9 + 9);
  }
  EXPECT_DOUBLE_EQ(measure_steady_ii(s, 30), 3.0);
}

TEST(FullSched, MeasureSteadyIiFallsBackOnAperiodicTails) {
  // Quadratically growing completion times have no periodic tail; the
  // endpoint slope is the documented fallback.
  Ddg g;
  g.add_node("A");
  Schedule s(1);
  std::int64_t t = 0;
  for (std::int64_t i = 0; i < 12; ++i) {
    s.place(Inst{0, i}, 0, t, t + 1);
    t += i + 1;
  }
  EXPECT_GT(measure_steady_ii(s, 12), 1.0);
}

TEST(FullSched, DoallWithForwardLcdStillSchedulesValidly) {
  // Loop-carried forward edge, no cycle: classified DOALL, but the
  // round-robin schedule must still honor the cross-iteration dependence.
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B", 2);
  g.add_edge(a, b, 1);
  const Machine m{4, 2};
  const FullSchedResult r = full_sched(g, m, 20);
  EXPECT_TRUE(r.classification.is_doall());
  EXPECT_EQ(find_dependence_violation(g, m, r.schedule), std::nullopt);
}

TEST(FullSched, RejectsZeroIterations) {
  EXPECT_THROW((void)full_sched(workloads::fig7_loop(), Machine{2, 2}, 0),
               ContractViolation);
}

TEST(FullSched, ProcessorsUsedCountsDistinctProcs) {
  const Ddg g = workloads::cytron86_loop();
  const FullSchedResult r = full_sched(g, Machine{8, 2}, 20);
  std::set<int> used;
  for (const Placement& p : r.schedule.placements()) used.insert(p.proc);
  EXPECT_EQ(r.processors_used, static_cast<int>(used.size()));
}

}  // namespace
}  // namespace mimd
