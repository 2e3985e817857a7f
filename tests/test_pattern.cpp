#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algorithms.hpp"
#include "graph/unwind.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/pattern.hpp"
#include "support/reference_schedule.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {
namespace {

Pattern detect(const Ddg& g, const Machine& m) {
  const CyclicSchedResult r = cyclic_sched(g, m);
  EXPECT_TRUE(r.pattern.has_value());
  return *r.pattern;
}

TEST(Pattern, InitiationIntervalAndHeight) {
  const Pattern p = detect(workloads::fig7_loop(), Machine{2, 2});
  EXPECT_GT(p.period_iters, 0);
  EXPECT_GT(p.period_cycles, 0);
  EXPECT_DOUBLE_EQ(p.initiation_interval(),
                   static_cast<double>(p.period_cycles) /
                       static_cast<double>(p.period_iters));
  EXPECT_EQ(p.height(), p.period_cycles);
}

TEST(Materialize, ZeroIterationsIsEmpty) {
  const Pattern p = detect(workloads::fig7_loop(), Machine{2, 2});
  EXPECT_EQ(materialize(p, 2, 0).size(), 0u);
}

TEST(Materialize, CoversEveryInstanceExactlyOnce) {
  const Ddg g = workloads::fig7_loop();
  const Pattern p = detect(g, Machine{2, 2});
  const Schedule s = materialize(p, 2, 17);
  EXPECT_EQ(s.size(), g.num_nodes() * 17);
  for (std::int64_t i = 0; i < 17; ++i) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_TRUE(s.contains(Inst{v, i})) << v << "@" << i;
    }
  }
}

TEST(Materialize, PerProcessorSequencesRepeatVerbatim) {
  // The defining property of the pattern (Figure 7(d)): each processor
  // repeats its own op sequence every period_cycles cycles.
  const Ddg g = workloads::fig7_loop();
  const Machine m{2, 2};
  const Pattern p = detect(g, m);
  const Schedule s = materialize(p, m.processors, 40);
  for (int q = 0; q < m.processors; ++q) {
    const auto ops = s.on_processor(q);
    // Find pairs (op, op shifted by one period) well inside the steady
    // state and check node/start agreement.
    for (const Placement& a : ops) {
      if (a.start < p.period_cycles * 2 || a.inst.iter + p.period_iters >= 35) {
        continue;
      }
      const auto b = s.lookup(Inst{a.inst.node, a.inst.iter + p.period_iters});
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(b->proc, a.proc);
      EXPECT_EQ(b->start, a.start + p.period_cycles);
    }
  }
}

TEST(Materialize, TruncationDropsOnlyHighIterations) {
  const Ddg g = workloads::fig7_loop();
  const Pattern p = detect(g, Machine{2, 2});
  const Schedule s10 = materialize(p, 2, 10);
  const Schedule s20 = materialize(p, 2, 20);
  // s10 is exactly s20 restricted to iterations < 10.
  for (const Placement& a : s10.placements()) {
    const auto b = s20.lookup(a.inst);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->start, a.start);
    EXPECT_EQ(b->proc, a.proc);
  }
}

// materialize merges per-processor timelines instead of sorting every
// placement; a timeline out of start order (possible only in a hand-built
// pattern) is sorted first, so the result still equals the sort-based
// expansion.
TEST(Materialize, KernelOutOfStartOrderMatchesTheSortBasedExpansion) {
  const Pattern detected = detect(workloads::fig7_loop(), Machine{2, 2});
  Pattern reversed = detected;  // each processor's kernel backwards
  std::reverse(reversed.kernel.begin(), reversed.kernel.end());
  std::reverse(reversed.prologue.begin(), reversed.prologue.end());
  for (const std::int64_t n : {0, 1, 7, 40}) {
    SCOPED_TRACE(n);
    const auto want = testsupport::reference_materialize(detected, 2, n);
    EXPECT_EQ(materialize(detected, 2, n).placements(), want.placements());
    EXPECT_EQ(materialize(reversed, 2, n).placements(), want.placements());
    EXPECT_EQ(testsupport::reference_materialize(reversed, 2, n).placements(),
              want.placements());
  }

  // A kernel longer than its period: on PE0 each repetition's second
  // placement starts after the next repetition's first, so the timeline
  // in expansion order is 0, 5, 3, 8, 6, ... and has to be sorted.
  Pattern overlapping;
  overlapping.kernel = {Placement{Inst{0, 0}, 0, 0, 1},
                        Placement{Inst{1, 0}, 0, 5, 6},
                        Placement{Inst{2, 0}, 1, 2, 4}};
  overlapping.period_iters = 1;
  overlapping.period_cycles = 3;
  const Schedule got = materialize(overlapping, 2, 4);
  EXPECT_EQ(got.placements(),
            testsupport::reference_materialize(overlapping, 2, 4).placements());
  std::vector<std::int64_t> pe0;
  for (const Placement& p : got.on_processor(0)) pe0.push_back(p.start);
  EXPECT_EQ(pe0, (std::vector<std::int64_t>{0, 3, 5, 6, 8, 9, 11, 14}));
}

TEST(PrefixSchedule, MergesTimelinesLikeTheSortBasedVersion) {
  const Ddg g = normalize_distances(workloads::elliptic_filter_loop()).graph;
  const CyclicSchedResult r = cyclic_sched(g, Machine{3, 1});
  std::vector<Placement> all = r.schedule.placements();
  for (const std::int64_t n : {1, 9, 64}) {
    EXPECT_EQ(prefix_schedule(all, 3, n).placements(),
              testsupport::reference_prefix_schedule(all, 3, n).placements());
  }
  std::reverse(all.begin(), all.end());  // every timeline backwards
  EXPECT_EQ(prefix_schedule(all, 3, 64).placements(),
            testsupport::reference_prefix_schedule(all, 3, 64).placements());
}

TEST(WindowDetector, AgreesWithStateSignatureDetector) {
  const Ddg g = workloads::fig7_loop();
  const Machine m{2, 2};
  const Pattern exact = detect(g, m);

  CyclicSchedOptions horizon;
  horizon.horizon_iterations = 60;
  const Schedule long_sched = cyclic_sched(g, m, horizon).schedule;
  const auto windowed =
      detect_pattern_window(long_sched, g, m.comm_estimate + 1);
  ASSERT_TRUE(windowed.has_value());
  EXPECT_DOUBLE_EQ(windowed->initiation_interval(),
                   exact.initiation_interval());
}

TEST(WindowDetector, WorksAcrossTheLivermoreSuite) {
  for (const auto& [name, g0] : workloads::livermore_suite()) {
    const Ddg g = normalize_distances(g0).graph;
    const Machine m{4, 2};
    CyclicSchedOptions horizon;
    horizon.horizon_iterations = 80;
    const Schedule s = cyclic_sched(g, m, horizon).schedule;
    const auto w = detect_pattern_window(s, g, m.comm_estimate + 1);
    ASSERT_TRUE(w.has_value()) << name;
    const Pattern exact = detect(g, m);
    EXPECT_DOUBLE_EQ(w->initiation_interval(), exact.initiation_interval())
        << name;
  }
}

TEST(WindowDetector, TooShortScheduleYieldsNothing) {
  const Ddg g = workloads::fig7_loop();
  CyclicSchedOptions horizon;
  horizon.horizon_iterations = 2;
  const Schedule s = cyclic_sched(g, Machine{2, 2}, horizon).schedule;
  EXPECT_FALSE(detect_pattern_window(s, g, 3).has_value());
}

TEST(RenderKernel, ShowsKernelBox) {
  const Ddg g = workloads::fig7_loop();
  const Pattern p = detect(g, Machine{2, 2});
  const std::string r = render_kernel(p, g, 2);
  EXPECT_NE(r.find("PE0"), std::string::npos);
  EXPECT_NE(r.find("@"), std::string::npos);
}

/// Property over random loops: the window detector (the paper's device)
/// and the exact detector agree on the steady-state rate.
class WindowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowProperty, DetectorsAgreeOnRate) {
  const Ddg g = workloads::random_connected_cyclic_loop(GetParam());
  const Machine m{8, 3};
  const Pattern exact = detect(g, m);

  CyclicSchedOptions horizon;
  // Long enough to contain several repetitions of the pattern.
  horizon.horizon_iterations = 80;
  const Schedule s = cyclic_sched(g, m, horizon).schedule;
  const auto w = detect_pattern_window(s, g, m.comm_estimate + 1);
  ASSERT_TRUE(w.has_value());
  EXPECT_NEAR(w->initiation_interval(), exact.initiation_interval(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace mimd
