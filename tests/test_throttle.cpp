// The iteration-lead throttle (CyclicSchedOptions::lead_window): the
// repository's documented deviation from the paper, required so Theorem 1
// holds on connected graphs whose recurrences are coupled only by forward
// dependences (DESIGN.md, "Core algorithm notes").
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "schedule/cyclic_sched.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {
namespace {

/// A fast recurrence (ratio 2) feeding a slow one (ratio 6) through a
/// forward edge only: pure greedy lets the fast half run ahead without
/// bound — no global pattern without the throttle.
Ddg forward_coupled_loop() {
  Ddg g;
  const NodeId f = g.add_node("fast", 2);
  g.add_edge(f, f, 1);
  const NodeId a = g.add_node("a", 3);
  const NodeId b = g.add_node("b", 3);
  g.add_edge(a, b, 0);
  g.add_edge(b, a, 1);
  g.add_edge(f, a, 0);  // the one-way coupling
  return g;
}

TEST(Throttle, ForwardCoupledLoopConvergesWithDefaultWindow) {
  const CyclicSchedResult r =
      cyclic_sched(forward_coupled_loop(), Machine{4, 2});
  ASSERT_TRUE(r.pattern.has_value());
  // The binding recurrence has ratio 6; the throttle must not slow it.
  EXPECT_NEAR(r.pattern->initiation_interval(), 6.0, 1e-9);
}

TEST(Throttle, LeadStaysBoundedInTheSchedule) {
  const Ddg g = forward_coupled_loop();
  CyclicSchedOptions opts;
  opts.horizon_iterations = 60;
  const Schedule s = cyclic_sched(g, Machine{4, 2}, opts).schedule;
  // The fast node's start may lead the slow node of the same iteration by
  // at most (window * slow rate) cycles; in particular it may not sit at
  // a constant small time while iterations grow.
  const NodeId f = *g.find("fast");
  const NodeId b = *g.find("b");
  for (std::int64_t i = 40; i < 50; ++i) {
    const auto pf = s.lookup(Inst{f, i});
    const auto pb = s.lookup(Inst{b, i});
    ASSERT_TRUE(pf.has_value() && pb.has_value());
    EXPECT_LE(pb->start - pf->start, 6 * (2 * (11 + 3 * 3) + 16));
  }
}

TEST(Throttle, ExplicitWindowIsHonoredAndStillValid) {
  const Ddg g = forward_coupled_loop();
  CyclicSchedOptions opts;
  opts.lead_window = 3;  // very tight
  const CyclicSchedResult r = cyclic_sched(g, Machine{4, 2}, opts);
  ASSERT_TRUE(r.pattern.has_value());
  const Schedule s = materialize(*r.pattern, 4, 30);
  EXPECT_EQ(find_dependence_violation(g, Machine{4, 2}, s), std::nullopt);
  // A tight window caps the fast node's lead at ~3 iterations.
  const NodeId f = *g.find("fast");
  for (std::int64_t i = 10; i < 25; ++i) {
    const auto pf = s.lookup(Inst{f, i + 4});
    const auto done_i = s.lookup(Inst{*g.find("b"), i});
    ASSERT_TRUE(pf.has_value() && done_i.has_value());
    // fast@(i+4) must start at or after iteration i+1 completed, which is
    // at or after iteration i completed.
    EXPECT_GE(pf->start, done_i->finish - 6);  // within one period of it
  }
}

TEST(Throttle, DoesNotSlowTightPaperLoops) {
  // On tightly coupled loops the throttle window exceeds the schedule
  // span, so results are identical with and without an explicit window.
  // 4096 is orders of magnitude beyond fig7's span (~50 cycles) while
  // staying below max_iterations — a window >= the detection bound can
  // never activate, which suppresses pattern detection on rooted graphs
  // (see CyclicSchedOptions::lead_window).  The original 1 << 20 hit
  // exactly that: no pattern, and the unchecked optional dereference was
  // undefined behavior that happened to read a plausible stale Pattern
  // in release builds (caught by the ASan/Debug CI job).
  const Ddg g = workloads::fig7_loop();
  CyclicSchedOptions wide;
  wide.lead_window = 4096;
  const CyclicSchedResult def = cyclic_sched(g, Machine{2, 2});
  const CyclicSchedResult w = cyclic_sched(g, Machine{2, 2}, wide);
  ASSERT_TRUE(def.pattern.has_value());
  ASSERT_TRUE(w.pattern.has_value());
  EXPECT_DOUBLE_EQ(def.pattern->initiation_interval(), 3.0);
  EXPECT_DOUBLE_EQ(w.pattern->initiation_interval(), 3.0);
}

TEST(Throttle, WindowBeyondTheDetectionBoundFindsNoPatternOnRootedGraphs) {
  // Pins the limitation the test above works around: an explicit window
  // >= max_iterations never activates, the signature offsets of a graph
  // with root nodes never clamp, and detection exhausts its bound.  The
  // result is a clean "no pattern", not a bogus one.  An explicit bound
  // below the default keeps the exhaustion cheap.
  const Ddg g = workloads::fig7_loop();
  CyclicSchedOptions huge;
  huge.max_iterations = 8192;
  huge.lead_window = 1 << 20;
  const CyclicSchedResult r = cyclic_sched(g, Machine{2, 2}, huge);
  EXPECT_FALSE(r.pattern.has_value());
}

TEST(Throttle, TightWindowNeverBreaksDependenceValidity) {
  for (const std::uint64_t seed : {1, 3, 5}) {
    const Ddg g = workloads::random_connected_cyclic_loop(seed);
    CyclicSchedOptions opts;
    opts.lead_window = 2;
    const Machine m{8, 3};
    const CyclicSchedResult r = cyclic_sched(g, m, opts);
    ASSERT_TRUE(r.pattern.has_value()) << seed;
    EXPECT_EQ(find_dependence_violation(g, m,
                                        materialize(*r.pattern, 8, 25)),
              std::nullopt)
        << seed;
  }
}

TEST(Throttle, TighterWindowNeverImprovesTheRate) {
  const Ddg g = forward_coupled_loop();
  CyclicSchedOptions tight, loose;
  tight.lead_window = 2;
  loose.lead_window = 64;
  const double ii_tight =
      cyclic_sched(g, Machine{4, 2}, tight).pattern->initiation_interval();
  const double ii_loose =
      cyclic_sched(g, Machine{4, 2}, loose).pattern->initiation_interval();
  EXPECT_GE(ii_tight + 1e-9, ii_loose);
}

}  // namespace
}  // namespace mimd
