#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/mimd.hpp"
#include "ir/dependence.hpp"
#include "ir/ifconvert.hpp"
#include "ir/parser.hpp"
#include "opt/pipeline.hpp"
#include "runtime/executor.hpp"
#include "support/loop_gen.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"

namespace mimd {
namespace {

TEST(Parallelizer, Fig7EndToEnd) {
  ParallelizeOptions opts;
  opts.machine = Machine{2, 2};
  opts.iterations = 50;
  const ParallelizeResult r = parallelize(workloads::fig7_loop(), opts);
  EXPECT_EQ(r.normalized.factor, 1);
  EXPECT_NEAR(r.cycles_per_iteration, 3.0, 1e-9);
  EXPECT_NEAR(r.percentage_parallelism, 40.0, 1e-6);
  EXPECT_NE(r.parbegin_code.find("PARBEGIN"), std::string::npos);
  EXPECT_GT(r.program.total_ops(), 0u);
}

TEST(Parallelizer, Ll6UnrollsDistanceTwoAutomatically) {
  const Ddg g = workloads::ll6_linear_recurrence();
  ParallelizeOptions opts;
  opts.machine = Machine{4, 1};
  opts.iterations = 40;
  const ParallelizeResult r = parallelize(g, opts);
  EXPECT_EQ(r.normalized.factor, 2);
  EXPECT_EQ(r.normalized_iterations, 20);
  EXPECT_TRUE(r.normalized.graph.distances_normalized());
  // Two original iterations complete per normalized iteration, so the
  // per-original-iteration rate is steady_ii / 2.
  EXPECT_NEAR(r.cycles_per_iteration, r.sched.steady_ii / 2.0, 1e-9);
}

TEST(Parallelizer, ProgramIsWellFormed) {
  ParallelizeOptions opts;
  opts.machine = Machine{8, 2};
  opts.iterations = 24;
  const ParallelizeResult r = parallelize(workloads::cytron86_loop(), opts);
  EXPECT_EQ(find_program_violation(r.program, r.normalized.graph),
            std::nullopt);
}

TEST(Parallelizer, CodeEmissionCanBeDisabled) {
  ParallelizeOptions opts;
  opts.machine = Machine{2, 2};
  opts.iterations = 10;
  opts.emit_code = false;
  const ParallelizeResult r = parallelize(workloads::fig7_loop(), opts);
  EXPECT_TRUE(r.parbegin_code.empty());
}

TEST(Parallelizer, SourceTextToParallelLoop) {
  // The full front-to-back pipeline: parse -> if-convert -> dependences ->
  // classify/schedule/partition.
  const ir::Loop loop = ir::if_convert(ir::parse_loop(R"(
for i:
  S[i] = S[i-1] + X[i]
  if S[i] > 10 {
    T[i] = S[i] * 2
  }
)"));
  const ir::DependenceResult dep = ir::analyze_dependences(loop);
  ParallelizeOptions opts;
  opts.machine = Machine{2, 1};
  opts.iterations = 30;
  const ParallelizeResult r = parallelize(dep.graph, opts);
  EXPECT_GT(r.percentage_parallelism, -1e12);  // well-defined
  EXPECT_EQ(find_dependence_violation(dep.graph, opts.machine,
                                      r.sched.schedule),
            std::nullopt);
}

TEST(Parallelizer, RejectsNonPositiveIterations) {
  ParallelizeOptions opts;
  opts.iterations = 0;
  EXPECT_THROW((void)parallelize(workloads::fig7_loop(), opts),
               ContractViolation);
}

// A recurrence whose only carried distance is 2: normalize_distances
// unrolls x2 and the even and odd chains never exchange a value, so the
// cyclic scheduler's connected-graph precondition cannot hold.  The pin:
// that surfaces as a typed ParitySplitError naming the unroll factor and
// the residue classes, not as a bare scheduler contract trip.
TEST(Parallelizer, DistanceTwoOnlyRecurrenceRaisesParitySplitError) {
  Ddg g;
  const NodeId a = g.add_node("A", 2);
  const NodeId c = g.add_node("C", 1);
  g.add_edge(a, a, 2);  // A[i] = f(A[i-2]) — no distance-1 term anywhere
  g.add_edge(a, c, 1);  // C[i] = g(A[i-1]) keeps the original connected
  ParallelizeOptions opts;
  opts.machine = Machine{2, 1};
  opts.iterations = 20;
  try {
    (void)parallelize(g, opts);
    FAIL() << "distance-2-only recurrence was scheduled";
  } catch (const ParitySplitError& e) {
    EXPECT_EQ(e.factor(), 2);
    EXPECT_EQ(e.components(), 2u);
    const std::string what = e.what();
    EXPECT_NE(what.find("unwinding by 2"), std::string::npos) << what;
    EXPECT_NE(what.find("residue class"), std::string::npos) << what;
    EXPECT_NE(what.find("{0}"), std::string::npos) << what;
    EXPECT_NE(what.find("{1}"), std::string::npos) << what;
  }
}

// Coprime distances must keep scheduling: {1,2} has gcd 1, and LL6-style
// graphs unroll x2 into one connected component (pinned above in
// Ll6UnrollsDistanceTwoAutomatically).  A distance-3-only self-dep splits
// three ways.
TEST(Parallelizer, DistanceThreeOnlySplitsThreeWays) {
  Ddg g;
  const NodeId a = g.add_node("A", 2);
  g.add_edge(a, a, 3);
  ParallelizeOptions opts;
  opts.machine = Machine{2, 1};
  opts.iterations = 21;
  try {
    (void)parallelize(g, opts);
    FAIL() << "distance-3-only recurrence was scheduled";
  } catch (const ParitySplitError& e) {
    EXPECT_EQ(e.factor(), 3);
    EXPECT_EQ(e.components(), 3u);
  }
}

// Fuzz coverage for the diagnostic: with allow_parity_splits the IR
// generator may emit distance-2-only base recurrences (the shape it
// historically avoided).  Every generated program must either schedule or
// raise the typed error — never trip a raw scheduler contract — and the
// opt-in must actually produce the shape across the seed range.
TEST(Parallelizer, ParitySplitFuzzRaisesTypedErrorsOnly) {
  testsupport::IrLoopGenOptions gopts;
  gopts.allow_parity_splits = true;
  ParallelizeOptions popts;
  popts.machine = Machine{2, 1};
  popts.iterations = 12;
  popts.emit_code = false;
  int splits = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const testsupport::GeneratedIrLoop gen =
        testsupport::random_ir_loop(seed, gopts);
    SCOPED_TRACE(gen.tag + "\n" + gen.source);
    const ir::Loop loop = [&] {
      const ir::Loop raw = ir::parse_loop(gen.source);
      return raw.has_control_flow() ? ir::if_convert(raw) : raw;
    }();
    // Fission first so multi-strand programs don't trip the scheduler for
    // the unrelated independent-recurrences reason; each post-fission
    // strand is connected, so the only legitimate rejection left is the
    // parity split.
    for (const ir::Loop& strand : opt::optimize(loop).loops) {
      try {
        (void)parallelize(ir::analyze_dependences(strand).graph, popts);
      } catch (const ParitySplitError& e) {
        EXPECT_GE(e.factor(), 2);
        EXPECT_GE(e.components(), 2u);
        ++splits;
      }
    }
  }
  EXPECT_GE(splits, 1) << "opt-in never produced a parity split";
}

/// A .loop file from tests/loops/, parsed, if-converted and run through
/// the O1 mid-end (fission included): the strands parallelize() sees.
std::vector<ir::Loop> o1_strands_of(const std::string& file) {
  std::ifstream f(std::string(MIMD_TEST_LOOPS_DIR) + "/" + file);
  EXPECT_TRUE(f.good()) << file;
  std::ostringstream source;
  source << f.rdbuf();
  const ir::Loop raw = ir::parse_loop(source.str());
  opt::OptOptions oopts;
  oopts.level = OptLevel::O1;
  return opt::optimize(raw.has_control_flow() ? ir::if_convert(raw) : raw,
                       oopts)
      .loops;
}

ParallelizeOptions p4_options() {
  ParallelizeOptions opts;
  opts.machine = Machine{4, 1};
  opts.iterations = 64;
  opts.emit_code = false;
  return opts;
}

/// The Cyclic subgraph of a normalized strand graph.
Ddg cyclic_part(const Ddg& g) { return cyclic_subgraph(g, classify(g)); }

// Two generated loops (perfbench cold-compile, seeds 707 and 810) whose
// first strand's Cyclic subset settles at p = 4 only after 8213 and 10960
// unwound iterations — past the old 8192 detection bound, where
// parallelize() tripped a contract.  At the default bound every strand's
// Cyclic subset settles, and every strand schedules and runs
// bit-identical to sequential.
TEST(Parallelizer, LoopsPastTheOldDetectionBoundScheduleAtP4) {
  const ParallelizeOptions opts = p4_options();
  for (const char* file :
       {"pattern_horizon_707.loop", "pattern_horizon_810.loop"}) {
    for (const ir::Loop& strand : o1_strands_of(file)) {
      const ParallelizeResult r =
          parallelize(ir::analyze_dependences(strand).graph, opts);
      const Ddg& g = r.normalized.graph;
      EXPECT_NO_THROW((void)steady_state_pattern(cyclic_part(g), opts.machine))
          << file;
      const std::int64_t n = r.normalized_iterations;
      EXPECT_EQ(r.sched.schedule.placements(),
                materialize(steady_state_pattern(g, opts.machine),
                            opts.machine.processors, n)
                    .placements())
          << file;
      EXPECT_TRUE(values_match(compile(r.program, g).run(n),
                               run_reference(g, n), n))
          << file;
    }
  }
}

// Meeting the bound is a typed error naming the processor count and the
// bound, not an invariant failure.  Detecting the first strands' Cyclic
// subsets — what parallelize() ran before it decided the Fold fallback
// early — meets an explicit 8192 bound.
TEST(Parallelizer, DetectionBoundRaisesPatternNotFoundError) {
  ParallelizeOptions opts = p4_options();
  opts.schedule.cyclic.max_iterations = 8192;
  for (const char* file :
       {"pattern_horizon_707.loop", "pattern_horizon_810.loop"}) {
    const std::vector<ir::Loop> strands = o1_strands_of(file);
    ASSERT_FALSE(strands.empty()) << file;
    const Ddg g = normalize_distances(
                      ir::analyze_dependences(strands.front()).graph)
                      .graph;
    try {
      (void)steady_state_pattern(cyclic_part(g), opts.machine,
                                 opts.schedule.cyclic);
      ADD_FAILURE() << file << " settled within 8192 iterations";
    } catch (const PatternNotFoundError& e) {
      EXPECT_EQ(e.processors(), 4) << file;
      EXPECT_EQ(e.max_iterations(), 8192) << file;
      const std::string what = e.what();
      EXPECT_NE(what.find("8192"), std::string::npos) << what;
      EXPECT_NE(what.find("4 processors"), std::string::npos) << what;
    }
  }
}

// full_sched itself raises it only for a request of more iterations than
// the bound that meets the bound first; up to the bound it returns the
// prefix.
TEST(Parallelizer, RequestPastTheBoundRaisesPatternNotFoundError) {
  const std::vector<ir::Loop> strands =
      o1_strands_of("pattern_horizon_707.loop");
  ASSERT_FALSE(strands.empty());
  const Ddg g =
      normalize_distances(ir::analyze_dependences(strands.front()).graph)
          .graph;
  const Machine m{4, 1};
  FullSchedOptions opts;
  opts.cyclic.max_iterations = 32;
  const FullSchedResult r = full_sched(g, m, 32, opts);
  EXPECT_FALSE(r.pattern.has_value());
  EXPECT_EQ(r.schedule.size(), g.num_nodes() * 32);

  try {
    (void)full_sched(g, m, 33, opts);
    ADD_FAILURE() << "33 iterations scheduled under a bound of 32";
  } catch (const PatternNotFoundError& e) {
    EXPECT_EQ(e.processors(), 4);
    EXPECT_EQ(e.max_iterations(), 32);
    EXPECT_NE(std::string(e.what()).find("within 32 iterations"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mimd
