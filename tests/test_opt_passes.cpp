// The rewrite mid-end (src/opt) under test: per-pass golden rewrites,
// the two-layer bit-exactness contract on 50 fuzzed programs (IR
// evaluator: optimized vs unoptimized observables; runtime: each
// rewritten strand threaded vs sequential, both transports), fission on
// a hand-built two-strand loop, and the cache-key separation the opt
// level must provide.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/parallelizer.hpp"
#include "ir/dependence.hpp"
#include "ir/ifconvert.hpp"
#include "ir/parser.hpp"
#include "opt/dce.hpp"
#include "opt/eval.hpp"
#include "opt/fission.hpp"
#include "opt/fold_constants.hpp"
#include "opt/pipeline.hpp"
#include "opt/strength_reduce.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan_cache.hpp"
#include "support/loop_gen.hpp"

namespace mimd {
namespace {

ir::Loop parsed(const std::string& src) {
  const ir::Loop raw = ir::parse_loop(src);
  return raw.has_control_flow() ? ir::if_convert(raw) : raw;
}

/// Runs one scalar pass once and returns the rewrite count.
int run_pass(opt::Pass& pass, ir::Loop& loop) { return pass.run(loop); }

std::string rhs_text(const ir::Loop& loop, std::size_t s) {
  return ir::to_string(*loop.body.at(s).rhs);
}

// ---------------------------------------------------------------------------
// `out` clause surface syntax

TEST(OutClause, ParsesAndRoundTrips) {
  const ir::Loop loop =
      ir::parse_loop("out S, T\nfor i:\n  S[i] = S[i-1] + X[i]\n  T[i] = S[i]\n");
  EXPECT_EQ(loop.outputs, (std::vector<std::string>{"S", "T"}));
  const ir::Loop again = ir::parse_loop(ir::to_string(loop));
  EXPECT_EQ(again.outputs, loop.outputs);
  EXPECT_EQ(ir::to_string(again), ir::to_string(loop));
}

TEST(OutClause, AbsentMeansEmpty) {
  const ir::Loop loop = ir::parse_loop("for i:\n  S[i] = S[i-1]\n");
  EXPECT_TRUE(loop.outputs.empty());
}

TEST(OutClause, SurvivesIfConversion) {
  const ir::Loop raw = ir::parse_loop(
      "out T\nfor i:\n  S[i] = X[i]\n  if S[i] > 1 { T[i] = S[i] }\n");
  EXPECT_EQ(ir::if_convert(raw).outputs, (std::vector<std::string>{"T"}));
}

// ---------------------------------------------------------------------------
// Constant folding + algebraic simplification

TEST(FoldConstants, FoldsConstantSubtrees) {
  ir::Loop loop = parsed("for i:\n  T[i] = (2 + 3) * X[i] + (4 * 2 - 1)\n");
  opt::FoldConstants fold;
  EXPECT_GT(run_pass(fold, loop), 0);
  EXPECT_EQ(rhs_text(loop, 0), "((5 * X[i]) + 7)");
}

TEST(FoldConstants, AppliesExactIdentities) {
  ir::Loop loop = parsed(
      "for i:\n"
      "  A[i] = X[i] * 1\n"
      "  B[i] = X[i] / 1\n"
      "  C[i] = X[i] - 0\n"
      "  D[i] = - - X[i]\n");
  opt::FoldConstants fold;
  EXPECT_EQ(run_pass(fold, loop), 4);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(rhs_text(loop, s), "X[i]");
}

TEST(FoldConstants, RejectsInexactIdentities) {
  // x+0 (x = -0.0), x*0 (NaN/inf/-0) and x-x (NaN/inf) are not exact
  // under IEEE-754 — the pass must leave them alone (docs/PASSES.md has
  // the counterexamples).
  ir::Loop loop = parsed(
      "for i:\n"
      "  A[i] = X[i] + 0\n"
      "  B[i] = X[i] * 0\n"
      "  C[i] = X[i] - X[i]\n");
  opt::FoldConstants fold;
  EXPECT_EQ(run_pass(fold, loop), 0);
  EXPECT_EQ(rhs_text(loop, 0), "(X[i] + 0)");
  EXPECT_EQ(rhs_text(loop, 1), "(X[i] * 0)");
  EXPECT_EQ(rhs_text(loop, 2), "(X[i] - X[i])");
}

TEST(FoldConstants, FoldsConstantSelects) {
  ir::Loop loop = parsed("for i:\n  if 2 > 1 { T[i] = X[i] } else { T[i] = 0 }\n");
  // if-conversion produced select((2 > 1), X[i], T[i]) and
  // select((!(2 > 1)), 0, T[i]); folding collapses both guards.
  opt::FoldConstants fold;
  EXPECT_GT(run_pass(fold, loop), 0);
  EXPECT_EQ(rhs_text(loop, 0), "X[i]");
  EXPECT_EQ(rhs_text(loop, 1), "T[i]");
}

TEST(FoldConstants, UsesEvaluatorSemantics) {
  // The folded value must be the exact double the evaluator computes —
  // same operator implementation, by construction.
  ir::Loop loop = parsed("for i:\n  T[i] = 1 / 3 + 2 / 3\n");
  opt::FoldConstants fold;
  run_pass(fold, loop);
  ASSERT_EQ(loop.body[0].rhs->kind, ir::Expr::Kind::Const);
  EXPECT_EQ(loop.body[0].rhs->value,
            opt::apply_binary("+", opt::apply_binary("/", 1.0, 3.0),
                              opt::apply_binary("/", 2.0, 3.0)));
}

// ---------------------------------------------------------------------------
// Strength reduction

TEST(StrengthReduce, RewritesTimesTwoToAdd) {
  ir::Loop loop = parsed("for i:\n  A[i] = A[i-1] * 2\n  B[i] = 2 * A[i-1]\n");
  const int before = ir::analyze_dependences(loop).graph.node(0).latency;
  opt::StrengthReduce sr;
  EXPECT_EQ(run_pass(sr, loop), 2);
  EXPECT_EQ(rhs_text(loop, 0), "(A[i-1] + A[i-1])");
  EXPECT_EQ(rhs_text(loop, 1), "(A[i-1] + A[i-1])");
  // The measurable win: latency 1 + #muldiv drops 2 -> 1, which lowers
  // the recurrence bound of the A cycle.
  const int after = ir::analyze_dependences(loop).graph.node(0).latency;
  EXPECT_EQ(before, 2);
  EXPECT_EQ(after, 1);
}

TEST(StrengthReduce, SkipsMultiplyHeavySubtrees) {
  // Duplicating a subtree that contains a multiply would double-count it
  // under the latency model — no rewrite.
  ir::Loop loop = parsed("for i:\n  T[i] = (X[i] * Y[i]) * 2\n");
  opt::StrengthReduce sr;
  EXPECT_EQ(run_pass(sr, loop), 0);
}

TEST(StrengthReduce, DividesByPowersOfTwoOnly) {
  ir::Loop loop = parsed("for i:\n  A[i] = X[i] / 2\n  B[i] = X[i] / 3\n");
  opt::StrengthReduce sr;
  EXPECT_EQ(run_pass(sr, loop), 1);
  EXPECT_EQ(rhs_text(loop, 0), "(X[i] * 0.5)");
  EXPECT_EQ(rhs_text(loop, 1), "(X[i] / 3)");
}

// ---------------------------------------------------------------------------
// Dead-code elimination

TEST(Dce, NoOutputsMeansNoOp) {
  ir::Loop loop = parsed("for i:\n  S[i] = S[i-1]\n  T[i] = 7\n");
  opt::DeadCodeElim dce;
  EXPECT_EQ(run_pass(dce, loop), 0);
  EXPECT_EQ(loop.body.size(), 2u);
}

TEST(Dce, RemovesDeadKeepsTransitiveProducers) {
  ir::Loop loop = parsed(
      "out U\n"
      "for i:\n"
      "  S[i] = S[i-1] + X[i]\n"  // live: T reads it
      "  T[i] = S[i] * 0.5\n"     // live: U reads it
      "  D[i] = D[i-1] + S[i]\n"  // dead: nothing downstream
      "  U[i] = T[i] + S[i-1]\n");
  opt::DeadCodeElim dce;
  EXPECT_EQ(run_pass(dce, loop), 1);
  ASSERT_EQ(loop.body.size(), 3u);
  EXPECT_EQ(loop.body[0].target, "S");
  EXPECT_EQ(loop.body[1].target, "T");
  EXPECT_EQ(loop.body[2].target, "U");
}

TEST(Dce, KeepsUndefinedOutputsLoopIntact) {
  // Degenerate: the declared output is never defined; removing the whole
  // body would leave nothing to schedule, so the pass backs off.
  ir::Loop loop = parsed("out Z\nfor i:\n  S[i] = S[i-1]\n");
  opt::DeadCodeElim dce;
  EXPECT_EQ(run_pass(dce, loop), 0);
  EXPECT_EQ(loop.body.size(), 1u);
}

// ---------------------------------------------------------------------------
// Fission

TEST(Fission, SplitsTwoStrandsIntoIndependentSchedules) {
  const ir::Loop loop = parsed(
      "for i:\n"
      "  A[i] = A[i-1] + X[i]\n"
      "  B[i] = A[i-1] * 0.5\n"
      "  C[i] = C[i-1] + Y[i]\n"
      "  D[i] = C[i] + C[i-1]\n");
  const std::vector<ir::Loop> strands = opt::fission(loop);
  ASSERT_EQ(strands.size(), 2u);
  EXPECT_EQ(strands[0].body[0].target, "A");
  EXPECT_EQ(strands[0].body[1].target, "B");
  EXPECT_EQ(strands[1].body[0].target, "C");
  EXPECT_EQ(strands[1].body[1].target, "D");

  // Each strand schedules on its own — two independent programs.
  ParallelizeOptions opts;
  opts.machine = Machine{2, 1};
  opts.iterations = 16;
  opts.emit_code = false;
  std::vector<ParallelizeResult> results;
  for (const ir::Loop& strand : strands) {
    const ir::DependenceResult dep = ir::analyze_dependences(strand);
    EXPECT_EQ(dep.graph.num_nodes(), 2u);
    results.push_back(parallelize(dep.graph, opts));
  }
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].program.programs.size(), 0u);
  EXPECT_GT(results[1].program.programs.size(), 0u);
}

TEST(Fission, KeepsAllDefsOfOneArrayTogether) {
  // The two A definitions share no edge, but splitting them would change
  // which statement "the last def of A" names — they must stay together.
  const ir::Loop loop = parsed(
      "for i:\n"
      "  A[i] = X[i]\n"
      "  A[i] = Y[i]\n"
      "  B[i] = B[i-1] + Z[i]\n");
  const std::vector<ir::Loop> strands = opt::fission(loop);
  ASSERT_EQ(strands.size(), 2u);
  EXPECT_EQ(strands[0].body.size(), 2u);
  EXPECT_EQ(strands[0].body[0].target, "A");
  EXPECT_EQ(strands[0].body[1].target, "A");
  EXPECT_EQ(strands[1].body[0].target, "B");
}

TEST(Fission, SingleComponentUntouched) {
  const ir::Loop loop = parsed("for i:\n  S[i] = S[i-1] + X[i]\n  T[i] = S[i]\n");
  EXPECT_EQ(opt::fission(loop).size(), 1u);
}

TEST(Fission, StrandsInheritTheirOutputs) {
  const ir::Loop loop = parsed(
      "out A, C\nfor i:\n  A[i] = A[i-1]\n  C[i] = C[i-1]\n");
  const std::vector<ir::Loop> strands = opt::fission(loop);
  ASSERT_EQ(strands.size(), 2u);
  EXPECT_EQ(strands[0].outputs, (std::vector<std::string>{"A"}));
  EXPECT_EQ(strands[1].outputs, (std::vector<std::string>{"C"}));
}

// ---------------------------------------------------------------------------
// Pipeline

TEST(Pipeline, OffReturnsInputUntouched) {
  const ir::Loop loop = parsed("for i:\n  T[i] = (2 + 3) * X[i]\n");
  opt::OptOptions opts;
  opts.level = OptLevel::Off;
  const opt::PipelineResult res = opt::optimize(loop, opts);
  ASSERT_EQ(res.loops.size(), 1u);
  EXPECT_EQ(ir::to_string(res.loops[0]), ir::to_string(loop));
  EXPECT_TRUE(res.stats.empty());
}

TEST(Pipeline, ReachesFixedPointAcrossPassInterplay) {
  // Folding removes the *1, strength reduction then rewrites *2 — the
  // second round is needed to prove quiescence.
  const ir::Loop loop = parsed("for i:\n  A[i] = (A[i-1] * 1) * 2\n");
  const opt::PipelineResult res = opt::optimize(loop);
  EXPECT_TRUE(res.reached_fixed_point);
  ASSERT_EQ(res.loops.size(), 1u);
  EXPECT_EQ(ir::to_string(*res.loops[0].body[0].rhs), "(A[i-1] + A[i-1])");
}

// ---------------------------------------------------------------------------
// Evaluator sanity

TEST(Evaluator, ConstantStatement) {
  const ir::Loop loop = parsed("for i:\n  T[i] = 2 + 3\n");
  const opt::EvalResult res = opt::eval_loop(loop, 4);
  ASSERT_EQ(res.values.size(), 1u);
  for (const double v : res.values[0]) EXPECT_EQ(v, 5.0);
}

TEST(Evaluator, RecurrenceUsesCarriedValues) {
  const ir::Loop loop = parsed("for i:\n  S[i] = S[i-1] + 1\n");
  const opt::EvalResult res = opt::eval_loop(loop, 3);
  // Iteration 0 reads initial memory; later iterations chain.
  const double s0 = opt::array_input("S", -1) + 1.0;
  EXPECT_EQ(res.values[0][0], s0);
  EXPECT_EQ(res.values[0][1], s0 + 1.0);
  EXPECT_EQ(res.values[0][2], s0 + 2.0);
}

TEST(Evaluator, ObservablesRestrictToOutputs) {
  const ir::Loop loop =
      parsed("out T\nfor i:\n  S[i] = X[i]\n  T[i] = S[i]\n");
  const std::vector<opt::OutputStream> obs = opt::observable_streams(loop, 4);
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(obs[0].array, "T");
}

// ---------------------------------------------------------------------------
// Cache-key separation

TEST(CacheKey, OptLevelSeparatesPlans) {
  const testsupport::GeneratedLoop gen = testsupport::generate_loop(11);
  CompileOptions off;
  off.opt = OptLevel::Off;
  CompileOptions o1;
  o1.opt = OptLevel::O1;
  EXPECT_NE(structural_hash(gen.program, gen.graph, off),
            structural_hash(gen.program, gen.graph, o1));

  PlanCache cache(8);
  (void)cache.get_or_compile(gen.program, gen.graph, off);
  (void)cache.get_or_compile(gen.program, gen.graph, o1);
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);   // one compile per level
  EXPECT_EQ(stats.entries, 2u);  // never aliased
  // Repeat lookups hit their own entry.
  (void)cache.get_or_compile(gen.program, gen.graph, off);
  (void)cache.get_or_compile(gen.program, gen.graph, o1);
  EXPECT_EQ(cache.stats().hits, 2u);
}

// ---------------------------------------------------------------------------
// The fuzz differential: 50 generated programs through both layers of
// the bit-exactness contract.

class OptFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptFuzz, OptimizedMatchesUnoptimizedAndSequential) {
  const testsupport::GeneratedIrLoop gen =
      testsupport::random_ir_loop(GetParam());
  SCOPED_TRACE(gen.tag + "\n" + gen.source);
  const ir::Loop original = [&] {
    const ir::Loop raw = ir::parse_loop(gen.source);
    return raw.has_control_flow() ? ir::if_convert(raw) : raw;
  }();

  // Layer 1 — IR semantics: the optimized program's observable streams
  // are bit-identical to the original's under the reference evaluator.
  constexpr std::int64_t kEvalIters = 12;
  const std::vector<opt::OutputStream> reference =
      opt::observable_streams(original, kEvalIters);
  const opt::PipelineResult pipe = opt::optimize(original);
  ASSERT_FALSE(pipe.loops.empty());
  EXPECT_TRUE(pipe.reached_fixed_point);
  EXPECT_TRUE(opt::streams_preserved(
      reference, opt::observable_streams(pipe.loops, kEvalIters)));

  // Layer 2 — runtime: every rewritten strand, scheduled and compiled,
  // runs bit-identical to its own sequential reference (the same oracle
  // the unoptimized pipeline must satisfy).
  ParallelizeOptions popts;
  popts.machine = Machine{2, 1};
  popts.iterations = 10;
  popts.emit_code = false;
  CompileOptions copts;
  copts.opt = OptLevel::O1;
  auto run_against_sequential = [](const ParallelizeResult& r,
                                   const CompileOptions& co) {
    const ExecutorPlan plan = compile(r.program, r.normalized.graph, co);
    ASSERT_EQ(plan.program().iterations, r.normalized_iterations);
    EXPECT_EQ(testsupport::tiers_off_reference(plan), "");
  };
  for (const ir::Loop& strand : pipe.loops) {
    const ir::DependenceResult dep = ir::analyze_dependences(strand);
    run_against_sequential(parallelize(dep.graph, popts), copts);
  }

  // The unoptimized program through the same runtime oracle, when it is
  // schedulable at all: a loop with several independent recurrences
  // trips the cyclic scheduler's connected-component precondition
  // without fission — exactly the gap the mid-end closes.
  try {
    const ir::DependenceResult dep = ir::analyze_dependences(original);
    CompileOptions off;
    off.opt = OptLevel::Off;
    run_against_sequential(parallelize(dep.graph, popts), off);
  } catch (const ContractViolation&) {
    EXPECT_GT(gen.strands, 1) << "single-strand loop failed to schedule";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptFuzz, ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace mimd
