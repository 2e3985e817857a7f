// The compiled executor: compile() -> ExecutorPlan -> run(), against the
// bit-for-bit sequential oracle.
#include <gtest/gtest.h>

#include <limits>

#include "partition/compiled_program.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/worker_pool.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/full_sched.hpp"
#include "support/assert.hpp"
#include "support/loop_gen.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {
namespace {

PartitionedProgram fig7_program(const Ddg& g, std::int64_t n) {
  const Machine m{2, 2};
  const CyclicSchedResult r = cyclic_sched(g, m);
  EXPECT_TRUE(r.pattern.has_value());
  return lower(materialize(*r.pattern, m.processors, n), g);
}

void expect_equal_values(const ExecutionResult& a, const ResultBlock& b,
                         std::int64_t n) {
  ASSERT_EQ(a.values.size(), b.size());
  for (std::size_t v = 0; v < b.size(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(a.values[v][static_cast<std::size_t>(i)],
                b[v][static_cast<std::size_t>(i)])
          << "node " << v << " iter " << i;
    }
  }
}

// ---- Compilation: name resolution happens at lowering time. ----

TEST(CompiledProgram, ResolvesChannelsDenselyAndKeepsOneOpPerSourceOp) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = fig7_program(g, 20);
  const CompiledProgram cp = compile_program(p, g);

  EXPECT_EQ(cp.processors, p.processors);
  EXPECT_EQ(cp.iterations, 20);
  // Every source op compiles to one op of its kind, in its place: a
  // Receive stays a Receive that pops its channel into a slot.
  EXPECT_EQ(cp.count(CompiledOp::Kind::Compute), p.count(Op::Kind::Compute));
  EXPECT_EQ(cp.count(CompiledOp::Kind::Send), p.count(Op::Kind::Send));
  EXPECT_EQ(cp.count(CompiledOp::Kind::Receive), p.count(Op::Kind::Receive));
  EXPECT_GT(cp.count(CompiledOp::Kind::Receive), 0u);
  std::size_t thread = 0;
  for (const ProcessorProgram& pp : p.programs) {
    if (pp.ops.empty()) continue;
    ASSERT_LT(thread, cp.threads.size());
    const CompiledThread& t = cp.threads[thread++];
    EXPECT_EQ(t.proc, pp.proc);
    ASSERT_EQ(t.ops.size(), pp.ops.size());
    for (std::size_t i = 0; i < t.ops.size(); ++i) {
      EXPECT_EQ(static_cast<int>(t.ops[i].kind),
                static_cast<int>(pp.ops[i].kind));
      EXPECT_EQ(t.ops[i].node, pp.ops[i].inst.node);
      EXPECT_EQ(t.ops[i].iter, pp.ops[i].inst.iter);
    }
  }
  EXPECT_EQ(thread, cp.threads.size());

  // Dense channel table: one entry per distinct (edge, src, dst), message
  // counts summing to the program's sends; every Send and Receive names a
  // channel in it.
  EXPECT_GT(cp.channels.size(), 0u);
  std::int64_t messages = 0;
  for (const ChannelDesc& c : cp.channels) {
    EXPECT_GE(c.messages, 1);
    messages += c.messages;
  }
  EXPECT_EQ(static_cast<std::size_t>(messages), p.count(Op::Kind::Send));
  for (const CompiledThread& t : cp.threads) {
    for (const CompiledOp& op : t.ops) {
      if (op.kind != CompiledOp::Kind::Compute) {
        EXPECT_LT(op.chan, cp.channels.size());
      }
    }
  }
}

TEST(CompiledProgram, SlotArraysAreDenseAndInBounds) {
  const Ddg g = workloads::cytron86_loop();
  const FullSchedResult r = full_sched(g, Machine{8, 2}, 16);
  const CompiledProgram cp = compile_program(lower(r.schedule, g), g);
  for (const CompiledThread& t : cp.threads) {
    EXPECT_FALSE(t.ops.empty());
    std::uint32_t writes = 0;
    for (const CompiledOp& op : t.ops) {
      if (op.kind == CompiledOp::Kind::Send) continue;
      EXPECT_LT(op.slot, t.num_slots);
      ++writes;
    }
    // Liveness reuse (the default): at most one slot per compute/receive,
    // usually far fewer; num_slots_ssa records the pre-reuse count.
    EXPECT_LE(t.num_slots, writes);
    EXPECT_EQ(t.num_slots_ssa, writes);
    for (const OperandRef& ref : t.operands) {
      if (ref.kind == OperandRef::Kind::LocalSlot) {
        EXPECT_LT(ref.index, t.num_slots);
      }
    }
  }
}

TEST(CompiledProgram, SsaPolicyKeepsOneSlotPerValueInstance) {
  // num_slots_ssa is the pre-reuse count: one slot per value instance
  // (every compute/receive writes a fresh one), which the liveness pass
  // can only shrink.
  const Ddg g = workloads::cytron86_loop();
  const FullSchedResult r = full_sched(g, Machine{8, 2}, 16);
  const CompiledProgram cp = compile_program(lower(r.schedule, g), g);
  for (const CompiledThread& t : cp.threads) {
    std::uint32_t writes = 0;
    for (const CompiledOp& op : t.ops) {
      if (op.kind != CompiledOp::Kind::Send) ++writes;
    }
    EXPECT_EQ(writes, t.num_slots_ssa);
    EXPECT_LE(t.num_slots, t.num_slots_ssa);
  }
}

// ---- The validator gates compilation. ----

TEST(CompiledProgram, RejectsComputeBeforeOperand) {
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram p;
  p.processors = 1;
  p.programs.resize(1);
  p.programs[0].proc = 0;
  p.programs[0].ops.push_back(
      Op{Op::Kind::Compute, Inst{*g.find("B"), 0}, 0, -1});
  EXPECT_THROW((void)compile_program(p, g), ContractViolation);
  EXPECT_THROW((void)compile(p, g), ContractViolation);
}

TEST(CompiledProgram, RejectsUnmatchedSend) {
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[1].proc = 1;
  const NodeId a = *g.find("A");
  const EdgeId ab = g.out_edges(a)[0];
  p.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{a, 0}, 0, -1});
  p.programs[0].ops.push_back(Op{Op::Kind::Send, Inst{a, 0}, ab, 1});
  EXPECT_THROW((void)compile_program(p, g), ContractViolation);
}

TEST(CompiledProgram, RejectsFifoInversion) {
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  g.add_edge(a, b, 0);
  const EdgeId e = 0;
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[1].proc = 1;
  auto& s0 = p.programs[0].ops;
  auto& s1 = p.programs[1].ops;
  s0.push_back(Op{Op::Kind::Compute, Inst{a, 0}, 0, -1});
  s0.push_back(Op{Op::Kind::Send, Inst{a, 0}, e, 1});
  s0.push_back(Op{Op::Kind::Compute, Inst{a, 1}, 0, -1});
  s0.push_back(Op{Op::Kind::Send, Inst{a, 1}, e, 1});
  s1.push_back(Op{Op::Kind::Receive, Inst{a, 1}, e, 0});  // inverted
  s1.push_back(Op{Op::Kind::Compute, Inst{b, 1}, 0, -1});
  s1.push_back(Op{Op::Kind::Receive, Inst{a, 0}, e, 0});
  s1.push_back(Op{Op::Kind::Compute, Inst{b, 0}, 0, -1});
  EXPECT_THROW((void)compile_program(p, g), ContractViolation);
}

TEST(CompiledProgram, ConsumersReadingOutOfChannelOrderRunBitIdentical) {
  // PE1 receives A@1 before A@0 (the order PE0 sends them) but consumes
  // A@0 first: the receives pop the channel in program order, into
  // slots, and the computes read those slots in theirs.
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const EdgeId e = g.add_edge(a, b, 0);
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[1].proc = 1;
  p.programs[0].ops = {Op{Op::Kind::Compute, Inst{a, 0}, 0, -1},
                       Op{Op::Kind::Compute, Inst{a, 1}, 0, -1},
                       Op{Op::Kind::Send, Inst{a, 1}, e, 1},
                       Op{Op::Kind::Send, Inst{a, 0}, e, 1}};
  p.programs[1].ops = {Op{Op::Kind::Receive, Inst{a, 1}, e, 0},
                       Op{Op::Kind::Receive, Inst{a, 0}, e, 0},
                       Op{Op::Kind::Compute, Inst{b, 0}, 0, -1},
                       Op{Op::Kind::Compute, Inst{b, 1}, 0, -1}};
  const ExecutorPlan plan = compile(p, g);
  EXPECT_EQ(plan.program().count(CompiledOp::Kind::Receive), 2u);
  EXPECT_EQ(testsupport::tiers_off_reference(plan), "");
}

TEST(CompiledProgram, ComputeAtTheLargestIterationSaturatesTheCount) {
  // Any iteration >= 0 passes validation, so a client can send INT64_MAX;
  // the compiled count must not overflow computing "1 + the largest".
  Ddg g;
  const NodeId a = g.add_node("A");
  PartitionedProgram p;
  p.processors = 1;
  p.programs.resize(1);
  const std::int64_t last = std::numeric_limits<std::int64_t>::max();
  p.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{a, last}, 0, -1});
  EXPECT_EQ(compile_program(p, g).iterations, last);
}

// ---- Plan reuse and sequential equivalence. ----

TEST(ExecutorPlan, RepeatedRunsAreBitIdentical) {
  const Ddg g = workloads::fig7_loop();
  const std::int64_t n = 40;
  const ExecutorPlan plan = compile(fig7_program(g, n), g);
  const ExecutionResult first = plan.run(n);
  const ExecutionResult second = plan.run(n);
  const auto reference = run_sequential(g, n);
  expect_equal_values(first, reference, n);
  expect_equal_values(second, reference, n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(first.values[v][static_cast<std::size_t>(i)],
                second.values[v][static_cast<std::size_t>(i)]);
    }
  }
}

TEST(ExecutorPlan, BothTiersMatchSequential) {
  const Ddg g = workloads::ll20_discrete_ordinates();
  const Machine m{3, 2};
  const std::int64_t n = 30;
  const CyclicSchedResult r = cyclic_sched(g, m);
  ASSERT_TRUE(r.pattern.has_value());
  const ExecutorPlan plan =
      compile(lower(materialize(*r.pattern, m.processors, n), g), g);
  EXPECT_EQ(testsupport::tiers_off_reference(plan), "");
}

TEST(ExecutorPlan, RandomLoopsMatchOnBothTiers) {
  for (const std::uint64_t seed : {3u, 12u, 19u}) {
    const Ddg g = workloads::random_connected_cyclic_loop(seed);
    const Machine m{4, 3};
    const std::int64_t n = 20;
    const CyclicSchedResult r = cyclic_sched(g, m);
    ASSERT_TRUE(r.pattern.has_value());
    const ExecutorPlan plan =
        compile(lower(materialize(*r.pattern, m.processors, n), g), g);
    EXPECT_EQ(testsupport::tiers_off_reference(plan), "") << "seed " << seed;
  }
}

TEST(ExecutorPlan, TheOptionsPickTheTierAndBothTiersAgree) {
  // The default kernel without pinning runs on the calling thread; per-op
  // work or pinning takes a gang of the pool.  Same values either way,
  // under the kernel options each run asked for.
  RunOptions opts;
  EXPECT_EQ(run_tier(opts), RunTier::OneThread);
  opts.pin_threads = true;
  EXPECT_EQ(run_tier(opts), RunTier::Gang);
  RunOptions busy;
  busy.kernel.work_per_cycle = 3;
  EXPECT_EQ(run_tier(busy), RunTier::Gang);

  const Ddg g = workloads::fig7_loop();
  const std::int64_t n = 24;
  const ExecutorPlan plan = compile(fig7_program(g, n), g);
  WorkerPool pool;
  RunOptions on_pool;
  on_pool.pool = &pool;
  expect_equal_values(plan.run(n, on_pool), run_sequential(g, n), n);
  EXPECT_EQ(pool.gangs_run(), 0u);
  busy.pool = &pool;
  const auto busy_reference = run_sequential(g, n, busy.kernel);
  expect_equal_values(plan.run(n, busy), busy_reference, n);
  EXPECT_EQ(pool.gangs_run(), 1u);
  expect_equal_values(plan.run_one_thread(n, busy.kernel), busy_reference, n);
  EXPECT_EQ(pool.gangs_run(), 1u);
}

TEST(ExecutorPlan, RunRejectsTooFewIterations) {
  const Ddg g = workloads::fig7_loop();
  const ExecutorPlan plan = compile(fig7_program(g, 20), g);
  EXPECT_EQ(plan.program().iterations, 20);
  EXPECT_THROW((void)plan.run(10), ContractViolation);
  EXPECT_THROW((void)plan.run_gang(10), ContractViolation);
}

TEST(ExecutorPlan, RunRejectsIterationsPastTheCompiledCount) {
  // Rows past the compiled count were never computed: a run that asked
  // for them would hand back 0.0 there and mismatch the sequential
  // reference over the same n.  The plan refuses before any thread
  // starts, and stays usable.
  const Ddg g = workloads::fig7_loop();
  const ExecutorPlan plan = compile(fig7_program(g, 20), g);
  EXPECT_THROW((void)plan.run(24), ContractViolation);
  expect_equal_values(plan.run(20), run_sequential(g, 20), 20);
}

}  // namespace
}  // namespace mimd
