#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/doacross.hpp"
#include "partition/compiled_program.hpp"
#include "baseline/sequential.hpp"
#include "graph/unwind.hpp"
#include "partition/lowering.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/full_sched.hpp"
#include "support/loop_gen.hpp"
#include "support/reference_schedule.hpp"
#include "support/reference_validator.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {
namespace {

PartitionedProgram fig7_program(std::int64_t n) {
  const Ddg g = workloads::fig7_loop();
  const Machine m{2, 2};
  const CyclicSchedResult r = cyclic_sched(g, m);
  return lower(materialize(*r.pattern, m.processors, n), g);
}

TEST(Lowering, SequentialScheduleHasNoMessages) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = lower(sequential_schedule(g, 8), g);
  EXPECT_EQ(p.count(Op::Kind::Send), 0u);
  EXPECT_EQ(p.count(Op::Kind::Receive), 0u);
  EXPECT_EQ(p.count(Op::Kind::Compute), 40u);
}

TEST(Lowering, ComputeCountEqualsScheduleSize) {
  const PartitionedProgram p = fig7_program(12);
  EXPECT_EQ(p.count(Op::Kind::Compute), 60u);
}

TEST(Lowering, SendsMatchReceives) {
  const PartitionedProgram p = fig7_program(12);
  EXPECT_GT(p.count(Op::Kind::Send), 0u);  // fig7 really partitions
  EXPECT_EQ(p.count(Op::Kind::Send), p.count(Op::Kind::Receive));
}

TEST(Lowering, WellFormedForPatternSchedules) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = fig7_program(20);
  EXPECT_EQ(find_program_violation(p, g), std::nullopt);
}

TEST(Lowering, WellFormedForDoacrossSchedules) {
  const Ddg g = workloads::cytron86_loop();
  const DoacrossResult r = doacross(g, Machine{4, 2}, 12);
  const PartitionedProgram p = lower(r.schedule, g);
  EXPECT_EQ(find_program_violation(p, g), std::nullopt);
}

TEST(Lowering, WellFormedForFullSchedules) {
  const Ddg g = workloads::cytron86_loop();
  const FullSchedResult r = full_sched(g, Machine{8, 2}, 16);
  const PartitionedProgram p = lower(r.schedule, g);
  EXPECT_EQ(find_program_violation(p, g), std::nullopt);
}

TEST(Lowering, ProgramsOrderedByStartTimePerProcessor) {
  const Ddg g = workloads::fig7_loop();
  const Machine m{2, 2};
  const CyclicSchedResult r = cyclic_sched(g, m);
  const Schedule s = materialize(*r.pattern, m.processors, 15);
  const PartitionedProgram p = lower(s, g);
  for (const ProcessorProgram& prog : p.programs) {
    std::int64_t last = -1;
    for (const Op& op : prog.ops) {
      if (op.kind != Op::Kind::Compute) continue;
      const auto pl = s.lookup(op.inst);
      ASSERT_TRUE(pl.has_value());
      EXPECT_GT(pl->start, last - 1);
      last = pl->start;
    }
  }
}

// lower() walks placements in append order.  Two schedules with the same
// per-processor timelines, appended in different cross-processor
// interleavings, must lower to the same programs — and to what the
// sort-based lowering makes of the original.
TEST(Lowering, CrossProcessorInterleavingDoesNotChangeThePrograms) {
  const Ddg g = normalize_distances(workloads::elliptic_filter_loop()).graph;
  const FullSchedResult r = full_sched(g, Machine{3, 1}, 40);
  const Schedule& original = r.schedule;
  const int procs = original.processors();
  std::vector<std::vector<Placement>> lines;
  for (int q = 0; q < procs; ++q) lines.push_back(original.on_processor(q));

  Schedule by_processor(procs);  // all of PE0, then all of PE1, ...
  for (const auto& line : lines) {
    for (const Placement& p : line) {
      by_processor.place(p.inst, p.proc, p.start, p.finish);
    }
  }
  Schedule reversed(procs);  // the last processor's timeline first
  for (auto line = lines.rbegin(); line != lines.rend(); ++line) {
    for (const Placement& p : *line) {
      reversed.place(p.inst, p.proc, p.start, p.finish);
    }
  }
  Schedule round_robin(procs);  // one placement per processor in turn
  for (std::size_t i = 0, left = original.size(); left > 0; ++i) {
    for (const auto& line : lines) {
      if (i < line.size()) {
        round_robin.place(line[i].inst, line[i].proc, line[i].start,
                          line[i].finish);
        --left;
      }
    }
  }
  ASSERT_NE(by_processor.placements(), original.placements());
  ASSERT_NE(reversed.placements(), by_processor.placements());

  const PartitionedProgram want = testsupport::reference_lower(original, g);
  EXPECT_GT(want.count(Op::Kind::Send), 0u);
  EXPECT_TRUE(lower(original, g) == want);
  EXPECT_TRUE(lower(by_processor, g) == want);
  EXPECT_TRUE(lower(reversed, g) == want);
  EXPECT_TRUE(lower(round_robin, g) == want);
}

TEST(ProgramViolation, DetectsComputeBeforeOperand) {
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram p;
  p.processors = 1;
  p.programs.resize(1);
  p.programs[0].proc = 0;
  // B@0 computed without A@0 anywhere.
  p.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{*g.find("B"), 0}, 0, -1});
  const auto v = find_program_violation(p, g);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("before operand"), std::string::npos);
}

TEST(ProgramViolation, DetectsUnmatchedSend) {
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
  // PE1 never receives.
  const auto v = find_program_violation(p, g);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("unmatched"), std::string::npos);
}

TEST(ProgramViolation, DetectsSendBeforeCompute) {
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[1].proc = 1;
  const NodeId a = *g.find("A");
  const EdgeId ab = g.out_edges(a)[0];
  p.programs[0].ops.push_back(Op{Op::Kind::Send, Inst{a, 0}, ab, 1});
  const auto v = find_program_violation(p, g);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("before it is computed"), std::string::npos);
}

TEST(ProgramViolation, DetectsCrossWaitDeadlockAndNamesTheStuckReceives) {
  // Every rule before rule 4 passes; each processor waits for the other.
  const testsupport::HandBuiltLoop l = testsupport::two_node_cross_wait();
  const std::string want =
      "deadlock: PE0 waits at receive of B@1 from PE1, PE1 waits at "
      "receive of A@0 from PE0";
  EXPECT_EQ(find_program_violation(l.program, l.graph), want);
  EXPECT_EQ(testsupport::reference_program_violation(l.program, l.graph),
            want);
  EXPECT_THROW((void)compile_program(l.program, l.graph), ContractViolation);

  // Moving PE0's send of A@0 ahead of its receive removes the deadlock.
  PartitionedProgram fixed = l.program;
  std::vector<Op>& pe0 = fixed.programs[0].ops;
  std::rotate(pe0.begin(), pe0.begin() + 2, pe0.end());
  EXPECT_EQ(find_program_violation(fixed, l.graph), std::nullopt);
}

TEST(ProgramViolation, DetectsFifoInversion) {
  // Two sends on one channel in iteration order, receives inverted.
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
  const auto v = find_program_violation(p, g);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("FIFO"), std::string::npos);
}

TEST(ProgramViolation, FifoReportsTheFirstChannelInEdgeOrder) {
  // Both channels are inverted; program order meets edge 1 first, but
  // channels are checked in (edge, src, dst) order.
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const NodeId c = g.add_node("C");
  const EdgeId ab = g.add_edge(a, b, 0);
  const EdgeId ac = g.add_edge(a, c, 0);
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[1].proc = 1;
  auto& s0 = p.programs[0].ops;
  auto& s1 = p.programs[1].ops;
  s0.push_back(Op{Op::Kind::Compute, Inst{a, 0}, 0, -1});
  s0.push_back(Op{Op::Kind::Compute, Inst{a, 1}, 0, -1});
  for (const EdgeId e : {ac, ab}) {
    s0.push_back(Op{Op::Kind::Send, Inst{a, 0}, e, 1});
    s0.push_back(Op{Op::Kind::Send, Inst{a, 1}, e, 1});
  }
  for (const EdgeId e : {ac, ab}) {
    s1.push_back(Op{Op::Kind::Receive, Inst{a, 1}, e, 0});  // inverted
    s1.push_back(Op{Op::Kind::Receive, Inst{a, 0}, e, 0});
  }
  for (const std::int64_t i : {0, 1}) {
    s1.push_back(Op{Op::Kind::Compute, Inst{b, i}, 0, -1});
    s1.push_back(Op{Op::Kind::Compute, Inst{c, i}, 0, -1});
  }
  const auto v = find_program_violation(p, g);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "channel (edge 0, PE0 -> PE1) violates FIFO order");
}

TEST(ProgramViolation, RejectsNegativeIteration) {
  // Accepted before the rule existed: the run wrote values[A][size_t(-3)].
  Ddg g;
  const NodeId a = g.add_node("A");
  PartitionedProgram p;
  p.processors = 1;
  p.programs.resize(1);
  p.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{a, -3}, 0, -1});
  p.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{a, 1}, 0, -1});
  const auto v = find_program_violation(p, g);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "PE0: compute A@-3 has a negative iteration");
  EXPECT_THROW((void)compile_program(p, g), ContractViolation);
}

TEST(ProgramViolation, RejectsNegativeIterationOnMessages) {
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const EdgeId ab = g.add_edge(a, b, 1);
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[1].proc = 1;
  p.programs[1].ops.push_back(Op{Op::Kind::Receive, Inst{a, -1}, ab, 0});
  const auto v = find_program_violation(p, g);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "PE1: receive of A@-1 has a negative iteration");
}

TEST(ProgramViolation, RejectsDuplicateComputeAcrossProcessors) {
  // Accepted before the rule existed: two threads wrote one result cell.
  Ddg g;
  const NodeId a = g.add_node("A");
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[1].proc = 1;
  p.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{a, 0}, 0, -1});
  p.programs[1].ops.push_back(Op{Op::Kind::Compute, Inst{a, 0}, 0, -1});
  const auto v = find_program_violation(p, g);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "PE1: compute A@0 duplicates the instance computed on PE0");
  EXPECT_THROW((void)compile_program(p, g), ContractViolation);
}

TEST(ProgramViolation, RejectsDuplicateComputeOnOneProcessor) {
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram p = fig7_program(6);
  ASSERT_EQ(find_program_violation(p, g), std::nullopt);
  auto& ops = p.programs[0].ops;
  const auto first = std::find_if(ops.begin(), ops.end(), [](const Op& op) {
    return op.kind == Op::Kind::Compute;
  });
  ASSERT_NE(first, ops.end());
  ops.push_back(*first);
  const auto v = find_program_violation(p, g);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("duplicates the instance computed on PE0"),
            std::string::npos)
      << *v;
}

TEST(ProgramViolation, RejectsTwoProgramsSharingAProcessorId) {
  // Accepted before the rule existed: both PE0 programs ran as threads
  // producing on the one (edge, PE0 -> PE1) channel, and a run could
  // abort the process on the receive's FIFO tag check.
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const EdgeId ab = g.add_edge(a, b, 0);
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(3);
  p.programs[0].ops = {Op{Op::Kind::Compute, Inst{a, 0}, 0, -1},
                       Op{Op::Kind::Send, Inst{a, 0}, ab, 1}};
  p.programs[1].ops = {Op{Op::Kind::Compute, Inst{a, 1}, 0, -1},
                       Op{Op::Kind::Send, Inst{a, 1}, ab, 1}};
  p.programs[2].proc = 1;
  p.programs[2].ops = {Op{Op::Kind::Receive, Inst{a, 0}, ab, 0},
                       Op{Op::Kind::Receive, Inst{a, 1}, ab, 0},
                       Op{Op::Kind::Compute, Inst{b, 0}, 0, -1},
                       Op{Op::Kind::Compute, Inst{b, 1}, 0, -1}};
  const auto v = find_program_violation(p, g);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "PE0: two processor programs share this processor id");
  EXPECT_THROW((void)compile_program(p, g), ContractViolation);

  // The rule runs before the per-op rules: an earlier op's violation
  // does not mask it.
  p.programs[0].ops.insert(p.programs[0].ops.begin(),
                           Op{Op::Kind::Compute, Inst{a, -1}, 0, -1});
  EXPECT_EQ(find_program_violation(p, g),
            "PE0: two processor programs share this processor id");

  // Numbered apart, the same two producers are well-formed.
  p.programs[0].ops.erase(p.programs[0].ops.begin());
  p.processors = 3;
  p.programs[1].proc = 2;
  p.programs[2].ops[1].peer = 2;
  EXPECT_EQ(find_program_violation(p, g), std::nullopt);
}

TEST(Lowering, RandomLoopProgramsAreWellFormed) {
  for (const std::uint64_t seed : {1, 4, 9}) {
    const Ddg g = workloads::random_connected_cyclic_loop(seed);
    const Machine m{8, 3};
    const CyclicSchedResult r = cyclic_sched(g, m);
    ASSERT_TRUE(r.pattern.has_value());
    const PartitionedProgram p =
        lower(materialize(*r.pattern, m.processors, 30), g);
    EXPECT_EQ(find_program_violation(p, g), std::nullopt) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mimd
