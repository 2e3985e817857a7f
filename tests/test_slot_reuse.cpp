// The liveness-based slot-reuse pass (partition/compiled_program.cpp):
// never worse than the SSA count it starts from (num_slots_ssa),
// asymptotically better on long pipelined programs, and invisible in the
// results — every execution stays bit-identical to run_sequential.
#include <gtest/gtest.h>

#include "partition/compiled_program.hpp"
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

PartitionedProgram pattern_program(const Ddg& g, const Machine& m,
                                   std::int64_t n) {
  const CyclicSchedResult r = cyclic_sched(g, m);
  EXPECT_TRUE(r.pattern.has_value());
  return lower(materialize(*r.pattern, m.processors, n), g);
}

/// Reads through reused slots must still see the value a fresh slot
/// would have held; the cheapest full check is executing the program and
/// comparing against the sequential oracle.
void expect_reuse_matches_sequential(const PartitionedProgram& p,
                                     const Ddg& g, std::int64_t n) {
  const auto reference = run_sequential(g, n);
  const ExecutionResult res = compile(p, g).run(n);
  for (std::size_t v = 0; v < reference.size(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(res.values[v][static_cast<std::size_t>(i)],
                reference[v][static_cast<std::size_t>(i)])
          << "node " << v << " iter " << i;
    }
  }
}

TEST(SlotReuse, NeverIncreasesSlotCountOnAnyWorkload) {
  struct Case {
    const char* name;
    Ddg g;
    Machine m;
  };
  const Case cases[] = {
      {"fig7", workloads::fig7_loop(), Machine{2, 2}},
      {"cytron", workloads::cytron86_loop(), Machine{8, 2}},
      {"ll18", workloads::livermore18_loop(), Machine{4, 2}},
      {"ll20", workloads::ll20_discrete_ordinates(), Machine{3, 2}},
      {"rand7", workloads::random_connected_cyclic_loop(7), Machine{4, 3}},
  };
  for (const Case& c : cases) {
    const FullSchedResult r = full_sched(c.g, c.m, 16);
    const PartitionedProgram p = lower(r.schedule, c.g);
    const CompiledProgram reuse = compile_program(p, c.g);
    for (std::size_t t = 0; t < reuse.threads.size(); ++t) {
      EXPECT_LE(reuse.threads[t].num_slots, reuse.threads[t].num_slots_ssa)
          << c.name << " thread " << t;
    }
    EXPECT_LE(reuse.total_slots(), reuse.total_slots_ssa()) << c.name;
  }
}

TEST(SlotReuse, ShrinksLongPipelinedProgramToLiveValues) {
  // The long-program bound: SSA allocates one slot per value instance, so
  // fig7 over n = 200 iterations needs >= 200 slots in total; the live set
  // of a periodic steady state is O(pattern height), independent of n.
  // The explicit before/after bound: >= 200 slots down to <= 16.
  const Ddg g = workloads::fig7_loop();
  const std::int64_t n = 200;
  const PartitionedProgram p = pattern_program(g, Machine{2, 2}, n);
  const CompiledProgram reuse = compile_program(p, g);
  EXPECT_GE(reuse.total_slots_ssa(), 200u);
  EXPECT_LE(reuse.total_slots(), 16u);
  // And the footprint no longer grows with n.
  const PartitionedProgram p2 = pattern_program(g, Machine{2, 2}, 2 * n);
  const CompiledProgram reuse2 = compile_program(p2, g);
  EXPECT_EQ(reuse2.total_slots(), reuse.total_slots());
}

TEST(SlotReuse, ReusedSlotsStayInBoundsAndOperandsResolve) {
  const Ddg g = workloads::random_connected_cyclic_loop(11);
  const std::int64_t n = 24;
  const PartitionedProgram p = pattern_program(g, Machine{4, 3}, n);
  const CompiledProgram cp = compile_program(p, g);
  for (const CompiledThread& t : cp.threads) {
    for (const CompiledOp& op : t.ops) {
      EXPECT_LT(op.slot, t.num_slots);  // writes and send-reads alike
    }
    for (const OperandRef& r : t.operands) {
      if (r.kind == OperandRef::Kind::LocalSlot) {
        EXPECT_LT(r.index, t.num_slots);
      }
    }
  }
}

TEST(SlotReuse, ExecutionBitIdenticalToSequential) {
  const Ddg g = workloads::fig7_loop();
  const std::int64_t n = 48;
  expect_reuse_matches_sequential(pattern_program(g, Machine{2, 2}, n), g,
                                  n);
}

TEST(SlotReuse, RandomLoopsBitIdenticalOnBothTiers) {
  for (const std::uint64_t seed : {5u, 13u, 21u}) {
    const Ddg g = workloads::random_connected_cyclic_loop(seed);
    const std::int64_t n = 16;
    EXPECT_EQ(testsupport::tiers_off_reference(
                  compile(pattern_program(g, Machine{4, 3}, n), g)),
              "")
        << "seed " << seed;
  }
}

TEST(SlotReuse, FullScheduleWorkloadsBitIdenticalToSequential) {
  const Ddg g = workloads::livermore18_loop();
  const std::int64_t n = 24;
  const FullSchedResult r = full_sched(g, Machine{4, 2}, n);
  expect_reuse_matches_sequential(lower(r.schedule, g), g, n);
}

}  // namespace
}  // namespace mimd
