#include <gtest/gtest.h>

#include "schedule/schedule.hpp"
#include "workloads/paper_examples.hpp"

namespace mimd {
namespace {

TEST(Schedule, PlaceAndLookup) {
  Schedule s(2);
  s.place(Inst{0, 0}, 0, 0, 1);
  s.place(Inst{1, 0}, 1, 3, 5);
  const auto p = s.lookup(Inst{1, 0});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->proc, 1);
  EXPECT_EQ(p->start, 3);
  EXPECT_EQ(p->finish, 5);
  EXPECT_FALSE(s.lookup(Inst{2, 0}).has_value());
  EXPECT_TRUE(s.contains(Inst{0, 0}));
}

TEST(Schedule, NextFreeAdvances) {
  Schedule s(2);
  EXPECT_EQ(s.next_free(0), 0);
  s.place(Inst{0, 0}, 0, 2, 6);
  EXPECT_EQ(s.next_free(0), 6);
  EXPECT_EQ(s.next_free(1), 0);
}

TEST(Schedule, RejectsOverlapOnSameProcessor) {
  Schedule s(1);
  s.place(Inst{0, 0}, 0, 0, 3);
  EXPECT_THROW(s.place(Inst{1, 0}, 0, 2, 4), ContractViolation);
  EXPECT_NO_THROW(s.place(Inst{1, 0}, 0, 3, 4));
}

TEST(Schedule, RejectsDuplicateInstance) {
  Schedule s(2);
  s.place(Inst{0, 0}, 0, 0, 1);
  EXPECT_THROW(s.place(Inst{0, 0}, 1, 0, 1), ContractViolation);
}

TEST(Schedule, RejectsBadProcessorAndTimes) {
  Schedule s(2);
  EXPECT_THROW(s.place(Inst{0, 0}, 2, 0, 1), ContractViolation);
  EXPECT_THROW(s.place(Inst{0, 0}, -1, 0, 1), ContractViolation);
  EXPECT_THROW(s.place(Inst{0, 0}, 0, 1, 1), ContractViolation);
}

TEST(Schedule, OnProcessorIsTimeSorted) {
  Schedule s(2);
  s.place(Inst{0, 0}, 0, 0, 1);
  s.place(Inst{1, 0}, 1, 0, 2);
  s.place(Inst{2, 0}, 0, 4, 5);
  const auto ops = s.on_processor(0);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].inst.node, 0u);
  EXPECT_EQ(ops[1].inst.node, 2u);
}

// The dense index widens its rows when a node id above every earlier one
// arrives, whether the table holds one iteration or several; every
// placement made before a widening stays reachable.
TEST(Schedule, NodeIdsFirstSeenOutOfOrderAndAboveEveryEarlierId) {
  Schedule s(2);
  s.place(Inst{5, 0}, 0, 0, 1);
  s.place(Inst{2, 0}, 1, 0, 1);
  s.place(Inst{9, 1}, 0, 1, 2);  // widens a two-row table
  s.place(Inst{0, 1}, 1, 1, 3);
  s.place(Inst{40, 3}, 0, 4, 6);  // widens past double the width
  s.place(Inst{7, 3}, 1, 3, 4);
  const std::vector<Inst> placed = {{5, 0}, {2, 0}, {9, 1},
                                    {0, 1}, {40, 3}, {7, 3}};
  for (std::size_t i = 0; i < placed.size(); ++i) {
    const auto p = s.lookup(placed[i]);
    ASSERT_TRUE(p.has_value()) << i;
    EXPECT_EQ(p->inst, placed[i]);
    EXPECT_EQ(*p, s.placements()[i]);
  }
  for (const Inst& never : {Inst{2, 1}, Inst{5, 3}, Inst{9, 0}, Inst{39, 3},
                            Inst{0, 2}, Inst{40, 0}}) {
    EXPECT_FALSE(s.lookup(never).has_value()) << never.node << "@" << never.iter;
  }
}

TEST(Schedule, LookupsPastTheLastIterationAndOfUnplacedInstances) {
  Schedule s(1);
  EXPECT_FALSE(s.lookup(Inst{0, 0}).has_value());  // empty table
  s.place(Inst{0, 0}, 0, 0, 1);
  s.place(Inst{1, 2}, 0, 1, 2);
  EXPECT_FALSE(s.lookup(Inst{0, 3}).has_value());
  EXPECT_FALSE(s.lookup(Inst{1, 1'000'000'000'000}).has_value());
  EXPECT_FALSE(s.lookup(Inst{0, 1}).has_value());  // row exists, unplaced
  EXPECT_FALSE(s.lookup(Inst{1, 0}).has_value());
  EXPECT_FALSE(s.lookup(Inst{7, 0}).has_value());  // beyond every column
  EXPECT_FALSE(s.lookup(Inst{0, -1}).has_value());
  EXPECT_FALSE(s.lookup(Inst{kInvalidNode, 0}).has_value());
  EXPECT_TRUE(s.lookup(Inst{1, 2}).has_value());
}

TEST(Schedule, ContainsExactlyThePlacedInstances) {
  Schedule s(3);
  for (std::int64_t i = 0; i < 6; ++i) {
    for (NodeId v = 0; v < 4; ++v) {
      if ((v + static_cast<NodeId>(i)) % 2 == 0) {
        const int proc = static_cast<int>(v % 3);
        s.place(Inst{v, i}, proc, s.next_free(proc), s.next_free(proc) + 1);
      }
    }
  }
  EXPECT_EQ(s.size(), 12u);
  for (std::int64_t i = -1; i < 8; ++i) {
    for (NodeId v = 0; v < 6; ++v) {
      const bool placed = i >= 0 && i < 6 && v < 4 &&
                          (v + static_cast<NodeId>(i)) % 2 == 0;
      EXPECT_EQ(s.contains(Inst{v, i}), placed) << v << "@" << i;
    }
  }
}

TEST(Schedule, DuplicateAfterTheTableGrowsIsStillAContractViolation) {
  Schedule s(2);
  s.place(Inst{3, 2}, 0, 0, 1);
  s.place(Inst{10, 5}, 1, 0, 1);  // wider and taller
  const std::vector<Placement> before = s.placements();
  EXPECT_THROW(s.place(Inst{3, 2}, 1, 5, 6), ContractViolation);
  EXPECT_THROW(s.place(Inst{10, 5}, 0, 5, 6), ContractViolation);
  EXPECT_EQ(s.placements(), before);
  EXPECT_EQ(s.next_free(0), 1);
  EXPECT_EQ(s.next_free(1), 1);
}

TEST(Schedule, RejectsNegativeIterationAndInvalidNode) {
  Schedule s(1);
  EXPECT_THROW(s.place(Inst{0, -1}, 0, 0, 1), ContractViolation);
  EXPECT_THROW(s.place(Inst{kInvalidNode, 0}, 0, 0, 1), ContractViolation);
  EXPECT_EQ(s.size(), 0u);
}

TEST(Schedule, PlacementsStayInAppendOrder) {
  Schedule s(3);
  const std::vector<Placement> made = {
      {Inst{4, 1}, 2, 0, 3}, {Inst{0, 0}, 0, 1, 2}, {Inst{2, 0}, 1, 0, 5},
      {Inst{1, 3}, 0, 2, 4}, {Inst{3, 0}, 2, 3, 4}, {Inst{0, 2}, 1, 9, 10},
      {Inst{6, 0}, 0, 4, 8}};
  for (const Placement& p : made) s.place(p.inst, p.proc, p.start, p.finish);
  EXPECT_EQ(s.placements(), made);
  EXPECT_EQ(s.on_processor(0),
            (std::vector<Placement>{made[1], made[3], made[6]}));
  EXPECT_EQ(s.makespan(), 10);
}

TEST(Schedule, MakespanIsMaxFinish) {
  Schedule s(2);
  EXPECT_EQ(s.makespan(), 0);
  s.place(Inst{0, 0}, 0, 0, 7);
  s.place(Inst{1, 0}, 1, 0, 4);
  EXPECT_EQ(s.makespan(), 7);
}

TEST(DependenceViolation, AcceptsValidSchedule) {
  const Ddg g = workloads::fig7_loop();
  const Machine m{2, 2};
  // Hand schedule of iteration 0 on one processor in topological order.
  Schedule s(2);
  std::int64_t t = 0;
  for (const char* n : {"A", "B", "C", "D", "E"}) {
    s.place(Inst{*g.find(n), 0}, 0, t, t + 1);
    ++t;
  }
  EXPECT_EQ(find_dependence_violation(g, m, s), std::nullopt);
}

TEST(DependenceViolation, FlagsMissingPredecessor) {
  const Ddg g = workloads::fig7_loop();
  const Machine m{2, 2};
  Schedule s(2);
  s.place(Inst{*g.find("B"), 0}, 0, 0, 1);  // B without A
  const auto v = find_dependence_violation(g, m, s);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("not scheduled"), std::string::npos);
  // The same schedule is fine as a declared-partial window.
  EXPECT_EQ(find_dependence_violation(g, m, s, /*partial=*/true),
            std::nullopt);
}

TEST(DependenceViolation, FlagsTooEarlySamProcessorStart) {
  const Ddg g = workloads::fig7_loop();
  const Machine m{2, 2};
  Schedule s(2);
  s.place(Inst{*g.find("A"), 0}, 0, 0, 1);
  s.place(Inst{*g.find("B"), 0}, 1, 0, 1);  // cross-proc, needs A + k
  const auto v = find_dependence_violation(g, m, s);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("ready at 3"), std::string::npos);  // 1 + k(2)
}

TEST(DependenceViolation, CrossIterationCommCost) {
  const Ddg g = workloads::fig7_loop();
  const Machine m{2, 2};
  Schedule ok(2);
  const NodeId a = *g.find("A"), b = *g.find("B"), c = *g.find("C"),
               d = *g.find("D"), e = *g.find("E");
  ok.place(Inst{a, 0}, 0, 0, 1);
  ok.place(Inst{b, 0}, 0, 1, 2);
  ok.place(Inst{c, 0}, 0, 2, 3);
  ok.place(Inst{d, 0}, 1, 0, 1);
  ok.place(Inst{e, 0}, 1, 1, 2);
  // A@1 needs A@0 (same proc: >= 1) and E@0 (cross: >= 2 + 2).
  ok.place(Inst{a, 1}, 0, 4, 5);
  EXPECT_EQ(find_dependence_violation(g, m, ok), std::nullopt);

  Schedule bad(2);
  bad.place(Inst{a, 0}, 0, 0, 1);
  bad.place(Inst{b, 0}, 0, 1, 2);
  bad.place(Inst{c, 0}, 0, 2, 3);
  bad.place(Inst{d, 0}, 1, 0, 1);
  bad.place(Inst{e, 0}, 1, 1, 2);
  bad.place(Inst{a, 1}, 0, 3, 4);  // E@0 arrives only at cycle 4
  EXPECT_TRUE(find_dependence_violation(g, m, bad).has_value());
}

TEST(Render, ShowsCellsAndIdleDots) {
  const Ddg g = workloads::fig7_loop();
  Schedule s(2);
  s.place(Inst{*g.find("A"), 0}, 0, 0, 1);
  s.place(Inst{*g.find("D"), 0}, 1, 0, 1);
  s.place(Inst{*g.find("B"), 0}, 0, 1, 2);
  const std::string r = render(s, g);
  EXPECT_NE(r.find("A@0"), std::string::npos);
  EXPECT_NE(r.find("D@0"), std::string::npos);
  EXPECT_NE(r.find("PE0"), std::string::npos);
  EXPECT_NE(r.find("."), std::string::npos);  // PE1 idle at cycle 1
}

TEST(Render, MultiCycleOpsShowContinuation) {
  Ddg g;
  g.add_node("M", 3);
  Schedule s(1);
  s.place(Inst{0, 0}, 0, 0, 3);
  const std::string r = render(s, g);
  EXPECT_NE(r.find("M@0"), std::string::npos);
  EXPECT_NE(r.find("|"), std::string::npos);
}

}  // namespace
}  // namespace mimd
