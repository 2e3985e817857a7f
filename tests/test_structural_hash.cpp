// structural_hash (partition/compiled_program.hpp) is the one key of
// PlanCache, ShardRouter and perfbench's replay.  These tests pin what it
// must tell apart — every value-relevant field of a program, its graph
// and its options, op order included — what it must not (node names),
// and how its keys spread over a fleet.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "partition/compiled_program.hpp"
#include "runtime/shard_router.hpp"
#include "support/loop_gen.hpp"

namespace mimd {
namespace {

struct Keyed {
  PartitionedProgram program;
  Ddg graph;
  CompileOptions copts;
};

std::uint64_t key(const Keyed& k) {
  return structural_hash(k.program, k.graph, k.copts);
}

/// loop_gen programs `first`..`last` at p = `procs`.
std::vector<Keyed> random_loops(std::uint64_t first, std::uint64_t last,
                                int procs) {
  testsupport::LoopGenOptions opts;
  opts.min_procs = opts.max_procs = procs;
  std::vector<Keyed> out;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    testsupport::GeneratedLoop gl = testsupport::generate_loop(seed, opts);
    out.push_back({std::move(gl.program), std::move(gl.graph), {}});
  }
  return out;
}

/// The 192 (structure, n) programs of perfbench's mixed-n: six structures
/// at p = 2, 32 trip counts log-spaced from 16 to 2048.
std::vector<Keyed> mixed_n_programs() {
  std::vector<Keyed> out;
  for (const auto& [name, g] : testsupport::hot_structures()) {
    for (int j = 0; j < 32; ++j) {
      const std::int64_t n = std::lround(16.0 * std::pow(128.0, j / 31.0));
      testsupport::HotProgram hp = testsupport::hot_program(g, 2, n);
      out.push_back({std::move(hp.program), std::move(hp.graph), {}});
    }
  }
  return out;
}

TEST(StructuralHash, EveryOpFieldIsCovered) {
  // Kind, node, iteration, edge and peer of every op of 20 programs, one
  // change at a time.
  for (const Keyed& k : random_loops(1, 20, 2)) {
    const std::uint64_t base = key(k);
    for (std::size_t pi = 0; pi < k.program.programs.size(); ++pi) {
      for (std::size_t oi = 0; oi < k.program.programs[pi].ops.size(); ++oi) {
        const auto changed = [&](auto&& edit) {
          Keyed m = k;
          edit(m.program.programs[pi].ops[oi]);
          return key(m);
        };
        const auto where = ::testing::Message() << "program " << pi << " op "
                                                << oi;
        EXPECT_NE(changed([](Op& op) {
                    op.kind = op.kind == Op::Kind::Compute ? Op::Kind::Send
                                                           : Op::Kind::Compute;
                  }),
                  base)
            << where;
        EXPECT_NE(changed([](Op& op) { ++op.inst.node; }), base) << where;
        EXPECT_NE(changed([](Op& op) { ++op.inst.iter; }), base) << where;
        EXPECT_NE(changed([](Op& op) { ++op.edge; }), base) << where;
        EXPECT_NE(changed([](Op& op) { ++op.peer; }), base) << where;
      }
    }
  }
}

TEST(StructuralHash, OpOrderAndPlacementAreCovered) {
  for (const Keyed& k : random_loops(21, 40, 2)) {
    const std::uint64_t base = key(k);
    for (std::size_t pi = 0; pi < k.program.programs.size(); ++pi) {
      const std::vector<Op>& ops = k.program.programs[pi].ops;
      for (std::size_t oi = 0; oi + 1 < ops.size(); ++oi) {
        if (ops[oi] == ops[oi + 1]) continue;
        Keyed swapped = k;
        std::swap(swapped.program.programs[pi].ops[oi],
                  swapped.program.programs[pi].ops[oi + 1]);
        EXPECT_NE(key(swapped), base) << "swap at " << pi << "/" << oi;
      }
      // The op moved to the end of the next processor's program.
      if (ops.empty()) continue;
      Keyed moved = k;
      auto& from = moved.program.programs[pi].ops;
      auto& to = moved.program.programs[(pi + 1) % k.program.programs.size()].ops;
      to.push_back(from.back());
      from.pop_back();
      EXPECT_NE(key(moved), base) << "moved from " << pi;
    }
  }
}

TEST(StructuralHash, ProcessorsProcIdsAndOptLevelAreCovered) {
  for (const Keyed& k : random_loops(41, 60, 4)) {
    const std::uint64_t base = key(k);
    Keyed m = k;
    ++m.program.processors;
    EXPECT_NE(key(m), base);
    for (std::size_t pi = 0; pi < k.program.programs.size(); ++pi) {
      m = k;
      m.program.programs[pi].proc += 7;
      EXPECT_NE(key(m), base) << "proc of program " << pi;
    }
    m = k;
    m.copts.opt = OptLevel::O1;
    EXPECT_NE(key(m), base);
  }
}

TEST(StructuralHash, ValueRelevantGraphFieldsAreCoveredAndNamesAreNot) {
  for (const Keyed& k : random_loops(61, 70, 2)) {
    const std::uint64_t base = key(k);
    const Ddg& g = k.graph;
    // Rebuild the graph with one node's latency or one edge's distance or
    // comm cost raised by one.
    const auto rebuilt = [&](std::size_t node, std::size_t edge, int field) {
      Ddg out;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        out.add_node(g.node(v).name,
                     g.node(v).latency + (field == 0 && v == node ? 1 : 0));
      }
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const Edge& ed = g.edge(e);
        out.add_edge(ed.src, ed.dst,
                     ed.distance + (field == 1 && e == edge ? 1 : 0),
                     ed.comm_cost + (field == 2 && e == edge ? 1 : 0));
      }
      return structural_hash(k.program, out, k.copts);
    };
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NE(rebuilt(v, 0, 0), base) << "latency of node " << v;
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_NE(rebuilt(0, e, 1), base) << "distance of edge " << e;
      EXPECT_NE(rebuilt(0, e, 2), base) << "comm cost of edge " << e;
    }
    EXPECT_EQ(structural_hash(k.program, testsupport::renamed_copy(g, "r_"),
                              k.copts),
              base);
  }
}

TEST(StructuralHash, SampleProgramHashIsPinned) {
  // The hash is a pure function of the structure, so it must read the
  // same in every process and every build; a change to the fold changes
  // these values and must be deliberate.  (Both were also computed by an
  // independent model of the fold in arbitrary-precision arithmetic.)
  Ddg g;
  g.add_node("A", 2);
  g.add_node("B", 1);
  g.add_edge(0u, 1u, 0, 3);
  g.add_edge(1u, 0u, 1);
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[0].ops = {Op{Op::Kind::Compute, Inst{0u, 0}, 0u, -1},
                       Op{Op::Kind::Send, Inst{0u, 0}, 0u, 1}};
  p.programs[1].proc = 1;
  p.programs[1].ops = {Op{Op::Kind::Receive, Inst{0u, 0}, 0u, 0},
                       Op{Op::Kind::Compute, Inst{1u, 0}, 0u, -1}};
  EXPECT_EQ(structural_hash(g), 0x7D593C2A1DC9480Eull);
  EXPECT_EQ(structural_hash(p, g), 0xC2F65001462F1798ull);
}

TEST(StructuralHash, MixedNAndRandomLoopsHashToDistinctKeysThatSpreadOverShards) {
  std::vector<Keyed> all = mixed_n_programs();
  for (const int procs : {2, 4}) {
    for (Keyed& k : random_loops(1, 1000, procs)) all.push_back(std::move(k));
  }
  // A shared key is only allowed between structurally equal inputs.
  std::unordered_map<std::uint64_t, std::size_t> first_with;
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::uint64_t h = key(all[i]);
    const auto [it, fresh] = first_with.try_emplace(h, i);
    if (fresh) {
      keys.push_back(h);
      continue;
    }
    const Keyed& other = all[it->second];
    EXPECT_TRUE(other.program == all[i].program &&
                structurally_equivalent(other.graph, all[i].graph))
        << "inputs " << it->second << " and " << i << " collide";
  }
  EXPECT_GE(keys.size(), 192u + 1000u);

  constexpr std::size_t kShards = 4;
  ShardRouterOptions opts;
  for (std::size_t s = 0; s < kShards; ++s) {
    opts.endpoints.push_back("/tmp/mimd-hash-spread-" + std::to_string(s) +
                             ".sock");
  }
  const ShardRouter router(opts);
  std::vector<std::size_t> per_shard(kShards, 0);
  for (const std::uint64_t h : keys) ++per_shard[router.shard_for(h)];
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(per_shard[s], 0u) << "shard " << s;
    EXPECT_LE(per_shard[s] * kShards, 2 * keys.size()) << "shard " << s;
  }
}

}  // namespace
}  // namespace mimd
