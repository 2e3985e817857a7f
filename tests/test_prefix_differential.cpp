// The prefix differential: full_sched, which schedules only the requested
// iterations, against the reference scheduler (tests/support/
// reference_full_sched.hpp), which detects every pattern in full.
//
// On every input both must agree on the placements (in order), the
// classification, the processor counts, steady_ii and the error raised.
// A result that carries a pattern carries the reference's; one that
// stopped at n without a pattern must be materialize() of the pattern
// steady_state_pattern detects, and that pattern must be the reference's.
// The reference runs on frozen copies of the hash-map Cyclic-sched and
// the sort-based materialize, prefix_schedule and lower
// (tests/support/reference_schedule.hpp), so the library's dense tables
// and timeline merges are compared with the code they replaced; on the
// generated loops and the hot structures the lowered programs must agree
// op for op as well.
//
// Inputs: generated `.loop` programs through the O1 mid-end at p = 2 and
// p = 4, the O1 strands of the committed `.loop` files, the six
// structures perfbench's mixed-n workload serves, at five processor
// counts and its 32 trip counts, random all-Cyclic graphs at tiny trip
// counts, and the Cyclic subsets of the two slow-to-settle strands in
// tests/loops/pattern_horizon_*.loop, detected in full.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "classify/classify.hpp"
#include "graph/unwind.hpp"
#include "ir/dependence.hpp"
#include "ir/ifconvert.hpp"
#include "ir/parser.hpp"
#include "opt/pipeline.hpp"
#include "partition/lowering.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/full_sched.hpp"
#include "support/loop_gen.hpp"
#include "support/reference_full_sched.hpp"
#include "support/reference_schedule.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {
namespace {

using testsupport::reference_cyclic_sched;
using testsupport::reference_full_sched;
using testsupport::reference_lower;

/// What one scheduler made of one input: a result or an error.
struct Outcome {
  std::optional<FullSchedResult> result;
  std::string error;  ///< "<type>: <message>" when result is empty
};

template <typename F>
Outcome outcome_of(F&& schedule) {
  try {
    return Outcome{schedule(), {}};
  } catch (const PatternNotFoundError& e) {
    return Outcome{std::nullopt, std::string("PatternNotFoundError: ") + e.what()};
  } catch (const ContractViolation&) {
    // The message names the source line, which differs between the two.
    return Outcome{std::nullopt, "ContractViolation"};
  }
}

bool same_pattern(const Pattern& a, const Pattern& b) {
  return a.prologue == b.prologue && a.kernel == b.kernel &&
         a.period_iters == b.period_iters &&
         a.period_cycles == b.period_cycles && a.first_iter == b.first_iter;
}

/// Tallies over one suite, so each can show that both of its paths ran.
struct Tally {
  int inputs = 0;
  int with_pattern = 0;  ///< non-DOALL results that kept their pattern
  int cut_at_n = 0;      ///< non-DOALL results that stopped at n without one
  int errors = 0;        ///< inputs on which both raised the same error
  /// Inputs on which the reference raised an error and full_sched
  /// returned a schedule.
  std::vector<std::string> error_to_prefix;
  /// When set, the lowered programs of every input that both schedule
  /// are compared too, and counted in `lowered`.
  bool compare_lowered = false;
  int lowered = 0;
};

/// Cached steady_state_pattern per (graph, machine) for inputs swept over
/// many trip counts: the pattern does not depend on n.
using PatternCache = std::map<std::string, Pattern>;

/// Compare full_sched against the reference on one input.
void check_input(const std::string& name, const Ddg& g, const Machine& m,
                 std::int64_t n, const FullSchedOptions& opts, Tally& tally,
                 PatternCache* cache = nullptr) {
  SCOPED_TRACE(name);
  ++tally.inputs;
  const Outcome ref =
      outcome_of([&] { return reference_full_sched(g, m, n, opts); });
  const Outcome now = outcome_of([&] { return full_sched(g, m, n, opts); });
  if (!ref.result.has_value()) {
    if (now.result.has_value()) {
      tally.error_to_prefix.push_back(name);
      // The prefix is what the reference schedules under the default
      // bound, which it does not meet.
      FullSchedOptions bounded = opts;
      bounded.cyclic.max_iterations = CyclicSchedOptions{}.max_iterations;
      EXPECT_EQ(now.result->schedule.placements(),
                reference_full_sched(g, m, n, bounded).schedule.placements());
    } else {
      EXPECT_EQ(now.error, ref.error);
      ++tally.errors;
    }
    return;
  }
  ASSERT_TRUE(now.result.has_value()) << now.error;
  const FullSchedResult& want = *ref.result;
  const FullSchedResult& got = *now.result;

  EXPECT_EQ(got.schedule.placements(), want.schedule.placements());
  EXPECT_EQ(got.schedule.processors(), want.schedule.processors());
  EXPECT_EQ(got.classification.kind, want.classification.kind);
  EXPECT_EQ(got.classification.flow_in, want.classification.flow_in);
  EXPECT_EQ(got.classification.cyclic, want.classification.cyclic);
  EXPECT_EQ(got.classification.flow_out, want.classification.flow_out);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.processors_used, want.processors_used);
  EXPECT_EQ(got.cyclic_processors, want.cyclic_processors);
  EXPECT_EQ(got.flow_in_processors, want.flow_in_processors);
  EXPECT_EQ(got.flow_out_processors, want.flow_out_processors);
  EXPECT_EQ(got.steady_ii, want.steady_ii);
  if (tally.compare_lowered) {
    ++tally.lowered;
    const PartitionedProgram now_prog = lower(got.schedule, g);
    const PartitionedProgram ref_prog = reference_lower(want.schedule, g);
    EXPECT_TRUE(now_prog == ref_prog)
        << now_prog.total_ops() << " ops vs " << ref_prog.total_ops();
  }

  if (!want.pattern.has_value()) {
    EXPECT_TRUE(want.classification.is_doall());
    EXPECT_FALSE(got.pattern.has_value());
    return;
  }
  if (got.pattern.has_value()) {
    ++tally.with_pattern;
    EXPECT_TRUE(same_pattern(*got.pattern, *want.pattern));
    return;
  }
  ++tally.cut_at_n;
  const std::string key = name.substr(0, name.rfind(" n="));
  const Pattern detected = [&] {
    if (cache != nullptr) {
      const auto it = cache->find(key);
      if (it != cache->end()) return it->second;
    }
    Pattern p = steady_state_pattern(g, m, opts.cyclic);
    if (cache != nullptr) cache->emplace(key, p);
    return p;
  }();
  EXPECT_TRUE(same_pattern(detected, *want.pattern));
  EXPECT_EQ(got.schedule.placements(),
            materialize(detected, m.processors, n).placements());
}

/// The strands mimdc schedules for `source`: parsed, if-converted and run
/// through the O1 mid-end, fission included.
std::vector<Ddg> o1_strand_graphs(const std::string& source) {
  const ir::Loop raw = ir::parse_loop(source);
  opt::OptOptions oopts;
  oopts.level = OptLevel::O1;
  std::vector<Ddg> out;
  for (const ir::Loop& strand :
       opt::optimize(raw.has_control_flow() ? ir::if_convert(raw) : raw, oopts)
           .loops) {
    out.push_back(ir::analyze_dependences(strand).graph);
  }
  return out;
}

/// Normalize as parallelize() does, then compare at the normalized trip
/// count.
void check_loop(const std::string& name, const Ddg& loop, const Machine& m,
                std::int64_t iterations, const FullSchedOptions& opts,
                Tally& tally, PatternCache* cache = nullptr) {
  const Unrolled u = normalize_distances(loop);
  const std::int64_t n = (iterations + u.factor - 1) / u.factor;
  check_input(name + " p=" + std::to_string(m.processors) +
                  " n=" + std::to_string(n),
              u.graph, m, n, opts, tally, cache);
}

std::string report(const Tally& t) {
  std::ostringstream out;
  out << t.inputs << " inputs: " << t.with_pattern << " kept the pattern, "
      << t.cut_at_n << " stopped at n, " << t.errors << " same error";
  return out.str();
}

TEST(PrefixDifferential, GeneratedLoopsAtP2AndP4) {
  Tally tally;
  tally.compare_lowered = true;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const testsupport::GeneratedIrLoop gen = testsupport::random_ir_loop(seed);
    const std::vector<Ddg> strands = o1_strand_graphs(gen.source);
    for (std::size_t s = 0; s < strands.size(); ++s) {
      for (const int p : {2, 4}) {
        check_loop(gen.tag + "[" + std::to_string(s) + "]", strands[s],
                   Machine{p, 1}, 64, {}, tally);
      }
    }
  }
  std::cout << report(tally) << "\n";
  EXPECT_GE(tally.inputs, 600);
  EXPECT_EQ(tally.lowered, tally.inputs - tally.errors);
  EXPECT_GT(tally.with_pattern, 0);
  EXPECT_GT(tally.cut_at_n, 0);
  EXPECT_EQ(tally.error_to_prefix, std::vector<std::string>{});
}

std::vector<std::filesystem::path> loop_files() {
  std::vector<std::filesystem::path> out;
  for (const char* dir : {MIMD_TEST_LOOPS_DIR, MIMD_EXAMPLE_LOOPS_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".loop") out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PrefixDifferential, LoopFileStrandsAtEveryStrategy) {
  Tally tally;
  const auto files = loop_files();
  ASSERT_GE(files.size(), 7u);
  for (const auto& file : files) {
    std::ifstream in(file);
    std::ostringstream source;
    source << in.rdbuf();
    const std::vector<Ddg> strands = o1_strand_graphs(source.str());
    for (std::size_t s = 0; s < strands.size(); ++s) {
      for (const FlowStrategy strategy :
           {FlowStrategy::SeparateProcessors, FlowStrategy::Fold}) {
        FullSchedOptions opts;
        opts.flow_strategy = strategy;
        for (const int p : {1, 2, 3, 4, 8}) {
          check_loop(file.filename().string() + "[" + std::to_string(s) +
                         "]" + (strategy == FlowStrategy::Fold ? " fold" : ""),
                     strands[s], Machine{p, 1}, 64, opts, tally);
        }
      }
    }
  }
  std::cout << report(tally) << "\n";
  EXPECT_GT(tally.with_pattern, 0);
  EXPECT_GT(tally.cut_at_n, 0);
  EXPECT_EQ(tally.error_to_prefix, std::vector<std::string>{});
}

TEST(PrefixDifferential, HotStructuresAtEveryProcessorCountAndTripCount) {
  using namespace workloads;
  const std::vector<std::pair<std::string, Ddg>> structures = {
      {"fig7", fig7_loop()},
      {"cytron86", cytron86_loop()},
      {"elliptic", elliptic_filter_loop()},
      {"ll18", livermore18_loop()},
      {"ll6", ll6_linear_recurrence()},
      {"ll20", ll20_discrete_ordinates()}};
  // mixed-n's trip counts: 32, log-spaced over 16..2048.
  std::vector<std::int64_t> trips;
  for (int j = 0; j < 32; ++j) {
    trips.push_back(std::lround(16.0 * std::pow(128.0, j / 31.0)));
  }
  Tally tally;
  tally.compare_lowered = true;
  PatternCache cache;
  for (const auto& [name, g] : structures) {
    for (const int p : {1, 2, 3, 4, 8}) {
      for (const std::int64_t n : trips) {
        check_loop(name, g, Machine{p, 1}, n, {}, tally, &cache);
      }
    }
  }
  std::cout << report(tally) << "\n";
  EXPECT_EQ(tally.inputs, 6 * 5 * 32);
  EXPECT_EQ(tally.lowered, tally.inputs);
  EXPECT_GT(tally.with_pattern, 0);
  EXPECT_GT(tally.cut_at_n, 0);
  EXPECT_EQ(tally.error_to_prefix, std::vector<std::string>{});
}

// The two strands whose Cyclic subsets settle only after thousands of
// iterations at p = 4: Cyclic-sched detected in full must stop at the
// same checkpoint with the same schedule and the same Pattern as the
// hash-map reference, every field included.
TEST(PrefixDifferential, HorizonStrandCyclicSubsetsDetectTheReferencePattern) {
  const Machine m{4, 1};
  for (const char* seed : {"707", "810"}) {
    SCOPED_TRACE(seed);
    std::ifstream in(std::string(MIMD_TEST_LOOPS_DIR) + "/pattern_horizon_" +
                     seed + ".loop");
    std::ostringstream source;
    source << in.rdbuf();
    const Ddg strand =
        normalize_distances(o1_strand_graphs(source.str()).front()).graph;
    const Ddg sub = cyclic_subgraph(strand, classify(strand), nullptr);
    const CyclicSchedResult now = cyclic_sched(sub, m);
    const CyclicSchedResult ref = reference_cyclic_sched(sub, m);
    ASSERT_TRUE(ref.pattern.has_value());
    ASSERT_TRUE(now.pattern.has_value());
    std::cout << "pattern_horizon_" << seed << ": pattern after "
              << ref.iterations_scheduled << " iterations, "
              << ref.pattern->prologue.size() << " prologue + "
              << ref.pattern->kernel.size() << " kernel placements\n";
    EXPECT_GT(ref.iterations_scheduled, 8000);
    EXPECT_EQ(now.iterations_scheduled, ref.iterations_scheduled);
    EXPECT_TRUE(same_pattern(*now.pattern, *ref.pattern));
    EXPECT_TRUE(now.schedule.placements() == ref.schedule.placements());
  }
}

// Loops that are all Cyclic, at trip counts so small that the first n
// iterations can leave processors idle which the pattern occupies: the
// reported cyclic_processors is still the pattern's.
TEST(PrefixDifferential, AllCyclicGraphsAtSmallTripCounts) {
  Tally tally;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    for (const std::size_t nodes : {6u, 40u}) {
      workloads::RandomLoopSpec spec;
      spec.nodes = nodes;
      spec.loop_carried = nodes / 2;
      spec.simple = nodes / 2;
      const Ddg g = workloads::random_connected_cyclic_loop(seed, spec);
      for (const int p : {2, 4, 8}) {
        for (const int k : {0, 1}) {
          for (const std::int64_t n : {1, 2, 64}) {
            check_loop("random_connected_cyclic_loop(" + std::to_string(seed) +
                           ", " + std::to_string(nodes) +
                           " nodes) k=" + std::to_string(k),
                       g, Machine{p, k}, n, {}, tally);
          }
        }
      }
    }
  }
  std::cout << report(tally) << "\n";
  EXPECT_GT(tally.with_pattern, 0);
  EXPECT_GT(tally.cut_at_n, 0);
  EXPECT_EQ(tally.error_to_prefix, std::vector<std::string>{});
}

// Under a bound the whole graph meets before its pattern, the reference
// fails wherever it folds or the loop is all Cyclic.  full_sched fails
// the same way for n past the bound, and returns the prefix up to it.
TEST(PrefixDifferential, SmallBoundFailsTheSameWayOrReturnsThePrefix) {
  FullSchedOptions opts;
  opts.cyclic.max_iterations = 24;
  Tally tally;
  for (const auto& [name, g] :
       {std::pair<std::string, Ddg>{"fig7", workloads::fig7_loop()},
        {"cytron86", workloads::cytron86_loop()},
        {"elliptic", workloads::elliptic_filter_loop()}}) {
    for (const int p : {2, 4}) {
      for (const std::int64_t n : {16, 24, 25, 64}) {
        check_loop(name, g, Machine{p, 1}, n, opts, tally);
      }
    }
  }
  std::cout << report(tally) << "\n";
  EXPECT_EQ(tally.errors, 16);
  // At p = 4 fig7 leaves a processor idle in its first n iterations, so
  // it runs on into the bound, and cytron86 takes the pool path.
  EXPECT_EQ(tally.error_to_prefix,
            std::vector<std::string>({"fig7 p=2 n=16", "fig7 p=2 n=24",
                                      "cytron86 p=2 n=16", "cytron86 p=2 n=24",
                                      "elliptic p=2 n=16", "elliptic p=2 n=24",
                                      "elliptic p=4 n=16",
                                      "elliptic p=4 n=24"}));
}

// Two recurrences joined only by a Flow-out node: the Cyclic subset is
// disconnected, which the SeparateProcessors run rejects as a contract
// violation even where the pools could never fit; Fold schedules the
// connected whole graph.
TEST(PrefixDifferential, DisconnectedCyclicSubsetFailsTheSameWay) {
  Ddg g;
  const NodeId x = g.add_node("X");
  const NodeId y = g.add_node("Y", 2);
  const NodeId z = g.add_node("Z");
  g.add_edge(x, x, 1);
  g.add_edge(y, y, 1);
  g.add_edge(x, z, 0);
  g.add_edge(y, z, 0);
  Tally tally;
  for (const FlowStrategy strategy :
       {FlowStrategy::SeparateProcessors, FlowStrategy::Fold}) {
    FullSchedOptions opts;
    opts.flow_strategy = strategy;
    for (const int p : {1, 2, 4}) {
      check_loop(strategy == FlowStrategy::Fold ? "xyz fold" : "xyz", g,
                 Machine{p, 1}, 16, opts, tally);
    }
  }
  EXPECT_EQ(tally.errors, 3);
  EXPECT_EQ(tally.inputs - tally.errors, 3);
  EXPECT_EQ(tally.error_to_prefix, std::vector<std::string>{});
}

// Horizon mode never detects, so every non-DOALL path raised
// PatternNotFoundError before, and still does.
TEST(PrefixDifferential, HorizonModeKeepsTheReferenceOutcome) {
  FullSchedOptions opts;
  opts.cyclic.horizon_iterations = 40;
  Tally tally;
  for (const FlowStrategy strategy :
       {FlowStrategy::SeparateProcessors, FlowStrategy::Fold}) {
    opts.flow_strategy = strategy;
    for (const int p : {1, 2, 8}) {
      check_loop("cytron86", workloads::cytron86_loop(), Machine{p, 2}, 20,
                 opts, tally);
      check_loop("fig7", workloads::fig7_loop(), Machine{p, 2}, 20, opts,
                 tally);
    }
  }
  EXPECT_EQ(tally.errors, tally.inputs);
}

}  // namespace
}  // namespace mimd
