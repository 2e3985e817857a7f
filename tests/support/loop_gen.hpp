// Shared random-loop-*program* generator for the differential suites.
//
// workloads/random_loops.hpp generates random *graphs* (the paper's
// Table 1 population); every differential suite then needs the same
// follow-on steps — pick a machine, schedule (cyclic pattern when one is
// found, full schedule otherwise), lower to a PartitionedProgram — and
// until PR 5 each suite carried its own copy of that pipeline.  This is
// the one shared implementation: a seeded generator whose every choice
// (machine size, k, iteration count, schedule path) comes from one
// mt19937_64, so a seed names a complete reproducible test program across
// the C-codegen differential tests, the plan-server fuzz suite, and the
// daemon integration tests.
//
// The generator validates its own output: the program is compiled once
// (compile_program runs find_program_violation) before it is returned, so
// a generator bug surfaces as a loud ContractViolation at generation
// time, never as a mysterious downstream mismatch.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "graph/ddg.hpp"
#include "partition/partitioned_loop.hpp"
#include "runtime/executor.hpp"
#include "schedule/machine.hpp"

namespace mimd::testsupport {

struct LoopGenOptions {
  int min_procs = 2;
  int max_procs = 4;
  int min_k = 1;
  int max_k = 3;
  std::int64_t min_iterations = 6;
  std::int64_t max_iterations = 16;
  /// Occasionally lower through full_sched even when a cyclic pattern
  /// exists, so both lowering paths stay covered.
  bool mix_schedule_paths = true;
};

struct GeneratedLoop {
  /// Stable human-readable id, e.g. "rand7_p4k2" — used as file/test tags.
  std::string tag;
  Ddg graph;
  PartitionedProgram program;
  Machine machine;
  /// The compiled iteration count (1 + largest compute iteration): the
  /// exact `n` to pass to ExecutorPlan::run and run_sequential.
  std::int64_t iterations = 0;
};

/// Deterministic per seed: equal seeds (and options) produce structurally
/// identical programs, byte for byte.
GeneratedLoop generate_loop(std::uint64_t seed, const LoopGenOptions& opts = {});

/// A copy of `p` with one to three seeded random edits of the kinds a
/// broken lowering or a hostile client produces: drop, duplicate or swap
/// adjacent ops, retarget a message's peer (possibly to an absent
/// processor), shift an iteration (possibly below zero), or swap two
/// receives of one channel.  The validator differential and the compiled
/// digests draw their mutants from here.
PartitionedProgram mutated_program(const PartitionedProgram& p,
                                   std::mt19937_64& rng);

/// A copy of `p` in which processors can wait on each other: one seeded
/// receive moves to the front of its program, behind every earlier
/// receive of its own channel (so FIFO order still holds) but ahead of
/// the sends its peer may be waiting for.  Unchanged when no receive can
/// move.
PartitionedProgram cross_wait_mutant(const PartitionedProgram& p,
                                     std::mt19937_64& rng);

/// A copy of `p` in which two seeded processors forward one value in a
/// circle: each now starts by receiving the value of one of `p`'s sends
/// from the other and sending it back, so both wait forever.  Unchanged
/// when `p` has fewer than two programs or no send.
PartitionedProgram circular_forward_mutant(const PartitionedProgram& p,
                                           std::mt19937_64& rng);

/// The smallest deadlock the validator's first rules all pass (two nodes
/// A and B, edges A->B and B->A at distance 1): PE0 receives B@1 from
/// PE1, computes A@2 and A@0 and sends A@0; PE1 receives A@0, computes
/// B@1 and sends it.  Each waits for the other's send.
struct HandBuiltLoop {
  Ddg graph;
  PartitionedProgram program;
};
HandBuiltLoop two_node_cross_wait();

/// The interpreted tiers whose run of `plan` over its n iterations
/// differs from run_reference: "" when both match bit for bit, else
/// "one-thread", "gang" or "one-thread, gang".  The gang runs on `pool`,
/// or on the process pool when null.
std::string tiers_off_reference(const ExecutorPlan& plan,
                                WorkerPool* pool = nullptr);

/// The six hot structures of perfbench's `warm-serve` and `mixed-n`
/// workloads, by name: fig7, cytron86, elliptic, LL18, LL6, LL20.
std::vector<std::pair<std::string, Ddg>> hot_structures();

/// The program and normalized graph mixed-n's client submits for `g`:
/// parallelize() on Machine{p, 1} for n original iterations.
struct HotProgram {
  PartitionedProgram program;
  Ddg graph;
};
HotProgram hot_program(const Ddg& g, int p, std::int64_t n);

/// A structurally identical copy of `g` with every node renamed by
/// `prefix` — same latencies, same edges.  structural_hash ignores names,
/// so submitting a renamed copy must be a plan-cache *hit*; the
/// concurrent-client stress tests use exactly this to prove
/// cross-connection sharing.
Ddg renamed_copy(const Ddg& g, const std::string& prefix);

/// Random *IR-level* loop for the rewrite mid-end's differentials
/// (tests/test_opt_passes.cpp): where generate_loop fuzzes DDG shapes,
/// this fuzzes `.loop` surface programs — returned as parseable source.
///
/// Construction guarantees, so every generated program survives the full
/// pipeline at O1:
///   * 1..3 independent strands over disjoint array name spaces (fission
///     bait); every secondary recurrence in a strand reads the strand's
///     base recurrence, so each post-fission strand has a *connected*
///     cyclic subset (the cyclic scheduler's precondition);
///   * distance-2 self-deps always ride with a distance-1 term: a
///     recurrence whose only distance is 2 makes normalize_distances
///     unroll x2, and consumers reading A[i-1] then split the unrolled
///     graph into two parity components the scheduler rejects;
///   * expressions are salted with foldable subtrees, exact identities
///     (x*1, x/1, x-0, -(-x)), strength-reduction bait (x*2, x/2) and
///     occasional IF statements (select coverage);
///   * division only by nonzero constants;
///   * about half the programs carry an `out` clause that leaves some
///     statements dead (DCE bait) — possibly whole strands.
struct GeneratedIrLoop {
  std::string tag;     ///< e.g. "irloop7_s2"
  std::string source;  ///< parseable .loop text
  int strands = 1;     ///< independent strands the generator laid out
};

struct IrLoopGenOptions {
  /// Let a strand's base recurrence be distance-2-only (`A[i] = A[i-2]
  /// ...` with no distance-1 term).  Such a loop unrolls x2 into two
  /// parity components and the pipeline rejects it with a typed
  /// ParitySplitError — historically the generator quietly avoided the
  /// shape to dodge the then-opaque scheduler contract trip.  Off by
  /// default so the differential suites keep fuzzing schedulable
  /// programs; on for the suite that pins the diagnostic itself.
  bool allow_parity_splits = false;
};

GeneratedIrLoop random_ir_loop(std::uint64_t seed,
                               const IrLoopGenOptions& opts = {});

}  // namespace mimd::testsupport
