// Seeded `.loop` source generator for the cold-compile workload.
//
// Every program is a fresh structure: 4..40 statements split over 1..3
// strands that share no array (fission bait), random
// latency annotations, IF statements, an optional `out` clause with dead
// statements (DCE bait) and fold / identity / strength-reduction bait in
// the expressions.
//
// The generator stays inside the pipeline's documented input class by
// construction, never by filtering on outcome:
//   * each strand has one base recurrence; every other recurrence reads
//     an earlier recurrence of its strand directly, so the strand's
//     Cyclic subset is connected (the cyclic scheduler's precondition)
//     before and after DCE — a live recurrence keeps its parent live;
//   * a distance-2 self-dependence always rides with a distance-1 term
//     (a distance-2-only recurrence unrolls into two parity components,
//     which parallelize() rejects with ParitySplitError by design);
//   * loop-carried reads target recurrences only, and distance-0 reads
//     target statements defined earlier, so no other cycle can form;
//   * every array is defined once; division is by nonzero constants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The number of statements of program `index` is the caller's draw
/// (statement_counts() lists the sizes it draws from); everything else is
/// a pure function of (seed, index).
std::string generate_loop_source(std::uint64_t seed, std::uint64_t index,
                                 int statements);

/// 16 program sizes, log-spaced over 4..40 statements: small loops
/// dominate, as in real code, and the few large ones set the tail.
std::vector<int> statement_counts();

}  // namespace perfbench
