// The complete scheduling pipeline (paper Figure 6):
//   1. classify nodes (Flow-in / Cyclic / Flow-out),
//   2. schedule the Cyclic subset with Cyclic-sched (pattern detection),
//   3. schedule Flow-in with Flow-in-sched,
//   4. schedule Flow-out with Flow-out-sched,
// materialized for a concrete iteration count N into one combined schedule
// over the original graph's node ids.
//
// Two strategies for the non-Cyclic nodes:
//   * SeparateProcessors — the paper's Figure 5: a dedicated round-robin
//     pool of ceil(L*Di/H) processors per flow subset.  The Cyclic part is
//     shifted right by the smallest constant that satisfies every
//     Flow-in -> Cyclic dependence (the transformed loops of Figure 10 do
//     the same thing dynamically with RECEIVEs).
//   * Fold — the Section-3 heuristic: schedule the *whole* graph greedily
//     with Cyclic-sched, letting non-Cyclic nodes fall into idle slots of
//     the Cyclic processors ("combine the non-Cyclic nodes into the idle
//     processor").
//
// DOALL loops (empty Cyclic subset) are dispatched to a plain round-robin
// iteration schedule — the paper declares them out of scope ("Note that if
// there are no Cyclic nodes, the loop is a DOALL loop") but downstream
// users still need them handled.
//
// Only the requested iterations are scheduled.  A greedy run over the
// whole graph (Fold, or a loop that is all Cyclic) stops once iterations
// [0, N) are placed if no pattern has shown up by then, and the
// SeparateProcessors run stops as soon as the Cyclic part holds more
// processors than the flow pools could leave it (DESIGN.md, "Scheduling
// only the requested prefix").
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>

#include "classify/classify.hpp"
#include "graph/ddg.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/machine.hpp"
#include "schedule/pattern.hpp"
#include "schedule/schedule.hpp"

namespace mimd {

enum class FlowStrategy { SeparateProcessors, Fold };

/// Thrown when Cyclic-sched needs a pattern and finds none within
/// CyclicSchedOptions::max_iterations: by full_sched (and so by
/// parallelize()) on the Flow-in/Flow-out pool path, for an all-Cyclic
/// loop that meets the bound before it occupies every processor, or for
/// a request of more iterations than the bound, and by
/// steady_state_pattern.  The
/// throttle makes detection terminate for every connected graph, but how
/// long it takes grows with the processor count and the graph's shape
/// (DESIGN.md, "Pattern detection bound"); the bound is the safety net,
/// and meeting it is an answer the caller can act on — raise the bound or
/// pick another processor count — not an invariant failure.
class PatternNotFoundError : public std::runtime_error {
 public:
  PatternNotFoundError(int processors, std::int64_t max_iterations);

  [[nodiscard]] int processors() const { return processors_; }
  [[nodiscard]] std::int64_t max_iterations() const {
    return max_iterations_;
  }

 private:
  int processors_;
  std::int64_t max_iterations_;
};

struct FullSchedOptions {
  FlowStrategy flow_strategy = FlowStrategy::SeparateProcessors;
  CyclicSchedOptions cyclic;
};

struct FullSchedResult {
  Classification classification;
  /// The detected steady-state pattern.  For SeparateProcessors its
  /// placements use *original* graph node ids but cover only Cyclic nodes;
  /// for Fold, and for a loop that is all Cyclic, it covers the whole
  /// graph.  Empty for DOALL loops, and when a greedy run of the whole
  /// graph placed iterations [0, N) before detecting it: the schedule is
  /// then that prefix, and steady_state_pattern(g, m, opts.cyclic)
  /// returns the pattern a longer run finds.
  std::optional<Pattern> pattern;
  /// Combined schedule of iterations [0, N) over original node ids.
  Schedule schedule;
  std::int64_t iterations = 0;
  int processors_used = 0;        ///< processors with at least one placement
  int cyclic_processors = 0;      ///< used by the Cyclic pattern
  int flow_in_processors = 0;     ///< pool size for Flow-in
  int flow_out_processors = 0;    ///< pool size for Flow-out
  /// Asymptotic cycles per iteration, measured as the completion-time slope
  /// over the second half of the materialized schedule.
  double steady_ii = 0.0;
};

FullSchedResult full_sched(const Ddg& g, const Machine& m,
                           std::int64_t iterations,
                           const FullSchedOptions& opts = {});

/// Cyclic-sched's steady-state pattern for the whole of `g`, detected in
/// full; PatternNotFoundError at the detection bound.  For a non-DOALL
/// full_sched result without a pattern this is the pattern it would have
/// carried, and the result's schedule is materialize() of it.
Pattern steady_state_pattern(const Ddg& g, const Machine& m,
                             const CyclicSchedOptions& opts = {});

/// Completion-time slope of `sched` between iterations n/2 and n-1 — the
/// measured asymptotic initiation interval of any finite schedule.
double measure_steady_ii(const Schedule& sched, std::int64_t n);

}  // namespace mimd
