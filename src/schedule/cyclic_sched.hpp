// Algorithm Cyclic-sched (paper Figure 4): greedy list scheduling of the
// infinitely unwound loop onto P processors with communication costs.
//
// Every ready instance is assigned to the processor that can start it
// earliest — T(v,Pj) = max(next_free[Pj], data_ready(v,Pj)) where
// data_ready accounts for the finish time of each predecessor plus the
// edge's communication cost when the predecessor sits on a different
// processor.  Ties pick the *first minimum* (lowest processor index), and
// the ready queue is totally ordered by (iteration, intra-iteration
// topological rank, node id) — the "consistent fixed order" footnote 7
// requires for a pattern to emerge.
//
// Pattern detection: after every iteration becomes fully scheduled we
// serialize the complete scheduler state relative to the current time
// origin (per-processor next-free offsets, the recent iterations'
// completion times the throttle reads, and every scheduled instance that
// still has unscheduled successors; the ready queue is the same at every
// checkpoint and is left out).  Two equal signatures mean the scheduler —
// a deterministic machine — will repeat everything in between forever
// (the constructive form of Lemmas 5-7).  A signature is a flat byte
// string: each value a zigzag varint, each variable-length section behind
// its length, so equal strings mean equal states.
//
// The queue always serves the lowest incomplete iteration, so iterations
// complete in order and every per-instance count (predecessors and
// successors still unplaced, the ready set) lives in a ring of four
// iteration rows indexed by node and rank: nothing is allocated per
// instance (DESIGN.md, "Dense schedule tables").
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "graph/ddg.hpp"
#include "schedule/machine.hpp"
#include "schedule/pattern.hpp"
#include "schedule/schedule.hpp"

namespace mimd {

/// Ready-queue priority among instances of the same iteration (footnote 7
/// allows any consistent order; the choice shapes which operations win
/// processor slots on ties).
enum class ReadyOrder {
  /// Intra-iteration topological rank, ties by node id — the paper's
  /// "lexicographical ordering" reading.  Default.
  Topological,
  /// Critical-path height (longest intra-iteration path to a sink)
  /// descending — classic list-scheduling priority; keeps binding
  /// recurrences from being preempted by slack-rich side operations.
  CriticalPath,
};

struct CyclicSchedOptions {
  ReadyOrder order = ReadyOrder::Topological;
  /// Upper bound on unwinding before giving up on pattern detection (the
  /// paper's M is "typically very small, less than 10"; the bound is a
  /// safety net, not a tuning knob).  Generated loops at p = 4 have needed
  /// up to ~11k iterations to settle (tests/test_parallelizer.cpp pins
  /// two), so the default leaves headroom.  full_sched and
  /// steady_state_pattern raise PatternNotFoundError when a run that
  /// needs the pattern, or more iterations than the bound, reaches it
  /// (DESIGN.md, "Pattern detection bound").
  std::int64_t max_iterations = 65536;
  /// If >= 0: ignore pattern detection and simply schedule the first
  /// `horizon_iterations` iterations (used for offline experiments, the
  /// window-detector cross-check, and DOACROSS-style comparisons).
  std::int64_t horizon_iterations = -1;
  /// Iteration-lead throttle, in iterations; <= 0 picks an automatic
  /// window.  No instance of iteration i may start before iteration
  /// i - window has completely finished.  CAVEAT: an explicit window >=
  /// max_iterations never activates within the detection bound, and on
  /// graphs with root nodes (no incoming dependences) the checkpoint
  /// signatures then never clamp — pattern detection cleanly fails
  /// (nullopt) instead of settling; keep explicit windows well below
  /// max_iterations (tests/test_throttle.cpp pins both sides).  Rationale: when a connected
  /// graph couples its recurrences only through *forward* dependences,
  /// pure greedy scheduling lets the upstream recurrence run ahead of the
  /// downstream one at its own faster rate, the gap grows without bound,
  /// and no configuration ever repeats — a case the paper's Lemma 3
  /// implicitly excludes (its footnote 10 assumes producers and consumers
  /// stay within a bounded number of cycles).  The throttle models the
  /// finite inter-processor buffering of a real machine, restores
  /// Theorem 1 for every connected graph, and never slows the binding
  /// recurrence because the window is chosen at least as long as one
  /// iteration's schedule span.
  std::int64_t lead_window = 0;
};

struct CyclicSchedResult {
  Schedule schedule;                ///< everything scheduled before stopping
  std::optional<Pattern> pattern;   ///< present iff a pattern was detected
  std::int64_t iterations_scheduled = 0;  ///< M: fully scheduled iterations
};

/// Schedule `g` (a normalized-distance, intra-iteration-acyclic DDG —
/// typically the Cyclic subset) on machine `m`.  Requires at least one
/// processor and a non-empty graph.
///
/// A run stops at a detected pattern, at the detection bound, or earlier
/// for a caller that needs only part of the schedule (full_sched): as
/// soon as iterations [0, until) are all placed (iterations_scheduled >=
/// until) and at least `min_processors` processors hold a placement.
/// Every placement is final when made, so a run cut short is a prefix of
/// the uncut one.  The defaults never cut a run short.
CyclicSchedResult cyclic_sched(
    const Ddg& g, const Machine& m, const CyclicSchedOptions& opts = {},
    std::int64_t until = std::numeric_limits<std::int64_t>::max(),
    int min_processors = 0);

}  // namespace mimd
