// Patterns — the repeating steady state of the greedy schedule.
//
// Theorem 1 of the paper: the schedule produced by Cyclic-sched contains a
// repeating pattern.  A pattern is a set of placements (the "kernel") that,
// shifted by `period_cycles` cycles and `period_iters` iterations, tiles the
// rest of the infinite schedule: processor assignments repeat verbatim
// (processor indices do NOT shift — each processor repeats its own
// sub-pattern, as in Figure 7(d)).
//
// Two detectors are provided:
//  * the exact scheduler-state-signature detector lives inside Cyclic-sched
//    (schedule/cyclic_sched.hpp) — it fires the moment the scheduler state
//    repeats, which is a bisimulation argument and therefore sound;
//  * `detect_pattern_window` below is the paper's own Section-2.3 device — a
//    sliding P x (k+1) "configuration" window compared modulo iteration
//    shift — implemented offline over a finished schedule, and verified by
//    re-checking that the candidate kernel actually tiles the tail.
//
// `materialize` and `prefix_schedule` build the schedule of a request by
// merging per-processor timelines, each already in start order, instead
// of sorting every placement (DESIGN.md, "Dense schedule tables").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/ddg.hpp"
#include "schedule/schedule.hpp"

namespace mimd {

struct Pattern {
  /// Placements scheduled strictly before the kernel (the warm-up ramp).
  std::vector<Placement> prologue;
  /// The repeating kernel. Shift t by period_cycles and iter by
  /// period_iters to obtain each subsequent repetition.
  std::vector<Placement> kernel;
  std::int64_t period_iters = 0;   ///< iterations per repetition (Delta i)
  std::int64_t period_cycles = 0;  ///< cycles per repetition (Delta t)
  /// Iteration index at which the kernel's first repetition begins: the
  /// kernel covers iterations [first_iter, first_iter + period_iters) —
  /// possibly referencing a few instances outside that band that were
  /// scheduled out of band (none for connected Cyclic graphs).
  std::int64_t first_iter = 0;

  /// Asymptotic initiation interval: cycles per source iteration.
  [[nodiscard]] double initiation_interval() const {
    MIMD_EXPECTS(period_iters > 0);
    return static_cast<double>(period_cycles) /
           static_cast<double>(period_iters);
  }

  /// Height of the pattern in cycles (the paper's H, used to size the
  /// Flow-in/Flow-out processor pool): cycles per repetition.
  [[nodiscard]] std::int64_t height() const { return period_cycles; }
};

/// Expand a pattern into a concrete schedule for iterations [0, n):
/// prologue placements plus shifted kernel repetitions, dropping instances
/// with iteration >= n.  The result is exactly what the greedy scheduler
/// would have produced (prefix property), so it satisfies all dependences.
/// Placements come in (start, proc, inst) order: each processor's
/// timeline (its prologue, then its shifted kernel copies) is already in
/// start order for a pattern Cyclic-sched detected, so the timelines are
/// merged, not sorted; a timeline out of start order is sorted first.
Schedule materialize(const Pattern& pat, int processors, std::int64_t n);

/// The placements with iteration < n as a schedule, in (start, proc,
/// inst) order — the order materialize() emits — by the same merge of
/// per-processor timelines.  Applied to a greedy run that placed all of
/// [0, n), it equals materialize() of the pattern a longer run would
/// detect (prefix property).
Schedule prefix_schedule(const std::vector<Placement>& placements,
                         int processors, std::int64_t n);

/// The paper's configuration-window detector, run offline over a schedule
/// that extends far enough (e.g. produced with CyclicSched in
/// run-to-horizon mode).  `window_height` is k+1.  Returns nullopt when no
/// verified repeat exists within the schedule.
std::optional<Pattern> detect_pattern_window(const Schedule& sched,
                                             const Ddg& g,
                                             int window_height);

/// Render the kernel in paper style (box excerpt).
std::string render_kernel(const Pattern& pat, const Ddg& g, int processors);

}  // namespace mimd
