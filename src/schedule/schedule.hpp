// Schedule container: the (partial) schedule a scheduler builds, mapping
// node instances to (processor, start cycle).  Per-processor timelines are
// append-only — Cyclic-sched never back-fills idle slots, which is what
// makes its future behaviour a function of a bounded window of recent state
// (the linchpin of the pattern-existence proof, Section 2.3).  So each
// processor's placements are appended in start order, and (start, proc)
// names at most one placement.
//
// Instances are indexed by a dense table, row = iteration, column = node
// id, each cell the placement's position or -1: every schedule the
// pipeline builds covers iterations [0, n) of every node it places, so a
// lookup is a bounds check plus one load and the table costs 4 bytes per
// cell (DESIGN.md, "Dense schedule tables").  A schedule placing a few
// instances of far-apart iterations still pays for every row below them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/ddg.hpp"
#include "schedule/machine.hpp"

namespace mimd {

/// One scheduled instance.
struct Placement {
  Inst inst;
  int proc = 0;
  std::int64_t start = 0;
  std::int64_t finish = 0;  ///< start + latency; occupies [start, finish)

  friend bool operator==(const Placement&, const Placement&) = default;
};

class Schedule {
 public:
  /// Default: a single-processor, empty schedule (useful as a placeholder
  /// in aggregate result types).
  Schedule() : Schedule(1) {}
  explicit Schedule(int processors);

  /// Append a placement. Enforces: valid processor, non-overlap (the
  /// processor's timeline only moves forward), a valid node id and a
  /// non-negative iteration, instance not yet placed.
  void place(const Inst& inst, int proc, std::int64_t start,
             std::int64_t finish);

  [[nodiscard]] int processors() const { return static_cast<int>(next_free_.size()); }
  [[nodiscard]] std::int64_t next_free(int proc) const;
  [[nodiscard]] std::optional<Placement> lookup(const Inst& inst) const {
    const std::int32_t at = position(inst);
    if (at < 0) return std::nullopt;
    return placements_[static_cast<std::size_t>(at)];
  }
  [[nodiscard]] bool contains(const Inst& inst) const {
    return position(inst) >= 0;
  }

  /// All placements, in the order they were made (= scheduler decision
  /// order, which for Cyclic-sched is the topological traversal order).
  [[nodiscard]] const std::vector<Placement>& placements() const {
    return placements_;
  }

  /// Placements on one processor, in start order (== append order).
  [[nodiscard]] std::vector<Placement> on_processor(int proc) const;

  /// Completion time of everything placed so far: the latest next_free,
  /// since each processor's last placement finishes last.
  [[nodiscard]] std::int64_t makespan() const;

  /// Count of placed instances.
  [[nodiscard]] std::size_t size() const { return placements_.size(); }

  /// Make room for `placements` placements in all.
  void reserve(std::size_t placements) { placements_.reserve(placements); }

 private:
  /// Position of `inst` in placements_, or -1 if it is not placed.
  [[nodiscard]] std::int32_t position(const Inst& inst) const {
    const auto row = static_cast<std::uint64_t>(inst.iter);
    if (row >= rows_ || inst.node >= columns_) return -1;
    return index_[row * columns_ + inst.node];
  }
  /// Widen every row to at least `columns` cells.
  void widen(std::size_t columns);

  std::vector<Placement> placements_;
  /// index_[iter * columns_ + node]: position in placements_, or -1.
  std::vector<std::int32_t> index_;
  std::size_t columns_ = 0;
  std::uint64_t rows_ = 0;
  std::vector<std::int64_t> next_free_;
};

/// Check that `sched` respects every dependence of `g` with the machine's
/// communication costs: for each placed instance (w,i) and each in-edge
/// u->w with distance d such that (u,i-d) exists, (u,i-d) must be placed and
///   start(w,i) >= finish(u,i-d) + (proc equal ? 0 : comm_cost).
/// Instances whose predecessors are absent from the schedule entirely are
/// tolerated when `partial` is true (used for windows/prefixes).
/// Returns an explanatory message for the first violation, or nullopt.
std::optional<std::string> find_dependence_violation(const Ddg& g,
                                                     const Machine& m,
                                                     const Schedule& sched,
                                                     bool partial = false);

/// ASCII rendering in the style of the paper's figures: one row per cycle,
/// one column per processor, cells "A@3" (node A of iteration 3); taller
/// operations render their continuation rows as "|".
std::string render(const Schedule& sched, const Ddg& g,
                   std::int64_t first_cycle = 0, std::int64_t last_cycle = -1);

}  // namespace mimd
