#include "schedule/pattern.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

namespace mimd {

namespace {

bool by_start_then_inst(const Placement& a, const Placement& b) {
  return std::tie(a.start, a.inst) < std::tie(b.start, b.inst);
}

/// A schedule of the placements in `timelines` (one per processor) in
/// (start, proc) order.  A timeline that Schedule::place appended is in
/// start order already, and a valid schedule has at most one placement
/// per (start, proc), so merging the timelines gives exactly the order a
/// sort of every placement by (start, proc, inst) would; a timeline out
/// of start order (a hand-built pattern) is sorted first.
Schedule merge_timelines(std::vector<std::vector<Placement>>& timelines) {
  const std::size_t procs = timelines.size();
  std::size_t total = 0;
  for (auto& line : timelines) {
    if (!std::is_sorted(line.begin(), line.end(), by_start_then_inst)) {
      std::sort(line.begin(), line.end(), by_start_then_inst);
    }
    total += line.size();
  }
  Schedule sched(static_cast<int>(procs));
  sched.reserve(total);
  std::vector<std::size_t> next(procs, 0);
  for (std::size_t placed = 0; placed < total; ++placed) {
    std::size_t best = procs;  // ties go to the lowest processor
    for (std::size_t q = 0; q < procs; ++q) {
      if (next[q] < timelines[q].size() &&
          (best == procs || timelines[q][next[q]].start <
                                timelines[best][next[best]].start)) {
        best = q;
      }
    }
    const Placement& p = timelines[best][next[best]++];
    sched.place(p.inst, p.proc, p.start, p.finish);
  }
  return sched;
}

/// The placements below iteration n bucketed by processor, each bucket
/// in input order, with room for `extra[q]` more placements on q.
std::vector<std::vector<Placement>> timelines_of(
    const std::vector<Placement>& placements, int processors, std::int64_t n,
    const std::vector<std::size_t>& extra) {
  std::vector<std::size_t> count = extra;
  for (const Placement& p : placements) {
    MIMD_EXPECTS(p.proc >= 0 && p.proc < processors);
    count[static_cast<std::size_t>(p.proc)] += p.inst.iter < n;
  }
  std::vector<std::vector<Placement>> lines(
      static_cast<std::size_t>(processors));
  for (std::size_t q = 0; q < lines.size(); ++q) lines[q].reserve(count[q]);
  for (const Placement& p : placements) {
    if (p.inst.iter < n) lines[static_cast<std::size_t>(p.proc)].push_back(p);
  }
  return lines;
}

}  // namespace

Schedule prefix_schedule(const std::vector<Placement>& placements,
                         int processors, std::int64_t n) {
  MIMD_EXPECTS(processors >= 1);
  std::vector<std::vector<Placement>> lines = timelines_of(
      placements, processors, n,
      std::vector<std::size_t>(static_cast<std::size_t>(processors), 0));
  return merge_timelines(lines);
}

Schedule materialize(const Pattern& pat, int processors, std::int64_t n) {
  MIMD_EXPECTS(n >= 0);
  MIMD_EXPECTS(pat.period_iters >= 1);
  MIMD_EXPECTS(processors >= 1);

  // Each processor's timeline: its prologue placements, then its kernel
  // placements shifted by one period per repetition.  Repetition `rep`
  // is expanded while some kernel instance lands below n, that is while
  // rep * period_iters < n - (the kernel's lowest iteration).
  std::int64_t reps = 0;
  if (!pat.kernel.empty()) {
    std::int64_t lowest = pat.kernel.front().inst.iter;
    for (const Placement& p : pat.kernel) {
      lowest = std::min(lowest, p.inst.iter);
    }
    if (lowest < n) reps = (n - lowest - 1) / pat.period_iters + 1;
  }
  const std::vector<std::vector<Placement>> kernel = timelines_of(
      pat.kernel, processors, std::numeric_limits<std::int64_t>::max(),
      std::vector<std::size_t>(static_cast<std::size_t>(processors), 0));
  std::vector<std::size_t> kernel_room(kernel.size());
  for (std::size_t q = 0; q < kernel.size(); ++q) {
    kernel_room[q] = kernel[q].size() * static_cast<std::size_t>(reps);
  }
  std::vector<std::vector<Placement>> lines =
      timelines_of(pat.prologue, processors, n, kernel_room);
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    const std::int64_t dt = rep * pat.period_cycles;
    const std::int64_t di = rep * pat.period_iters;
    for (std::size_t q = 0; q < kernel.size(); ++q) {
      for (const Placement& p : kernel[q]) {
        const std::int64_t iter = p.inst.iter + di;
        if (iter >= n) continue;
        lines[q].push_back(Placement{Inst{p.inst.node, iter}, p.proc,
                                     p.start + dt, p.finish + dt});
      }
    }
  }
  return merge_timelines(lines);
}

namespace {

/// One cell of the occupancy grid: which instance covers a (cycle, proc)
/// slot and at which phase of its multi-cycle execution.
struct Cell {
  NodeId node = kInvalidNode;
  std::int64_t iter = 0;
  int phase = 0;

  [[nodiscard]] bool empty() const { return node == kInvalidNode; }
};

using Grid = std::vector<std::vector<Cell>>;  // [cycle][proc]

Grid build_grid(const Schedule& sched) {
  const std::int64_t span = sched.makespan();
  Grid grid(static_cast<std::size_t>(span),
            std::vector<Cell>(static_cast<std::size_t>(sched.processors())));
  for (const Placement& p : sched.placements()) {
    for (std::int64_t t = p.start; t < p.finish; ++t) {
      grid[static_cast<std::size_t>(t)][static_cast<std::size_t>(p.proc)] =
          Cell{p.inst.node, p.inst.iter, static_cast<int>(t - p.start)};
    }
  }
  return grid;
}

/// Canonical form of the configuration whose top row is `top`: the window's
/// cells with iteration numbers rebased to the window's minimum iteration
/// (Definition 1/2: configurations are compared modulo an iteration shift).
/// Returns (signature, base_iter); empty windows yield base -1.
std::pair<std::string, std::int64_t> canonical_config(const Grid& grid,
                                                      std::size_t top,
                                                      int height) {
  std::int64_t base = -1;
  for (int r = 0; r < height; ++r) {
    for (const Cell& c : grid[top + static_cast<std::size_t>(r)]) {
      if (!c.empty() && (base < 0 || c.iter < base)) base = c.iter;
    }
  }
  std::ostringstream sig;
  for (int r = 0; r < height; ++r) {
    for (const Cell& c : grid[top + static_cast<std::size_t>(r)]) {
      if (c.empty()) {
        sig << "_;";
      } else {
        sig << c.node << ',' << (c.iter - base) << ',' << c.phase << ';';
      }
    }
    sig << '/';
  }
  return {sig.str(), base};
}

/// Verify that the placements of `sched` starting in [t1, ...) tile
/// perfectly with period (dt, di): every full window [t1 + r*dt,
/// t1 + (r+1)*dt) must contain exactly the kernel's placements shifted by
/// (r*dt, r*di).  Windows truncated by the schedule edge are not checked.
bool verify_tiling(const Schedule& sched, std::int64_t t1, std::int64_t dt,
                   std::int64_t di) {
  using Key = std::tuple<NodeId, std::int64_t, int, std::int64_t>;
  std::map<std::int64_t, std::vector<Key>> windows;  // rep -> normalized keys
  std::int64_t max_start = 0;
  for (const Placement& p : sched.placements()) {
    max_start = std::max(max_start, p.start);
    if (p.start < t1) continue;
    const std::int64_t rep = (p.start - t1) / dt;
    windows[rep].push_back(Key{p.inst.node, p.inst.iter - rep * di, p.proc,
                               p.start - rep * dt});
  }
  // The last (possibly truncated) window cannot be compared.
  const std::int64_t last_full = (max_start - t1) / dt - 1;
  if (last_full < 1) return false;  // nothing to compare against
  std::vector<Key> kernel = windows[0];
  std::sort(kernel.begin(), kernel.end());
  for (std::int64_t rep = 1; rep <= last_full; ++rep) {
    auto w = windows[rep];
    std::sort(w.begin(), w.end());
    if (w != kernel) return false;
  }
  return true;
}

}  // namespace

std::optional<Pattern> detect_pattern_window(const Schedule& sched,
                                             const Ddg& g,
                                             int window_height) {
  (void)g;
  MIMD_EXPECTS(window_height >= 1);
  const Grid grid = build_grid(sched);
  if (grid.size() < static_cast<std::size_t>(window_height)) {
    return std::nullopt;
  }

  std::map<std::string, std::pair<std::size_t, std::int64_t>> seen;
  for (std::size_t top = 0;
       top + static_cast<std::size_t>(window_height) <= grid.size(); ++top) {
    const auto [sig, base] = canonical_config(grid, top, window_height);
    if (base < 0) continue;  // fully idle window: no iteration anchor
    const auto [it, inserted] = seen.try_emplace(sig, top, base);
    if (inserted) continue;

    const std::int64_t t1 = static_cast<std::int64_t>(it->second.first);
    const std::int64_t dt = static_cast<std::int64_t>(top) - t1;
    const std::int64_t di = base - it->second.second;
    if (di < 1 || dt < 1) continue;
    if (!verify_tiling(sched, t1, dt, di)) continue;

    Pattern pat;
    pat.period_iters = di;
    pat.period_cycles = dt;
    for (const Placement& p : sched.placements()) {
      if (p.start < t1) {
        pat.prologue.push_back(p);
      } else if (p.start < t1 + dt) {
        pat.kernel.push_back(p);
      }
    }
    if (pat.kernel.empty()) continue;
    std::int64_t min_iter = pat.kernel.front().inst.iter;
    for (const Placement& p : pat.kernel) {
      min_iter = std::min(min_iter, p.inst.iter);
    }
    pat.first_iter = min_iter;
    return pat;
  }
  return std::nullopt;
}

std::string render_kernel(const Pattern& pat, const Ddg& g, int processors) {
  // Re-base so the kernel renders from cycle 0.
  std::int64_t lo = pat.kernel.empty() ? 0 : pat.kernel.front().start;
  std::int64_t hi = lo;
  for (const Placement& p : pat.kernel) {
    lo = std::min(lo, p.start);
    hi = std::max(hi, p.finish);
  }
  std::vector<Placement> rebased = pat.kernel;
  for (Placement& p : rebased) {
    p.start -= lo;
    p.finish -= lo;
  }
  const Schedule view = prefix_schedule(
      rebased, processors, std::numeric_limits<std::int64_t>::max());
  return render(view, g, 0, hi - lo);
}

}  // namespace mimd
