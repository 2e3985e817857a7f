#include "schedule/schedule.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace mimd {

Schedule::Schedule(int processors) {
  MIMD_EXPECTS(processors >= 1);
  next_free_.assign(static_cast<std::size_t>(processors), 0);
}

void Schedule::place(const Inst& inst, int proc, std::int64_t start,
                     std::int64_t finish) {
  MIMD_EXPECTS(proc >= 0 && proc < processors());
  MIMD_EXPECTS(finish > start);
  MIMD_EXPECTS(start >= next_free_[proc]);  // append-only timeline
  MIMD_EXPECTS(inst.node != kInvalidNode && inst.iter >= 0);
  if (inst.node >= columns_) {
    // Row 0 alone is cheap to re-lay, so the first iteration sizes the
    // table exactly; later growth doubles, keeping relayouts logarithmic.
    widen(rows_ <= 1 ? inst.node + std::size_t{1}
                     : std::max(inst.node + std::size_t{1}, 2 * columns_));
  }
  const auto row = static_cast<std::uint64_t>(inst.iter);
  if (row >= rows_) {
    MIMD_EXPECTS(row < index_.max_size() / columns_);
    rows_ = row + 1;
    index_.resize(rows_ * columns_, -1);
  }
  std::int32_t& cell = index_[row * columns_ + inst.node];
  MIMD_EXPECTS(cell < 0);  // not placed yet
  MIMD_ENSURES(placements_.size() <
               static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  cell = static_cast<std::int32_t>(placements_.size());
  placements_.push_back(Placement{inst, proc, start, finish});
  next_free_[proc] = finish;
}

void Schedule::widen(std::size_t columns) {
  std::vector<std::int32_t> wider(rows_ * columns, -1);
  for (std::uint64_t r = 0; r < rows_; ++r) {
    std::copy_n(index_.begin() + static_cast<std::ptrdiff_t>(r * columns_),
                columns_,
                wider.begin() + static_cast<std::ptrdiff_t>(r * columns));
  }
  index_ = std::move(wider);
  columns_ = columns;
}

std::int64_t Schedule::next_free(int proc) const {
  MIMD_EXPECTS(proc >= 0 && proc < processors());
  return next_free_[proc];
}

std::vector<Placement> Schedule::on_processor(int proc) const {
  std::vector<Placement> out;
  for (const Placement& p : placements_) {
    if (p.proc == proc) out.push_back(p);
  }
  return out;
}

std::int64_t Schedule::makespan() const {
  return *std::max_element(next_free_.begin(), next_free_.end());
}

std::optional<std::string> find_dependence_violation(const Ddg& g,
                                                     const Machine& m,
                                                     const Schedule& sched,
                                                     bool partial) {
  for (const Placement& p : sched.placements()) {
    for (const EdgeId eid : g.in_edges(p.inst.node)) {
      const Edge& e = g.edge(eid);
      const std::int64_t src_iter = p.inst.iter - e.distance;
      if (src_iter < 0) continue;  // dependence from before the loop
      const auto src = sched.lookup(Inst{e.src, src_iter});
      if (!src.has_value()) {
        if (partial) continue;
        std::ostringstream msg;
        msg << "predecessor " << g.node(e.src).name << "@" << src_iter
            << " of " << g.node(p.inst.node).name << "@" << p.inst.iter
            << " is not scheduled";
        return msg.str();
      }
      const std::int64_t ready =
          src->finish + (src->proc == p.proc ? 0 : m.comm_cost(e));
      if (p.start < ready) {
        std::ostringstream msg;
        msg << g.node(p.inst.node).name << "@" << p.inst.iter
            << " starts at " << p.start << " but operand from "
            << g.node(e.src).name << "@" << src_iter << " (proc " << src->proc
            << " -> " << p.proc << ") is ready at " << ready;
        return msg.str();
      }
    }
  }
  return std::nullopt;
}

std::string render(const Schedule& sched, const Ddg& g,
                   std::int64_t first_cycle, std::int64_t last_cycle) {
  if (last_cycle < 0) last_cycle = sched.makespan();
  const int procs = sched.processors();

  // Build the occupancy grid for the requested window.
  const auto rows = static_cast<std::size_t>(
      std::max<std::int64_t>(0, last_cycle - first_cycle));
  std::vector<std::vector<std::string>> grid(
      rows, std::vector<std::string>(static_cast<std::size_t>(procs)));
  for (const Placement& p : sched.placements()) {
    for (std::int64_t t = p.start; t < p.finish; ++t) {
      if (t < first_cycle || t >= last_cycle) continue;
      const auto r = static_cast<std::size_t>(t - first_cycle);
      grid[r][static_cast<std::size_t>(p.proc)] =
          t == p.start ? g.node(p.inst.node).name + "@" +
                             std::to_string(p.inst.iter)
                       : std::string("|");
    }
  }

  std::vector<std::size_t> width(static_cast<std::size_t>(procs), 3);
  for (const auto& row : grid) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream out;
  out << "cycle";
  for (int c = 0; c < procs; ++c) {
    const std::string head = "PE" + std::to_string(c);
    out << "  " << head
        << std::string(width[static_cast<std::size_t>(c)] -
                           std::min(width[static_cast<std::size_t>(c)],
                                    head.size()),
                       ' ');
  }
  out << '\n';
  for (std::size_t r = 0; r < rows; ++r) {
    std::string cyc = std::to_string(first_cycle + static_cast<std::int64_t>(r));
    out << std::string(5 - std::min<std::size_t>(5, cyc.size()), ' ') << cyc;
    for (std::size_t c = 0; c < grid[r].size(); ++c) {
      const std::string& cell = grid[r][c].empty() ? "." : grid[r][c];
      out << "  " << cell << std::string(width[c] - std::min(width[c], cell.size()), ' ');
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace mimd
