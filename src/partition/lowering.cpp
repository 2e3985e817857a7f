#include "partition/lowering.hpp"

#include <vector>

namespace mimd {

PartitionedProgram lower(const Schedule& sched, const Ddg& g) {
  PartitionedProgram prog;
  prog.processors = sched.processors();
  prog.programs.resize(static_cast<std::size_t>(sched.processors()));
  for (int p = 0; p < sched.processors(); ++p) {
    prog.programs[static_cast<std::size_t>(p)].proc = p;
  }

  // Every placement lowers to one Compute plus its messages.
  std::vector<std::size_t> computes(static_cast<std::size_t>(sched.processors()));
  for (const Placement& pl : sched.placements()) {
    ++computes[static_cast<std::size_t>(pl.proc)];
  }
  for (int p = 0; p < sched.processors(); ++p) {
    prog.programs[static_cast<std::size_t>(p)].ops.reserve(
        computes[static_cast<std::size_t>(p)]);
  }

  // A placement's ops go to its own processor only, and each processor's
  // placements were appended in start order, so append order yields the
  // programs a sort by (start, proc, inst) would.
  for (const Placement& pl : sched.placements()) {
    auto& ops = prog.programs[static_cast<std::size_t>(pl.proc)].ops;

    // Receives for cross-processor operands.
    for (const EdgeId eid : g.in_edges(pl.inst.node)) {
      const Edge& e = g.edge(eid);
      const std::int64_t src_iter = pl.inst.iter - e.distance;
      if (src_iter < 0) continue;
      const auto src = sched.lookup(Inst{e.src, src_iter});
      MIMD_ENSURES(src.has_value());
      if (src->proc != pl.proc) {
        ops.push_back(Op{Op::Kind::Receive, Inst{e.src, src_iter}, eid,
                         src->proc});
      }
    }

    ops.push_back(Op{Op::Kind::Compute, pl.inst, 0, -1});

    // Sends to cross-processor consumers that exist in this finite
    // schedule.
    for (const EdgeId eid : g.out_edges(pl.inst.node)) {
      const Edge& e = g.edge(eid);
      const Inst consumer{e.dst, pl.inst.iter + e.distance};
      const auto dst = sched.lookup(consumer);
      if (dst.has_value() && dst->proc != pl.proc) {
        ops.push_back(Op{Op::Kind::Send, pl.inst, eid, dst->proc});
      }
    }
  }
  return prog;
}

}  // namespace mimd
