#include "core/parallelizer.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "classify/classify.hpp"
#include "graph/algorithms.hpp"
#include "metrics/metrics.hpp"
#include "partition/codegen.hpp"
#include "partition/lowering.hpp"

namespace mimd {

namespace {

/// Unrolling can only disconnect what arithmetic keeps apart: when the
/// carried distances of a recurrence share a divisor d > 1, copy r of a
/// node reaches only copies congruent to r mod d, and the normalized
/// graph falls into residue-class components.  The scheduler's
/// connected-graph precondition applies to the Cyclic subset (the
/// Figure-6 path hands exactly that subgraph to Cyclic-sched) and, under
/// the Fold strategy, to the whole graph — so test both views.  Detect it
/// here — where the original loop and the Unrolled mapping are both in
/// hand — and turn the scheduler's opaque contract trip into a diagnostic
/// that names the split and the two ways out.
void check_parity_split(const Ddg& loop, const Unrolled& u) {
  if (u.factor <= 1) return;

  // components_of(view): {count before unroll, components after, map from
  // component node ids back to u.graph ids}.
  std::vector<std::vector<NodeId>> comps;
  std::vector<NodeId> to_unrolled;  // empty = identity
  {
    std::vector<NodeId> old_of_new;
    const Ddg cyc_before = cyclic_subgraph(loop, classify(loop));
    const Ddg cyc_after =
        cyclic_subgraph(u.graph, classify(u.graph), &old_of_new);
    const std::size_t before = connected_components(cyc_before).size();
    auto after = connected_components(cyc_after);
    if (after.size() > before) {
      comps = std::move(after);
      to_unrolled = std::move(old_of_new);
    } else if (connected_components(u.graph).size() >
               connected_components(loop).size()) {
      comps = connected_components(u.graph);
    } else {
      return;
    }
  }

  std::ostringstream msg;
  msg << "unwinding by " << u.factor << " split the loop's recurrence into "
      << comps.size() << " independent components: the carried distances "
      << "share a common divisor, so iterations fall into residue classes "
      << "that never exchange a value (copies ";
  for (std::size_t i = 0; i < comps.size(); ++i) {
    std::set<int> copies;
    for (const NodeId v : comps[i]) {
      const NodeId g = to_unrolled.empty() ? v : to_unrolled[v];
      copies.insert(u.origin[g].copy);
    }
    if (i > 0) msg << " | ";
    msg << "{";
    bool first = true;
    for (const int r : copies) {
      if (!first) msg << ",";
      msg << r;
      first = false;
    }
    msg << "}";
  }
  msg << " of the unrolled body form separate chains).  Schedule each "
      << "residue class as its own loop, or add a dependence whose "
      << "distance is coprime with the others if the chains are meant to "
      << "couple.";
  throw ParitySplitError(msg.str(), u.factor, comps.size());
}

}  // namespace

ParallelizeResult parallelize(const Ddg& loop, const ParallelizeOptions& opts) {
  MIMD_EXPECTS(opts.iterations >= 1);
  ParallelizeResult res;
  res.normalized = normalize_distances(loop);
  check_parity_split(loop, res.normalized);
  const int factor = res.normalized.factor;
  res.normalized_iterations = (opts.iterations + factor - 1) / factor;

  res.sched = full_sched(res.normalized.graph, opts.machine,
                         res.normalized_iterations, opts.schedule);
  res.program = lower(res.sched.schedule, res.normalized.graph);
  if (opts.emit_code && !res.sched.classification.is_doall()) {
    // A run cut at n carries no pattern; the rendering needs it.
    if (!res.sched.pattern.has_value()) {
      res.sched.pattern = steady_state_pattern(
          res.normalized.graph, opts.machine, opts.schedule.cyclic);
    }
    res.parbegin_code = emit_parbegin(*res.sched.pattern, res.normalized.graph);
  }

  res.cycles_per_iteration = res.sched.steady_ii / static_cast<double>(factor);
  res.percentage_parallelism = percentage_parallelism_asymptotic(
      loop.body_latency(), res.cycles_per_iteration);
  return res;
}

}  // namespace mimd
