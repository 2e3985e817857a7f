#include "support/reference_full_sched.hpp"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "classify/classify.hpp"
#include "graph/algorithms.hpp"
#include "schedule/flow_sched.hpp"
#include "support/reference_schedule.hpp"

namespace mimd::testsupport {

namespace {

/// Subset of `order` that lies in `subset`, preserving order.
std::vector<NodeId> filter_order(const std::vector<NodeId>& order,
                                 const std::vector<NodeId>& subset) {
  std::vector<bool> in(order.size(), false);
  for (const NodeId v : subset) in[v] = true;
  std::vector<NodeId> out;
  out.reserve(subset.size());
  for (const NodeId v : order) {
    if (in[v]) out.push_back(v);
  }
  return out;
}

/// Remap a pattern's placements from Cyclic-subgraph node ids back to the
/// original graph's ids.
Pattern remap_pattern(const Pattern& pat, const std::vector<NodeId>& old_of_new) {
  Pattern out = pat;
  for (auto* vec : {&out.prologue, &out.kernel}) {
    for (Placement& p : *vec) {
      p.inst.node = old_of_new[p.inst.node];
    }
  }
  return out;
}

FullSchedResult schedule_doall(const Ddg& g, const Machine& m,
                               std::int64_t n, Classification cls) {
  const auto order = topo_order_intra(g);
  std::vector<int> pool(static_cast<std::size_t>(m.processors));
  for (int p = 0; p < m.processors; ++p) pool[static_cast<std::size_t>(p)] = p;

  FullSchedResult res{std::move(cls), std::nullopt, Schedule(m.processors),
                      n, 0, 0, 0, 0, 0.0};
  schedule_flow_subset(g, m, order, pool, n, res.schedule);
  std::set<int> used;
  for (const Placement& p : res.schedule.placements()) used.insert(p.proc);
  res.processors_used = static_cast<int>(used.size());
  res.flow_in_processors = res.processors_used;
  res.steady_ii = measure_steady_ii(res.schedule, n);
  return res;
}

/// Cyclic-sched's steady-state pattern; PatternNotFoundError when it ran
/// into its detection bound without one.
Pattern cyclic_pattern(const Ddg& g, const Machine& m,
                       const CyclicSchedOptions& opts) {
  CyclicSchedResult r = reference_cyclic_sched(g, m, opts);
  if (!r.pattern) {
    throw PatternNotFoundError(m.processors, opts.max_iterations);
  }
  return std::move(*r.pattern);
}

}  // namespace

FullSchedResult reference_full_sched(const Ddg& g, const Machine& m,
                                     std::int64_t iterations,
                                     const FullSchedOptions& opts) {
  MIMD_EXPECTS(iterations >= 1);
  MIMD_EXPECTS(g.distances_normalized());
  Classification cls = classify(g);

  if (cls.is_doall()) {
    return schedule_doall(g, m, iterations, std::move(cls));
  }

  if (opts.flow_strategy == FlowStrategy::Fold) {
    // Section-3 heuristic, realized by scheduling the whole graph greedily:
    // non-Cyclic nodes flow into idle slots of the Cyclic processors.
    const Pattern pattern = cyclic_pattern(g, m, opts.cyclic);
    FullSchedResult res{
        std::move(cls), pattern,
        reference_materialize(pattern, m.processors, iterations), iterations,
        0, 0, 0, 0, 0.0};
    std::set<int> used;
    for (const Placement& p : res.schedule.placements()) used.insert(p.proc);
    res.processors_used = static_cast<int>(used.size());
    res.cyclic_processors = res.processors_used;
    res.steady_ii = measure_steady_ii(res.schedule, iterations);
    return res;
  }

  // --- The paper's Figure-6 pipeline with separate flow pools. ---
  std::vector<NodeId> old_of_new;
  const Ddg sub = cyclic_subgraph(g, cls, &old_of_new);
  const Pattern pattern =
      remap_pattern(cyclic_pattern(sub, m, opts.cyclic), old_of_new);

  // Processors claimed by the Cyclic pattern.
  std::set<int> cyclic_procs;
  for (const Placement& p : pattern.prologue) cyclic_procs.insert(p.proc);
  for (const Placement& p : pattern.kernel) cyclic_procs.insert(p.proc);

  const auto order = topo_order_intra(g);
  const auto flow_in_topo = filter_order(order, cls.flow_in);
  const auto flow_out_topo = filter_order(order, cls.flow_out);

  auto subset_latency = [&](const std::vector<NodeId>& subset) {
    std::int64_t sum = 0;
    for (const NodeId v : subset) sum += g.node(v).latency;
    return sum;
  };
  const int want_in = flow_processor_count(subset_latency(cls.flow_in),
                                           pattern.height(),
                                           pattern.period_iters);
  const int want_out = flow_processor_count(subset_latency(cls.flow_out),
                                            pattern.height(),
                                            pattern.period_iters);

  std::vector<int> free_procs;
  for (int p = 0; p < m.processors; ++p) {
    if (!cyclic_procs.contains(p)) free_procs.push_back(p);
  }
  if (static_cast<int>(free_procs.size()) < want_in + want_out) {
    // Not enough spare processors for the Figure-5 pools: fall back to the
    // folding heuristic, which needs no extra processors.
    FullSchedOptions fold = opts;
    fold.flow_strategy = FlowStrategy::Fold;
    return reference_full_sched(g, m, iterations, fold);
  }
  const std::vector<int> pool_in(free_procs.begin(), free_procs.begin() + want_in);
  const std::vector<int> pool_out(free_procs.begin() + want_in,
                                  free_procs.begin() + want_in + want_out);

  FullSchedResult res{std::move(cls), pattern, Schedule(m.processors),
                      iterations, 0,
                      static_cast<int>(cyclic_procs.size()), want_in,
                      want_out, 0.0};

  // 1. Flow-in, ASAP round-robin.
  schedule_flow_subset(g, m, flow_in_topo, pool_in, iterations, res.schedule);

  // 2. Cyclic placements, shifted right by the smallest constant that
  //    satisfies every Flow-in -> Cyclic dependence.
  const Schedule nominal =
      reference_materialize(pattern, m.processors, iterations);
  std::int64_t shift = 0;
  for (const Placement& c : nominal.placements()) {
    for (const EdgeId eid : g.in_edges(c.inst.node)) {
      const Edge& e = g.edge(eid);
      if (res.classification.kind[e.src] != NodeKind::FlowIn) continue;
      const std::int64_t src_iter = c.inst.iter - e.distance;
      if (src_iter < 0) continue;
      const auto src = res.schedule.lookup(Inst{e.src, src_iter});
      MIMD_ENSURES(src.has_value());
      shift = std::max(shift, src->finish + m.comm_cost(e) - c.start);
    }
  }
  std::vector<Placement> shifted = nominal.placements();
  std::sort(shifted.begin(), shifted.end(),
            [](const Placement& a, const Placement& b) {
              return std::tie(a.start, a.proc, a.inst) <
                     std::tie(b.start, b.proc, b.inst);
            });
  for (const Placement& p : shifted) {
    res.schedule.place(p.inst, p.proc, p.start + shift, p.finish + shift);
  }

  // 3. Flow-out, ASAP round-robin behind everything else.
  schedule_flow_subset(g, m, flow_out_topo, pool_out, iterations,
                       res.schedule);

  std::set<int> used;
  for (const Placement& p : res.schedule.placements()) used.insert(p.proc);
  res.processors_used = static_cast<int>(used.size());
  res.steady_ii = measure_steady_ii(res.schedule, iterations);
  return res;
}

}  // namespace mimd::testsupport
