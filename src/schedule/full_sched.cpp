#include "schedule/full_sched.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "schedule/flow_sched.hpp"

namespace mimd {

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

std::vector<std::int64_t> per_iteration_completion(const Schedule& sched,
                                                   std::int64_t n) {
  std::vector<std::int64_t> done(static_cast<std::size_t>(n), 0);
  for (const Placement& p : sched.placements()) {
    if (p.inst.iter < n) {
      auto& d = done[static_cast<std::size_t>(p.inst.iter)];
      d = std::max(d, p.finish);
    }
  }
  return done;
}

/// Which processors hold at least one placement of `sched`.  A
/// placement finishes after it starts, at or after cycle 0, so a
/// processor is in use exactly when its next free cycle is past 0.
std::vector<bool> processors_of(const Schedule& sched) {
  std::vector<bool> used(static_cast<std::size_t>(sched.processors()));
  for (int p = 0; p < sched.processors(); ++p) {
    used[static_cast<std::size_t>(p)] = sched.next_free(p) > 0;
  }
  return used;
}

int count_used(const std::vector<bool>& used) {
  return static_cast<int>(std::count(used.begin(), used.end(), true));
}

FullSchedResult schedule_doall(const Ddg& g, const Machine& m,
                               std::int64_t n, Classification cls) {
  const auto order = topo_order_intra(g);
  std::vector<int> pool(static_cast<std::size_t>(m.processors));
  for (int p = 0; p < m.processors; ++p) pool[static_cast<std::size_t>(p)] = p;

  FullSchedResult res{std::move(cls), std::nullopt, Schedule(m.processors),
                      n, 0, 0, 0, 0, 0.0};
  schedule_flow_subset(g, m, order, pool, n, res.schedule);
  res.processors_used = count_used(processors_of(res.schedule));
  res.flow_in_processors = res.processors_used;
  res.steady_ii = measure_steady_ii(res.schedule, n);
  return res;
}

/// Cyclic-sched over the whole graph, stopped as soon as iterations
/// [0, n) are placed unless the pattern shows up first.  This is the
/// Fold heuristic, and also the Figure-6 pipeline of a loop with no
/// Flow-in or Flow-out node: its Cyclic subgraph is `g` itself, with the
/// same ids and edge order, and it has no pools to size.
FullSchedResult schedule_greedy(const Ddg& g, const Machine& m,
                                std::int64_t n,
                                const CyclicSchedOptions& opts,
                                Classification cls, FlowStrategy strategy) {
  // Fold counts the processors its schedule uses.  The Figure-6 pipeline
  // counts those the Cyclic pattern occupies, which can be more than the
  // first n iterations touch, so its run also goes on until the pattern
  // shows up or every processor holds a placement.
  const int settled = strategy == FlowStrategy::Fold ? 0 : m.processors;
  CyclicSchedResult r = cyclic_sched(g, m, opts, n, settled);
  const int occupied = count_used(processors_of(r.schedule));
  if (!r.pattern.has_value() &&
      (r.iterations_scheduled < n || occupied < settled)) {
    throw PatternNotFoundError(m.processors, opts.max_iterations);
  }

  FullSchedResult res{std::move(cls), std::nullopt, Schedule(m.processors),
                      n, 0, 0, 0, 0, 0.0};
  if (r.pattern.has_value()) {
    res.schedule = materialize(*r.pattern, m.processors, n);
    res.pattern = std::move(r.pattern);
  } else {
    // Placements are final when made, so this is materialize(pattern, n)
    // for the pattern a longer run would detect.
    res.schedule = prefix_schedule(r.schedule.placements(), m.processors, n);
  }
  res.processors_used = count_used(processors_of(res.schedule));
  res.cyclic_processors =
      strategy == FlowStrategy::Fold ? res.processors_used : occupied;
  res.steady_ii = measure_steady_ii(res.schedule, n);
  return res;
}

}  // namespace

PatternNotFoundError::PatternNotFoundError(int processors,
                                           std::int64_t max_iterations)
    : std::runtime_error(
          "Cyclic-sched found no repeating pattern within " +
          std::to_string(max_iterations) + " iterations on " +
          std::to_string(processors) +
          " processors (CyclicSchedOptions::max_iterations); raise the "
          "bound or schedule on a different processor count"),
      processors_(processors),
      max_iterations_(max_iterations) {}

Pattern steady_state_pattern(const Ddg& g, const Machine& m,
                             const CyclicSchedOptions& opts) {
  CyclicSchedResult r = cyclic_sched(g, m, opts);
  if (!r.pattern) {
    throw PatternNotFoundError(m.processors, opts.max_iterations);
  }
  return std::move(*r.pattern);
}

double measure_steady_ii(const Schedule& sched, std::int64_t n) {
  if (n <= 0) return 0.0;
  const auto done = per_iteration_completion(sched, n);
  const std::int64_t h = n / 2;
  if (n - 1 <= h) {
    return static_cast<double>(sched.makespan()) / static_cast<double>(n);
  }
  // Steady schedules are eventually periodic in the iteration index
  // (pattern repetitions, round-robin batches, DOACROSS skew).  Find the
  // smallest period p whose completion-time differences are constant over
  // the tail — that gives the slope *exactly*, immune to the staircase
  // aliasing a two-endpoint estimate suffers from.
  for (std::int64_t p = 1; p <= (n - h) / 2; ++p) {
    const std::int64_t c = done[static_cast<std::size_t>(n - 1)] -
                           done[static_cast<std::size_t>(n - 1 - p)];
    bool periodic = true;
    for (std::int64_t i = h; i + p < n; ++i) {
      if (done[static_cast<std::size_t>(i + p)] -
              done[static_cast<std::size_t>(i)] !=
          c) {
        periodic = false;
        break;
      }
    }
    if (periodic) return static_cast<double>(c) / static_cast<double>(p);
  }
  // Not periodic within the window: fall back to the endpoint slope.
  return static_cast<double>(done[static_cast<std::size_t>(n - 1)] -
                             done[static_cast<std::size_t>(h)]) /
         static_cast<double>(n - 1 - h);
}

FullSchedResult full_sched(const Ddg& g, const Machine& m,
                           std::int64_t iterations,
                           const FullSchedOptions& opts) {
  MIMD_EXPECTS(iterations >= 1);
  MIMD_EXPECTS(g.distances_normalized());
  Classification cls = classify(g);

  if (cls.is_doall()) {
    return schedule_doall(g, m, iterations, std::move(cls));
  }
  // Horizon mode never detects a pattern, and every path below needs one
  // or a run that stops at n: fail as detection does.
  if (opts.cyclic.horizon_iterations >= 0) {
    throw PatternNotFoundError(m.processors, opts.cyclic.max_iterations);
  }

  const int need = static_cast<int>(!cls.flow_in.empty()) +
                   static_cast<int>(!cls.flow_out.empty());
  if (opts.flow_strategy == FlowStrategy::Fold || need == 0) {
    // Section-3 heuristic, realized by scheduling the whole graph greedily:
    // non-Cyclic nodes flow into idle slots of the Cyclic processors.  A
    // loop with no non-Cyclic node is that same greedy run.
    return schedule_greedy(g, m, iterations, opts.cyclic, std::move(cls),
                           opts.flow_strategy);
  }

  // --- The paper's Figure-6 pipeline with separate flow pools. ---
  // Each non-empty flow subset needs a pool of at least one processor
  // (latency >= 1), and the Cyclic run's processor set only grows.  Once
  // it holds more than P - need processors the pools cannot fit and the
  // loop folds whatever the pattern turns out to be, so stop the run
  // there.  With need >= P it stops by its first placement.
  const int budget = m.processors - need;
  std::vector<NodeId> old_of_new;
  const Ddg sub = cyclic_subgraph(g, cls, &old_of_new);
  CyclicSchedResult cyc = cyclic_sched(sub, m, opts.cyclic, 0, budget + 1);
  const std::vector<bool> cyclic_procs = processors_of(cyc.schedule);
  const int cyclic_used = count_used(cyclic_procs);
  if (cyclic_used > budget) {
    return schedule_greedy(g, m, iterations, opts.cyclic, std::move(cls),
                           FlowStrategy::Fold);
  }
  if (!cyc.pattern.has_value()) {
    throw PatternNotFoundError(m.processors, opts.cyclic.max_iterations);
  }
  const Pattern pattern = remap_pattern(*cyc.pattern, old_of_new);

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
    if (!cyclic_procs[static_cast<std::size_t>(p)]) free_procs.push_back(p);
  }
  if (static_cast<int>(free_procs.size()) < want_in + want_out) {
    // Not enough spare processors for the Figure-5 pools: fall back to the
    // folding heuristic, which needs no extra processors.
    return schedule_greedy(g, m, iterations, opts.cyclic, std::move(cls),
                           FlowStrategy::Fold);
  }
  const std::vector<int> pool_in(free_procs.begin(), free_procs.begin() + want_in);
  const std::vector<int> pool_out(free_procs.begin() + want_in,
                                  free_procs.begin() + want_in + want_out);

  FullSchedResult res{std::move(cls), pattern, Schedule(m.processors),
                      iterations, 0, cyclic_used, want_in, want_out, 0.0};

  // 1. Flow-in, ASAP round-robin.
  schedule_flow_subset(g, m, flow_in_topo, pool_in, iterations, res.schedule);

  // 2. Cyclic placements, shifted right by the smallest constant that
  //    satisfies every Flow-in -> Cyclic dependence.
  const Schedule nominal = materialize(pattern, m.processors, iterations);
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
  // A constant shift keeps materialize's (start, proc, inst) order.
  for (const Placement& p : nominal.placements()) {
    res.schedule.place(p.inst, p.proc, p.start + shift, p.finish + shift);
  }

  // 3. Flow-out, ASAP round-robin behind everything else.
  schedule_flow_subset(g, m, flow_out_topo, pool_out, iterations,
                       res.schedule);

  res.processors_used = count_used(processors_of(res.schedule));
  res.steady_ii = measure_steady_ii(res.schedule, iterations);
  return res;
}

}  // namespace mimd
