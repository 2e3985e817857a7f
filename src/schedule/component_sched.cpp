#include "schedule/component_sched.hpp"

#include <algorithm>
#include <map>

#include "graph/algorithms.hpp"

namespace mimd {

namespace {

std::int64_t subset_latency(const Ddg& g, const std::vector<NodeId>& nodes) {
  std::int64_t sum = 0;
  for (const NodeId v : nodes) sum += g.node(v).latency;
  return sum;
}

/// Remap a pattern's node ids (via old_of_new) and processor ids (via
/// proc_map, local -> global).
Pattern remap(const Pattern& pat, const std::vector<NodeId>& old_of_new,
              const std::map<int, int>& proc_map) {
  Pattern out = pat;
  for (auto* vec : {&out.prologue, &out.kernel}) {
    for (Placement& p : *vec) {
      p.inst.node = old_of_new[p.inst.node];
      p.proc = proc_map.at(p.proc);
    }
  }
  return out;
}

}  // namespace

ComponentSchedResult component_cyclic_sched(const Ddg& g, const Machine& m,
                                            const CyclicSchedOptions& opts) {
  MIMD_EXPECTS(g.num_nodes() > 0);
  MIMD_EXPECTS(g.distances_normalized());

  std::vector<std::vector<NodeId>> comps = connected_components(g);
  // Heaviest component first: it deserves the largest processor share.
  std::sort(comps.begin(), comps.end(),
            [&](const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
              return subset_latency(g, a) > subset_latency(g, b);
            });

  ComponentSchedResult res;
  int next_global = 0;
  int remaining = m.processors;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const int reserve = static_cast<int>(comps.size() - i - 1);
    const int budget = std::max(1, remaining - reserve);

    std::vector<NodeId> old_of_new;
    const Ddg sub = g.induced_subgraph(comps[i], &old_of_new);
    Machine local = m;
    local.processors = budget;
    CyclicSchedResult r = cyclic_sched(sub, local, opts);
    MIMD_ENSURES(r.pattern.has_value());

    // Which local processors does the pattern occupy?
    std::vector<int> used;
    for (const auto* vec : {&r.pattern->prologue, &r.pattern->kernel}) {
      for (const Placement& p : *vec) {
        if (std::find(used.begin(), used.end(), p.proc) == used.end()) {
          used.push_back(p.proc);
        }
      }
    }
    std::sort(used.begin(), used.end());
    std::map<int, int> proc_map;
    ComponentPlan plan;
    plan.nodes = comps[i];
    for (const int local_proc : used) {
      proc_map[local_proc] = next_global;
      plan.procs.push_back(next_global);
      ++next_global;
    }
    remaining -= static_cast<int>(used.size());
    plan.pattern = remap(*r.pattern, old_of_new, proc_map);
    res.steady_ii =
        std::max(res.steady_ii, plan.pattern.initiation_interval());
    res.components.push_back(std::move(plan));
  }
  res.processors_used = next_global;
  return res;
}

Schedule materialize(const ComponentSchedResult& r, int processors,
                     std::int64_t n) {
  MIMD_EXPECTS(processors >= r.processors_used);
  std::vector<Placement> all;
  for (const ComponentPlan& comp : r.components) {
    const Schedule part = materialize(comp.pattern, processors, n);
    const auto& placed = part.placements();
    all.insert(all.end(), placed.begin(), placed.end());
  }
  // Components hold disjoint processors, so each processor's placements
  // come from one component, in start order: merge them.
  return prefix_schedule(all, processors, n);
}

}  // namespace mimd
