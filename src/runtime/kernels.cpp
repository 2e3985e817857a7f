#include "runtime/kernels.hpp"

#include <cmath>

#include "graph/algorithms.hpp"

namespace mimd {

double initial_value(NodeId v) { return 0.5 * (static_cast<double>(v) + 1.0); }

double synthetic_value(const Ddg& g, NodeId v, std::int64_t iter,
                       const std::vector<double>& operands,
                       const KernelOptions& opts) {
  // Fold operands in fixed in-edge order; scale and wrap to keep values
  // bounded (and therefore exactly reproducible — no overflow to inf).
  double acc = static_cast<double>(g.node(v).latency) +
               0.001 * static_cast<double>(v) +
               1e-6 * static_cast<double>(iter % 1024);
  for (const double x : operands) {
    acc = 0.5 * acc + 0.25 * x + 0.125;
  }
  if (acc > 4.0) acc -= 4.0;

  // Optional real work, proportional to the node's latency: models the
  // paper's guidance that node granularity should be chosen so execution
  // time is within the same order of magnitude as communication cost.
  if (opts.work_per_cycle > 0) {
    double w = acc;
    const int spins = opts.work_per_cycle * g.node(v).latency;
    for (int s = 0; s < spins; ++s) {
      w = w * 0.999999 + 1e-9;
    }
    // Fold the (value-preserving) work back in so it cannot be elided.
    acc += (w - w);  // == 0, but data-dependent on the loop above
    acc += 0.0 * w;
  }
  return acc;
}

ResultBlock run_sequential(const Ddg& g, std::int64_t n,
                           const KernelOptions& opts) {
  MIMD_EXPECTS(n >= 0);
  ResultBlock out(g.num_nodes(), n);

  const auto order = topo_order_intra(g);
  std::vector<double> operands;
  for (std::int64_t i = 0; i < n; ++i) {
    for (const NodeId v : order) {
      operands.clear();
      for (const EdgeId eid : g.in_edges(v)) {
        const Edge& e = g.edge(eid);
        const std::int64_t src_iter = i - e.distance;
        operands.push_back(src_iter < 0
                               ? initial_value(e.src)
                               : out[e.src][static_cast<std::size_t>(src_iter)]);
      }
      out[v][static_cast<std::size_t>(i)] =
          synthetic_value(g, v, i, operands, opts);
    }
  }
  return out;
}

}  // namespace mimd
