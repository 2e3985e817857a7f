#include "opt/dce.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include "ir/dependence.hpp"

namespace mimd::opt {

int DeadCodeElim::run(ir::Loop& loop) {
  if (loop.outputs.empty()) return 0;  // everything observable
  const std::set<std::string> outs(loop.outputs.begin(), loop.outputs.end());

  const std::size_t n = loop.body.size();
  std::vector<bool> live(n, false);
  std::vector<std::size_t> work;
  for (std::size_t s = 0; s < n; ++s) {
    if (outs.count(loop.body[s].target) > 0) {
      live[s] = true;
      work.push_back(s);
    }
  }
  // Degenerate program whose outputs are never defined: removing the
  // whole body would leave nothing to schedule — leave it alone.
  if (work.empty()) return 0;

  const ir::DependenceResult deps = ir::analyze_dependences(loop);
  // stmt_of[node] inverts deps.node_of (one node per statement).
  std::vector<std::size_t> stmt_of(deps.graph.num_nodes(), 0);
  for (std::size_t s = 0; s < n; ++s) {
    stmt_of[deps.node_of[s]] = s;
  }
  while (!work.empty()) {
    const std::size_t s = work.back();
    work.pop_back();
    for (const EdgeId eid : deps.graph.in_edges(deps.node_of[s])) {
      const std::size_t producer = stmt_of[deps.graph.edge(eid).src];
      if (!live[producer]) {
        live[producer] = true;
        work.push_back(producer);
      }
    }
  }

  std::vector<ir::Stmt> kept;
  kept.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (live[s]) kept.push_back(std::move(loop.body[s]));
  }
  const int removed = static_cast<int>(n - kept.size());
  loop.body = std::move(kept);
  return removed;
}

}  // namespace mimd::opt
