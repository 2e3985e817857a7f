#include "support/reference_schedule.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"

namespace mimd::testsupport {

namespace {

/// Ready-queue key: the consistent total order required by footnote 7.
/// Instances are served iteration-first, then by intra-iteration topological
/// rank, then by node id.
using ReadyKey = std::tuple<std::int64_t, int, NodeId>;

struct Checkpoint {
  std::int64_t iter;
  std::int64_t t0;
  std::size_t decisions;
};

class Scheduler {
 public:
  Scheduler(const Ddg& g, const Machine& m, const CyclicSchedOptions& opts)
      : g_(g), m_(m), opts_(opts), sched_(m.processors) {
    MIMD_EXPECTS(g.num_nodes() > 0);
    MIMD_EXPECTS(g.distances_normalized());
    rank_.resize(g.num_nodes());
    if (opts.order == ReadyOrder::Topological) {
      const auto order = topo_order_intra(g);
      for (std::size_t i = 0; i < order.size(); ++i) {
        rank_[order[i]] = static_cast<int>(i);
      }
    } else {
      // Critical-path priority: height = longest intra-iteration path
      // starting at the node (its own latency included); taller first.
      const auto order = topo_order_intra(g);
      std::vector<std::int64_t> height(g.num_nodes(), 0);
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const NodeId v = *it;
        std::int64_t below = 0;
        for (const EdgeId eid : g.out_edges(v)) {
          if (g.edge(eid).distance == 0) {
            below = std::max(below, height[g.edge(eid).dst]);
          }
        }
        height[v] = below + g.node(v).latency;
      }
      std::vector<NodeId> by_height(g.num_nodes());
      for (NodeId v = 0; v < g.num_nodes(); ++v) by_height[v] = v;
      std::sort(by_height.begin(), by_height.end(),
                [&](NodeId a, NodeId b) {
                  if (height[a] != height[b]) return height[a] > height[b];
                  return a < b;
                });
      for (std::size_t i = 0; i < by_height.size(); ++i) {
        rank_[by_height[i]] = static_cast<int>(i);
      }
    }
    indeg0_.assign(g.num_nodes(), 0);
    indeg1_.assign(g.num_nodes(), 0);
    for (const Edge& e : g.edges()) {
      ++(e.distance == 0 ? indeg0_ : indeg1_)[e.dst];
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (indeg0_[v] == 0) ready_.insert({0, rank_[v], v});
      if (indeg0_[v] == 0 && indeg1_[v] == 0) has_roots_ = true;
    }
    window_ = opts.lead_window > 0
                  ? opts.lead_window
                  : 2 * (g.body_latency() +
                         static_cast<std::int64_t>(m.comm_estimate + 1) *
                             static_cast<std::int64_t>(g.num_nodes())) +
                        16;
  }

  CyclicSchedResult run() {
    const bool horizon_mode = opts_.horizon_iterations >= 0;
    if (!horizon_mode) {
      MIMD_EXPECTS(connected_components(g_).size() == 1);
    }
    const std::int64_t iter_bound =
        horizon_mode ? opts_.horizon_iterations : opts_.max_iterations;

    while (!ready_.empty() && !pattern_.has_value()) {
      const auto [iter, rk, v] = *ready_.begin();
      ready_.erase(ready_.begin());
      (void)rk;
      if (iter >= iter_bound) {
        if (horizon_mode) continue;  // drop instances beyond the horizon
        break;                       // safety bound exceeded, no pattern
      }
      schedule_instance(v, iter, /*detect=*/!horizon_mode);
    }
    return CyclicSchedResult{std::move(sched_), std::move(pattern_),
                             next_checkpoint_};
  }

 private:
  void schedule_instance(NodeId v, std::int64_t iter, bool detect) {
    const Inst inst{v, iter};

    std::int64_t throttle = 0;
    if (iter >= window_) {
      const auto it = done_time_.find(iter - window_);
      if (it != done_time_.end()) throttle = it->second;
    }

    int best_proc = -1;
    std::int64_t best_start = 0;
    for (int p = 0; p < m_.processors; ++p) {
      std::int64_t t = std::max(sched_.next_free(p), throttle);
      for (const EdgeId eid : g_.in_edges(v)) {
        const Edge& e = g_.edge(eid);
        const std::int64_t src_iter = iter - e.distance;
        if (src_iter < 0) continue;
        const auto src = sched_.lookup(Inst{e.src, src_iter});
        MIMD_ENSURES(src.has_value());
        t = std::max(t, src->finish +
                            (src->proc == p ? 0 : m_.comm_cost(e)));
      }
      if (best_proc < 0 || t < best_start) {
        best_proc = p;
        best_start = t;
      }
    }
    sched_.place(inst, best_proc, best_start,
                 best_start + g_.node(v).latency);
    auto& done = done_time_[iter];
    done = std::max(done, best_start + g_.node(v).latency);
    max_seen_iter_ = std::max(max_seen_iter_, iter);

    if (!g_.out_edges(v).empty()) {
      succ_left_.emplace(inst, static_cast<int>(g_.out_edges(v).size()));
    }
    for (const EdgeId eid : g_.in_edges(v)) {
      const Edge& e = g_.edge(eid);
      const std::int64_t src_iter = iter - e.distance;
      if (src_iter < 0) continue;
      const auto it = succ_left_.find(Inst{e.src, src_iter});
      MIMD_ENSURES(it != succ_left_.end());
      if (--it->second == 0) succ_left_.erase(it);
    }

    for (const EdgeId eid : g_.out_edges(v)) {
      const Edge& e = g_.edge(eid);
      const Inst succ{e.dst, iter + e.distance};
      const int init = indeg0_[e.dst] + (succ.iter > 0 ? indeg1_[e.dst] : 0);
      const auto [it, inserted] = remaining_.try_emplace(succ, init);
      if (--it->second == 0) {
        remaining_.erase(it);
        ready_.insert({succ.iter, rank_[e.dst], e.dst});
      }
    }
    if (indeg0_[v] == 0 && indeg1_[v] == 0) {
      ready_.insert({iter + 1, rank_[v], v});
    }

    if (++done_in_iter_[iter] == g_.num_nodes()) {
      while (true) {
        const auto done_it = done_in_iter_.find(next_checkpoint_);
        if (done_it == done_in_iter_.end() ||
            done_it->second != g_.num_nodes()) {
          break;
        }
        done_in_iter_.erase(done_it);
        if (detect) {
          take_checkpoint(next_checkpoint_);
        }
        ++next_checkpoint_;
        if (pattern_.has_value()) break;
      }
    }
  }

  void take_checkpoint(std::int64_t cp_iter) {
    std::int64_t t0 = 0;
    for (int p = 0; p < m_.processors; ++p) {
      t0 = std::max(t0, sched_.next_free(p));
    }

    std::vector<std::tuple<NodeId, std::int64_t, int, std::int64_t>> live;
    live.reserve(succ_left_.size());
    for (const auto& [inst, left] : succ_left_) {
      (void)left;
      const auto pl = sched_.lookup(inst);
      live.emplace_back(inst.node, inst.iter - cp_iter, pl->proc,
                        pl->finish - t0);
    }
    std::sort(live.begin(), live.end());

    std::int64_t floor = 0;
    for (const auto& [node, io, proc, fo] : live) {
      floor = std::min(floor, fo);
    }
    bool clamp = !has_roots_;
    if (has_roots_ && cp_iter + 1 >= window_) {
      const auto it = done_time_.find(cp_iter + 1 - window_);
      if (it != done_time_.end()) {
        floor = std::min(floor, it->second - t0);
        clamp = true;
      }
    }
    std::ostringstream sig;
    sig << "nf:";
    for (int p = 0; p < m_.processors; ++p) {
      const std::int64_t off = sched_.next_free(p) - t0;
      sig << (clamp ? std::max(off, floor) : off) << ',';
    }

    sig << "|done:";
    for (std::int64_t j = std::max<std::int64_t>(0, cp_iter - window_);
         j <= max_seen_iter_; ++j) {
      const auto it = done_time_.find(j);
      if (it == done_time_.end()) {
        sig << "x,";
      } else {
        sig << (it->second - t0) << ',';
      }
    }
    sig << "|live:";
    for (const auto& [node, io, proc, fo] : live) {
      sig << node << ',' << io << ',' << proc << ',' << fo << ';';
    }

    sig << "|ready:";
    for (const auto& [iter, rk, node] : ready_) {
      (void)rk;
      sig << node << ',' << (iter - cp_iter) << ';';
    }

    const auto [it, inserted] = seen_.try_emplace(
        sig.str(), Checkpoint{cp_iter, t0, sched_.placements().size()});
    if (inserted) return;

    const Checkpoint& first = it->second;
    Pattern pat;
    pat.period_iters = cp_iter - first.iter;
    pat.period_cycles = t0 - first.t0;
    MIMD_ENSURES(pat.period_iters >= 1);
    MIMD_ENSURES(pat.period_cycles >= 1);
    const auto& all = sched_.placements();
    pat.prologue.assign(
        all.begin(), all.begin() + static_cast<std::ptrdiff_t>(first.decisions));
    pat.kernel.assign(
        all.begin() + static_cast<std::ptrdiff_t>(first.decisions), all.end());
    MIMD_ENSURES(!pat.kernel.empty());
    std::int64_t min_iter = pat.kernel.front().inst.iter;
    for (const Placement& p : pat.kernel) {
      min_iter = std::min(min_iter, p.inst.iter);
    }
    pat.first_iter = min_iter;
    pattern_ = std::move(pat);
  }

  const Ddg& g_;
  const Machine& m_;
  const CyclicSchedOptions& opts_;

  Schedule sched_;
  std::vector<int> rank_;
  std::vector<int> indeg0_, indeg1_;
  std::set<ReadyKey> ready_;
  std::unordered_map<Inst, int, InstHash> remaining_;
  std::unordered_map<Inst, int, InstHash> succ_left_;
  std::unordered_map<std::int64_t, std::size_t> done_in_iter_;
  std::int64_t next_checkpoint_ = 0;
  std::unordered_map<std::string, Checkpoint> seen_;
  std::optional<Pattern> pattern_;
  bool has_roots_ = false;
  std::int64_t window_ = 0;
  std::int64_t max_seen_iter_ = 0;
  std::unordered_map<std::int64_t, std::int64_t> done_time_;
};

bool by_start_proc_inst(const Placement& a, const Placement& b) {
  return std::tie(a.start, a.proc, a.inst) < std::tie(b.start, b.proc, b.inst);
}

}  // namespace

CyclicSchedResult reference_cyclic_sched(const Ddg& g, const Machine& m,
                                         const CyclicSchedOptions& opts) {
  return Scheduler(g, m, opts).run();
}

Schedule reference_prefix_schedule(std::vector<Placement> placements,
                                   int processors, std::int64_t n) {
  std::erase_if(placements,
                [n](const Placement& p) { return p.inst.iter >= n; });
  std::sort(placements.begin(), placements.end(), by_start_proc_inst);
  Schedule sched(processors);
  for (const Placement& p : placements) {
    sched.place(p.inst, p.proc, p.start, p.finish);
  }
  return sched;
}

Schedule reference_materialize(const Pattern& pat, int processors,
                               std::int64_t n) {
  MIMD_EXPECTS(n >= 0);
  MIMD_EXPECTS(pat.period_iters >= 1);

  std::vector<Placement> all = pat.prologue;
  for (std::int64_t rep = 0;; ++rep) {
    const std::int64_t dt = rep * pat.period_cycles;
    const std::int64_t di = rep * pat.period_iters;
    bool any = false;
    for (const Placement& p : pat.kernel) {
      const std::int64_t iter = p.inst.iter + di;
      if (iter >= n) continue;
      any = true;
      all.push_back(Placement{Inst{p.inst.node, iter}, p.proc, p.start + dt,
                              p.finish + dt});
    }
    if (!any) break;
  }
  return reference_prefix_schedule(std::move(all), processors, n);
}

PartitionedProgram reference_lower(const Schedule& sched, const Ddg& g) {
  PartitionedProgram prog;
  prog.processors = sched.processors();
  prog.programs.resize(static_cast<std::size_t>(sched.processors()));
  for (int p = 0; p < sched.processors(); ++p) {
    prog.programs[static_cast<std::size_t>(p)].proc = p;
  }

  std::vector<Placement> order = sched.placements();
  std::sort(order.begin(), order.end(), by_start_proc_inst);

  for (const Placement& pl : order) {
    auto& ops = prog.programs[static_cast<std::size_t>(pl.proc)].ops;

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

}  // namespace mimd::testsupport
