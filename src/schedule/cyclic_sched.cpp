#include "schedule/cyclic_sched.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/algorithms.hpp"

namespace mimd {

namespace {

struct Checkpoint {
  std::int64_t iter;
  std::int64_t t0;
  std::size_t decisions;
};

class Scheduler {
 public:
  Scheduler(const Ddg& g, const Machine& m, const CyclicSchedOptions& opts,
            std::int64_t until, int min_processors)
      : g_(g),
        m_(m),
        opts_(opts),
        until_(until),
        min_processors_(min_processors),
        nodes_(g.num_nodes()),
        words_((g.num_nodes() + 63) / 64),
        sched_(m.processors),
        used_(static_cast<std::size_t>(m.processors), false) {
    MIMD_EXPECTS(g.num_nodes() > 0);
    MIMD_EXPECTS(g.distances_normalized());
    rank_.resize(nodes_);
    if (opts.order == ReadyOrder::Topological) {
      const auto order = topo_order_intra(g);
      for (std::size_t i = 0; i < order.size(); ++i) {
        rank_[order[i]] = static_cast<int>(i);
      }
    } else {
      // Critical-path priority: height = longest intra-iteration path
      // starting at the node (its own latency included); taller first.
      const auto order = topo_order_intra(g);
      std::vector<std::int64_t> height(nodes_, 0);
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
      std::vector<NodeId> by_height(nodes_);
      for (NodeId v = 0; v < nodes_; ++v) by_height[v] = v;
      std::sort(by_height.begin(), by_height.end(),
                [&](NodeId a, NodeId b) {
                  if (height[a] != height[b]) return height[a] > height[b];
                  return a < b;
                });
      for (std::size_t i = 0; i < by_height.size(); ++i) {
        rank_[by_height[i]] = static_cast<int>(i);
      }
    }
    // Ranks are a permutation of the node ids, so (iteration, rank, node)
    // orders the ready queue exactly as (iteration, rank) does.
    node_of_rank_.resize(nodes_);
    for (NodeId v = 0; v < nodes_; ++v) {
      node_of_rank_[static_cast<std::size_t>(rank_[v])] = v;
    }
    indeg0_.assign(nodes_, 0);
    std::vector<int> indeg1(nodes_, 0);
    for (const Edge& e : g.edges()) {
      ++(e.distance == 0 ? indeg0_ : indeg1)[e.dst];
    }
    later_preds_.resize(nodes_);
    for (NodeId v = 0; v < nodes_; ++v) {
      later_preds_[v] = indeg0_[v] + indeg1[v];
      if (later_preds_[v] == 0) has_roots_ = true;
    }
    remaining_.resize(kRows * nodes_);
    succ_left_.resize(kRows * nodes_);
    ready_bits_.resize(kRows * words_);
    open_row(0);
    open_row(1);
    for (NodeId v = 0; v < nodes_; ++v) {
      if (indeg0_[v] == 0) push_ready(0, v);
    }
    // Automatic lead window: a safe upper bound on one iteration's
    // schedule span (every node plus a communication hop on some path),
    // doubled for slack, so the throttle can never slow the binding
    // recurrence (window >= span / rate since rate >= 1).
    window_ = opts.lead_window > 0
                  ? opts.lead_window
                  : 2 * (g.body_latency() +
                         static_cast<std::int64_t>(m.comm_estimate + 1) *
                             static_cast<std::int64_t>(nodes_)) +
                        16;
  }

  CyclicSchedResult run() {
    const bool horizon_mode = opts_.horizon_iterations >= 0;
    // Patterns only exist for connected graphs (Section 2.1, Lemma 3):
    // disconnected components settle into different rates and their union
    // never repeats.  Use component_cyclic_sched for disconnected loops.
    // Horizon mode does not detect patterns and tolerates anything.
    if (!horizon_mode) {
      MIMD_EXPECTS(connected_components(g_).size() == 1);
    }
    const std::int64_t iter_bound =
        horizon_mode ? opts_.horizon_iterations : opts_.max_iterations;

    while (ready_count_ > 0 && !pattern_.has_value() &&
           (next_checkpoint_ < until_ || processors_used_ < min_processors_)) {
      const auto [iter, v] = pop_ready();
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
  // Per-instance state lives in a ring of kRows iteration rows.  The
  // queue always serves the lowest incomplete iteration c (its lowest
  // unplaced instance in the intra-iteration order is ready), so every
  // placement is of iteration c, and with distances 0 and 1 every
  // release, ready instance and live instance lies in c - 1 .. c + 1
  // (DESIGN.md, "Dense schedule tables").
  static constexpr std::size_t kRows = 4;

  /// Ring row of iteration `iter`, which must be one of the open rows.
  std::size_t row(std::int64_t iter) const {
    const auto r = static_cast<std::size_t>(iter) % kRows;
    MIMD_ENSURES(row_iter_[r] == iter);
    return r;
  }

  /// Take over the ring row of iteration `iter` - kRows for `iter`.
  void open_row(std::int64_t iter) {
    const auto r = static_cast<std::size_t>(iter) % kRows;
    MIMD_ENSURES(ready_in_row_[r] == 0);
    row_iter_[r] = iter;
    placed_in_row_[r] = 0;
    const std::vector<int>& preds = iter == 0 ? indeg0_ : later_preds_;
    std::copy(preds.begin(), preds.end(), remaining_.begin() + r * nodes_);
    std::fill_n(succ_left_.begin() + r * nodes_, nodes_, 0);
  }

  void push_ready(std::int64_t iter, NodeId v) {
    const std::size_t r = row(iter);
    const auto k = static_cast<std::size_t>(rank_[v]);
    ready_bits_[r * words_ + k / 64] |= std::uint64_t{1} << (k % 64);
    ++ready_in_row_[r];
    ++ready_count_;
  }

  /// Remove and return the first ready instance in (iteration, rank)
  /// order.
  std::pair<std::int64_t, NodeId> pop_ready() {
    for (std::int64_t iter = next_checkpoint_;; ++iter) {
      MIMD_ENSURES(iter <= next_checkpoint_ + 1);
      const std::size_t r = row(iter);
      if (ready_in_row_[r] == 0) continue;
      for (std::size_t w = 0;; ++w) {
        std::uint64_t& word = ready_bits_[r * words_ + w];
        if (word == 0) continue;
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        --ready_in_row_[r];
        --ready_count_;
        return {iter, node_of_rank_[w * 64 + bit]};
      }
    }
  }

  void schedule_instance(NodeId v, std::int64_t iter, bool detect) {
    const Inst inst{v, iter};
    MIMD_ENSURES(iter == next_checkpoint_);  // iterations complete in order
    const std::size_t r = row(iter);

    // Iteration-lead throttle (see CyclicSchedOptions::lead_window).
    std::int64_t throttle = 0;
    if (iter >= window_) {
      throttle = done_time_[static_cast<std::size_t>(iter - window_)];
    }

    // Processor selection: first minimum of T(v, Pj) over all processors
    // (Figure 4, step 2).
    preds_.clear();
    for (const EdgeId eid : g_.in_edges(v)) {
      const Edge& e = g_.edge(eid);
      const std::int64_t src_iter = iter - e.distance;
      if (src_iter < 0) continue;
      const auto src = sched_.lookup(Inst{e.src, src_iter});
      MIMD_ENSURES(src.has_value());  // pop order is topological
      preds_.push_back(Operand{src->finish, src->proc, &e});
    }
    int best_proc = -1;
    std::int64_t best_start = 0;
    for (int p = 0; p < m_.processors; ++p) {
      std::int64_t t = std::max(sched_.next_free(p), throttle);
      for (const Operand& src : preds_) {
        t = std::max(t, src.finish +
                            (src.proc == p ? 0 : m_.comm_cost(*src.edge)));
      }
      if (best_proc < 0 || t < best_start) {
        best_proc = p;
        best_start = t;
      }
    }
    const std::int64_t finish = best_start + g_.node(v).latency;
    sched_.place(inst, best_proc, best_start, finish);
    if (!used_[static_cast<std::size_t>(best_proc)]) {
      used_[static_cast<std::size_t>(best_proc)] = true;
      ++processors_used_;
    }
    if (iter == static_cast<std::int64_t>(done_time_.size())) {
      done_time_.push_back(finish);  // the iteration's first placement
    } else {
      done_time_.back() = std::max(done_time_.back(), finish);
    }

    // Liveness bookkeeping: an instance is "live" while it still has
    // unscheduled successors — exactly the instances whose finish times can
    // influence future decisions.
    succ_left_[r * nodes_ + v] = static_cast<int>(g_.out_edges(v).size());
    for (const EdgeId eid : g_.in_edges(v)) {
      const Edge& e = g_.edge(eid);
      const std::int64_t src_iter = iter - e.distance;
      if (src_iter < 0) continue;
      int& left = succ_left_[row(src_iter) * nodes_ + e.src];
      MIMD_ENSURES(left > 0);
      --left;
    }

    // Release successors (Figure 4, last step).
    for (const EdgeId eid : g_.out_edges(v)) {
      const Edge& e = g_.edge(eid);
      const std::int64_t succ_iter = iter + e.distance;
      if (--remaining_[row(succ_iter) * nodes_ + e.dst] == 0) {
        push_ready(succ_iter, e.dst);
      }
    }
    // Self-seeding roots: a node with no in-edges at all must be re-enqueued
    // for the next iteration by hand (no dependence will ever release it).
    if (later_preds_[v] == 0) push_ready(iter + 1, v);

    // Iteration-completion checkpoint.
    if (++placed_in_row_[r] == nodes_) {
      if (detect) take_checkpoint(iter);
      ++next_checkpoint_;
      open_row(next_checkpoint_ + 1);
    }
  }

  /// Append `v` to the signature as a zigzag LEB128 varint: a prefix-free
  /// code, so a byte string decodes to exactly one value sequence.
  void put(std::int64_t v) {
    auto z = (static_cast<std::uint64_t>(v) << 1) ^
             static_cast<std::uint64_t>(v >> 63);
    for (; z >= 0x80; z >>= 7) sig_.push_back(static_cast<char>(z | 0x80));
    sig_.push_back(static_cast<char>(z));
  }

  /// Serialize the complete scheduler state relative to (cp_iter, t0) and
  /// look it up.  Equal signatures => the continuation repeats (bisimulation).
  void take_checkpoint(std::int64_t cp_iter) {
    std::int64_t t0 = 0;
    for (int p = 0; p < m_.processors; ++p) {
      t0 = std::max(t0, sched_.next_free(p));
    }

    // Live instances in node order.  Every successor of an instance below
    // cp_iter lies at or below cp_iter, which is complete, so only
    // iteration cp_iter can hold one.
    live_.clear();
    const std::size_t r = row(cp_iter);
    for (NodeId v = 0; v < nodes_; ++v) {
      if (succ_left_[r * nodes_ + v] == 0) continue;
      const auto pl = sched_.lookup(Inst{v, cp_iter});
      live_.push_back(Live{v, pl->proc, pl->finish - t0});
    }

    // In a root-free graph (every Cyclic subgraph is one) no future
    // instance can start before the oldest live finish: data_ready is a
    // max over predecessors, all of which are live or scheduled later.  A
    // processor whose next_free lies at or below that floor therefore
    // behaves exactly like one resting *at* the floor — clamp, or the
    // offsets of never-used processors would diverge and no configuration
    // would ever repeat.  With root nodes (possible in Fold mode) the raw
    // value matters (roots start at next_free itself), and roots keep all
    // processors busy, so the offsets stay bounded without clamping.
    std::int64_t floor = 0;
    for (const Live& l : live_) floor = std::min(floor, l.finish_offset);
    // Root instances start at max(next_free, throttle), so for graphs with
    // roots the clamp must also stay below every future throttle value;
    // the earliest future pop is iteration cp+1, throttled by
    // done[cp+1-window].  Until the throttle becomes active, raw offsets
    // are used (early checkpoints simply do not match, which is harmless).
    bool clamp = !has_roots_;
    if (has_roots_ && cp_iter + 1 >= window_) {
      const auto throttled_by = static_cast<std::size_t>(cp_iter + 1 - window_);
      floor = std::min(floor, done_time_[throttled_by] - t0);
      clamp = true;
    }

    // The signature: P next_free offsets, then two variable-length
    // sections, each behind its length — completion times and live
    // instances.  Equal byte strings mean equal sections.  The ready queue
    // is left out: at every checkpoint it holds exactly the nodes with no
    // distance-0 predecessor, of iteration cp_iter + 1, so it is the same
    // in every signature of a run.
    sig_.clear();
    for (int p = 0; p < m_.processors; ++p) {
      const std::int64_t off = sched_.next_free(p) - t0;
      put(clamp ? std::max(off, floor) : off);
    }

    // The throttle makes future decisions depend on the completion times
    // of recent iterations; done_time_ ends at cp_iter, the last one
    // placed.
    const auto done_lo =
        static_cast<std::size_t>(std::max<std::int64_t>(0, cp_iter - window_));
    put(static_cast<std::int64_t>(done_time_.size() - done_lo));
    for (std::size_t j = done_lo; j < done_time_.size(); ++j) {
      put(done_time_[j] - t0);
    }
    put(static_cast<std::int64_t>(live_.size()));
    for (const Live& l : live_) {
      put(l.node);
      put(l.proc);
      put(l.finish_offset);
    }

    const auto [it, inserted] = seen_.try_emplace(
        sig_, Checkpoint{cp_iter, t0, sched_.placements().size()});
    if (inserted) return;

    // Pattern found between checkpoint `first` and now.
    const Checkpoint& first = it->second;
    Pattern pat;
    pat.period_iters = cp_iter - first.iter;
    pat.period_cycles = t0 - first.t0;
    MIMD_ENSURES(pat.period_iters >= 1);
    MIMD_ENSURES(pat.period_cycles >= 1);
    const auto& all = sched_.placements();
    pat.prologue.assign(all.begin(),
                        all.begin() + static_cast<std::ptrdiff_t>(first.decisions));
    pat.kernel.assign(all.begin() + static_cast<std::ptrdiff_t>(first.decisions),
                      all.end());
    MIMD_ENSURES(!pat.kernel.empty());
    std::int64_t min_iter = pat.kernel.front().inst.iter;
    for (const Placement& p : pat.kernel) {
      min_iter = std::min(min_iter, p.inst.iter);
    }
    pat.first_iter = min_iter;
    pattern_ = std::move(pat);
  }

  /// A placed predecessor of the instance being scheduled.
  struct Operand {
    std::int64_t finish;
    int proc;
    const Edge* edge;
  };
  struct Live {
    NodeId node;
    int proc;
    std::int64_t finish_offset;
  };

  const Ddg& g_;
  const Machine& m_;
  const CyclicSchedOptions& opts_;
  const std::int64_t until_;
  const int min_processors_;
  const std::size_t nodes_;
  const std::size_t words_;  ///< 64-bit words per ready-queue row

  Schedule sched_;
  std::vector<bool> used_;  ///< processors holding at least one placement
  int processors_used_ = 0;
  std::vector<int> rank_;
  std::vector<NodeId> node_of_rank_;
  std::vector<int> indeg0_;       ///< predecessors of an iteration-0 instance
  std::vector<int> later_preds_;  ///< predecessors of any later instance
  bool has_roots_ = false;
  std::int64_t window_ = 0;

  // The ring: [row * nodes_ + v] for (v, row_iter_[row]).
  std::array<std::int64_t, kRows> row_iter_{-1, -1, -1, -1};
  std::array<std::size_t, kRows> placed_in_row_{};
  std::array<std::size_t, kRows> ready_in_row_{};
  std::vector<int> remaining_;  ///< predecessors not yet placed
  std::vector<int> succ_left_;  ///< successors not yet placed (0 if unplaced)
  std::vector<std::uint64_t> ready_bits_;  ///< [row * words_ + rank / 64]
  std::size_t ready_count_ = 0;

  std::int64_t next_checkpoint_ = 0;  ///< the lowest incomplete iteration
  /// Latest finish of each iteration placed so far.
  std::vector<std::int64_t> done_time_;

  // Buffers reused by every call, so a call allocates nothing.
  std::vector<Operand> preds_;       ///< schedule_instance's operands
  std::vector<Live> live_;           ///< take_checkpoint's live instances
  std::string sig_;                  ///< take_checkpoint's signature
  /// Every signature seen so far and the checkpoint it was first seen at.
  std::unordered_map<std::string, Checkpoint> seen_;
  std::optional<Pattern> pattern_;
};

}  // namespace

CyclicSchedResult cyclic_sched(const Ddg& g, const Machine& m,
                               const CyclicSchedOptions& opts,
                               std::int64_t until, int min_processors) {
  return Scheduler(g, m, opts, until, min_processors).run();
}

}  // namespace mimd
