#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "runtime/spsc_ring.hpp"
#include "runtime/worker_pool.hpp"

namespace mimd {

namespace {

/// The hot path.  Every name was resolved at compile() time: operands
/// read flat slots or a node's pre-loop value, and channels are dense
/// indices.
void execute(const CompiledProgram& cp, const Ddg& g,
             const std::vector<std::unique_ptr<SpscChannel>>& chans,
             const RunOptions& opts, ExecutionResult& res) {
  const KernelOptions& kernel = opts.kernel;
  auto worker = [&](const CompiledThread& t) {
    std::vector<double> slots(t.num_slots, 0.0);
    std::vector<double> operands;
    for (const CompiledOp& op : t.ops) {
      switch (op.kind) {
        case CompiledOp::Kind::Compute: {
          operands.clear();
          for (std::uint32_t i = 0; i < op.num_operands; ++i) {
            const OperandRef& ref = t.operands[op.first_operand + i];
            operands.push_back(ref.kind == OperandRef::Kind::LocalSlot
                                   ? slots[ref.index]
                                   : initial_value(ref.index));
          }
          const double v = synthetic_value(g, op.node, op.iter, operands,
                                           kernel);
          slots[op.slot] = v;
          res.values[op.node][static_cast<std::size_t>(op.iter)] = v;
          break;
        }
        case CompiledOp::Kind::Send:
          chans[op.chan]->send({op.iter, slots[op.slot]});
          break;
        case CompiledOp::Kind::Receive: {
          const ChannelMessage m = chans[op.chan]->receive();
          MIMD_ENSURES(m.iter == op.iter);  // FIFO tag check
          slots[op.slot] = m.value;
          break;
        }
      }
    }
  };

  // One task per compiled thread, in the (pinning) order frozen at
  // compile() time.  The pool choice and the rotating pinned-slice policy
  // live in run_indexed_gang (runtime/worker_pool.hpp), shared with the
  // JIT's pooled kernel dispatch so both executors place compiled thread
  // i identically.
  run_indexed_gang(opts.pool, cp.threads.size(), opts.pin_threads,
                   [&](std::size_t i) { worker(cp.threads[i]); });
}

}  // namespace

ExecutorPlan compile(const PartitionedProgram& prog, const Ddg& g,
                     const CompileOptions& /*copts*/) {
  ExecutorPlan plan;
  plan.compiled_ = compile_program(prog, g);
  plan.graph_ = g;
  return plan;
}

ExecutionResult ExecutorPlan::run(std::int64_t n,
                                  const RunOptions& opts) const {
  MIMD_EXPECTS(n == compiled_.iterations);
  ExecutionResult res;
  res.values.resize(graph_.num_nodes());
  for (auto& v : res.values) v.assign(static_cast<std::size_t>(n), 0.0);

  // Channel construction stays outside the timed region (as the original
  // executor's map setup did); only the threaded execution is measured.
  std::vector<std::unique_ptr<SpscChannel>> chans;
  chans.reserve(compiled_.channels.size());
  for (const ChannelDesc& c : compiled_.channels) {
    // ring_capacity is the shared sizing: the generated-C backend sizes
    // its emitted buffers with the same call.
    chans.push_back(
        std::make_unique<SpscChannel>(ring_capacity(c.messages)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  execute(compiled_, graph_, chans, opts, res);
  const auto t1 = std::chrono::steady_clock::now();
  res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return res;
}

ExecutionResult run_threaded(const PartitionedProgram& prog, const Ddg& g,
                             std::int64_t n, const RunOptions& opts) {
  return compile(prog, g).run(n, opts);
}

ExecutionResult run_reference(const Ddg& g, std::int64_t n,
                              const KernelOptions& opts) {
  ExecutionResult res;
  const auto t0 = std::chrono::steady_clock::now();
  res.values = run_sequential(g, n, opts);
  const auto t1 = std::chrono::steady_clock::now();
  res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return res;
}

bool values_match(const ExecutionResult& a, const ExecutionResult& b,
                  std::int64_t n) {
  if (a.values.size() != b.values.size()) return false;
  for (std::size_t v = 0; v < a.values.size(); ++v) {
    // A row shorter than n is a shape mismatch, not UB — results can now
    // arrive over the wire (mimdc --connect), so the oracle must not
    // trust the peer to have sized them correctly.
    if (a.values[v].size() < static_cast<std::size_t>(n) ||
        b.values[v].size() < static_cast<std::size_t>(n)) {
      return false;
    }
    for (std::int64_t i = 0; i < n; ++i) {
      if (a.values[v][static_cast<std::size_t>(i)] !=
          b.values[v][static_cast<std::size_t>(i)]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace mimd
