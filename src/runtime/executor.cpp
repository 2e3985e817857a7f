#include "runtime/executor.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "runtime/spsc_ring.hpp"
#include "runtime/worker_pool.hpp"

namespace mimd {

namespace {

/// One Compute op of thread `t`: gather the operands (flat slots or a
/// node's pre-loop value; every name was resolved at compile() time), then
/// write the value to its slot and its result cell.
void compute(const CompiledThread& t, const CompiledOp& op, const Ddg& g,
             const KernelOptions& kernel, double* slots,
             std::vector<double>& operands, ExecutionResult& res) {
  operands.clear();
  for (std::uint32_t i = 0; i < op.num_operands; ++i) {
    const OperandRef& ref = t.operands[op.first_operand + i];
    operands.push_back(ref.kind == OperandRef::Kind::LocalSlot
                           ? slots[ref.index]
                           : initial_value(ref.index));
  }
  const double v = synthetic_value(g, op.node, op.iter, operands, kernel);
  slots[op.slot] = v;
  res.values[op.node][static_cast<std::size_t>(op.iter)] = v;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

RunTier run_tier(const RunOptions& opts) {
  return opts.kernel.work_per_cycle == 0 && !opts.pin_threads
             ? RunTier::OneThread
             : RunTier::Gang;
}

ExecutorPlan compile(const PartitionedProgram& prog, const Ddg& g,
                     const CompileOptions& /*copts*/) {
  ExecutorPlan plan;
  plan.compiled_ = compile_program(prog, g);
  plan.graph_ = g;
  return plan;
}

ExecutionResult ExecutorPlan::run(std::int64_t n,
                                  const RunOptions& opts) const {
  return run_tier(opts) == RunTier::OneThread ? run_one_thread(n, opts.kernel)
                                              : run_gang(n, opts);
}

ExecutionResult ExecutorPlan::run_one_thread(
    std::int64_t n, const KernelOptions& kernel) const {
  MIMD_EXPECTS(n == compiled_.iterations);
  ExecutionResult res{ResultBlock(graph_.num_nodes(), n)};
  const CompiledProgram& cp = compiled_;
  // Every channel is a FIFO range of one flat buffer, exactly its message
  // count long: channel c is written at sent[c] and read at received[c],
  // both starting at its range's first element.  Each thread's slots are
  // a range of one flat array too.
  std::vector<std::size_t> sent(cp.channels.size());
  std::size_t messages = 0;
  for (std::size_t c = 0; c < cp.channels.size(); ++c) {
    sent[c] = messages;
    messages += static_cast<std::size_t>(cp.channels[c].messages);
  }
  std::vector<std::size_t> received = sent;
  std::vector<ChannelMessage> buffer(messages);
  std::vector<std::size_t> first_slot(cp.threads.size());
  std::size_t slot_count = 0;
  for (std::size_t t = 0; t < cp.threads.size(); ++t) {
    first_slot[t] = slot_count;
    slot_count += cp.threads[t].num_slots;
  }
  std::vector<double> slots(slot_count, 0.0);
  std::vector<double> operands;

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::size_t> stopped = run_round_robin(
      cp.threads.size(), cp.channels.size(),
      [&](std::size_t t) -> const std::vector<CompiledOp>& {
        return cp.threads[t].ops;
      },
      [&](std::size_t t, const CompiledOp& op) {
        double* const local = slots.data() + first_slot[t];
        switch (op.kind) {
          case CompiledOp::Kind::Compute:
            compute(cp.threads[t], op, graph_, kernel, local, operands, res);
            break;
          case CompiledOp::Kind::Send:
            buffer[sent[op.chan]++] = {op.iter, local[op.slot]};
            break;
          case CompiledOp::Kind::Receive: {
            const ChannelMessage& m = buffer[received[op.chan]++];
            MIMD_ENSURES(m.iter == op.iter);  // FIFO tag check
            local[op.slot] = m.value;
            break;
          }
        }
      });
  res.wall_seconds = seconds_since(t0);
  if (const auto stuck = stuck_receives(cp, graph_, stopped)) {
    throw DeadlockError(*stuck);
  }
  return res;
}

ExecutionResult ExecutorPlan::run_gang(std::int64_t n,
                                       const RunOptions& opts) const {
  MIMD_EXPECTS(n == compiled_.iterations);
  ExecutionResult res{ResultBlock(graph_.num_nodes(), n)};

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
  const auto worker = [&](const CompiledThread& t) {
    std::vector<double> slots(t.num_slots, 0.0);
    std::vector<double> operands;
    for (const CompiledOp& op : t.ops) {
      switch (op.kind) {
        case CompiledOp::Kind::Compute:
          compute(t, op, graph_, opts.kernel, slots.data(), operands, res);
          break;
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
  const auto t0 = std::chrono::steady_clock::now();
  // One task per compiled thread, in the (pinning) order frozen at
  // compile() time.  The pool choice and the rotating pinned-slice policy
  // live in run_indexed_gang (runtime/worker_pool.hpp), shared with the
  // JIT's pooled kernel dispatch so both executors place compiled thread
  // i identically.
  run_indexed_gang(opts.pool, compiled_.threads.size(), opts.pin_threads,
                   [&](std::size_t i) { worker(compiled_.threads[i]); });
  res.wall_seconds = seconds_since(t0);
  return res;
}

ExecutionResult run_threaded(const PartitionedProgram& prog, const Ddg& g,
                             std::int64_t n, const RunOptions& opts) {
  return compile(prog, g).run(n, opts);
}

ExecutionResult run_reference(const Ddg& g, std::int64_t n,
                              const KernelOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  ExecutionResult res{run_sequential(g, n, opts)};
  res.wall_seconds = seconds_since(t0);
  return res;
}

bool values_match(const ExecutionResult& a, const ExecutionResult& b,
                  std::int64_t n) {
  // Rows shorter than n are a shape mismatch, not UB — results can arrive
  // over the wire (mimdc --connect), so the oracle must not trust the
  // peer to have sized them correctly.
  const auto cells = static_cast<std::size_t>(n);
  if (a.values.size() != b.values.size() ||
      (!a.values.empty() && (a.values.row_length() < cells ||
                             b.values.row_length() < cells))) {
    return false;
  }
  for (std::size_t v = 0; v < a.values.size(); ++v) {
    const std::span<const double> row = a.values[v].first(cells);
    if (!std::equal(row.begin(), row.end(), b.values[v].begin())) return false;
  }
  return true;
}

}  // namespace mimd
