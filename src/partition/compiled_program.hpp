// The compiled form of a PartitionedProgram: every name the runtime would
// otherwise resolve with a map lookup is resolved here, at lowering time.
//
// The interpreted form (partitioned_loop.hpp) identifies values by
// (node, iteration) and channels by the (edge, src proc, dst proc) triple;
// executing it forces the runtime to probe associative containers on every
// operand and every message.  Compilation replaces both and keeps
// everything else: each processor program compiles op for op, in its own
// order, into one CompiledOp per source op (the paper's per-processor
// sequence of computes, SENDs and RECEIVEs, Figs. 7(e) and 10):
//
//  * channels get a dense ChannelId (index into a flat channel table), in
//    first-send order across the program;
//  * every value a processor holds locally (computed or received) lives in
//    a per-thread flat slot array (one double per slot), and every Compute
//    operand becomes an OperandRef — LocalSlot (read a slot) or
//    InitialValue (the producing node's pre-loop value, initial_value(node)).
//
// Slot assignment is first SSA-style (each compute/receive writes a fresh
// slot), then a liveness pass reassigns slots with a free list so
// num_slots drops from O(ops) to O(values simultaneously live): per-thread
// last-use analysis over the straight-line op stream, each slot returned
// to the free list at its last read (DESIGN.md, "Unified lowering and slot
// reuse").
//
// Validation and compilation are one walk (DESIGN.md, "Validation and
// compilation on flat tables"): the table that resolves an operand to its
// slot is the validator's "computed or received earlier on this processor"
// set, so an operand with no slot is a violation, not a separate check.
// find_program_violation returns that walk's verdict and compile_program
// throws ContractViolation with it, so a program that compiles is by
// construction race-free and FIFO-consistent.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "graph/ddg.hpp"
#include "opt/opt_level.hpp"
#include "partition/partitioned_loop.hpp"

namespace mimd {

using ChannelId = std::uint32_t;
using SlotId = std::uint32_t;

/// One point-to-point FIFO channel, dense-indexed.
struct ChannelDesc {
  EdgeId edge = 0;
  int src_proc = -1;
  int dst_proc = -1;
  /// Total messages this channel carries over the whole program — the
  /// exact ring capacity needed so a bounded sender can never deadlock.
  std::int64_t messages = 0;
};

/// A compiled Compute operand, resolved at lowering time.
struct OperandRef {
  enum class Kind : std::uint8_t { LocalSlot, InitialValue };
  Kind kind = Kind::LocalSlot;
  /// LocalSlot: slot index.  InitialValue: the producing node, whose
  /// pre-loop value every tier reads as initial_value(node)
  /// (runtime/kernels.hpp).
  std::uint32_t index = 0;

  friend bool operator==(const OperandRef&, const OperandRef&) = default;
};

struct CompiledOp {
  enum class Kind : std::uint8_t { Compute, Send, Receive };
  Kind kind = Kind::Compute;
  /// Compute: node computed.  Send/Receive: producing node (diagnostics).
  NodeId node = kInvalidNode;
  /// Compute: iteration executed.  Send/Receive: producing iteration (tag).
  std::int64_t iter = 0;
  /// Compute: destination slot.  Send: source slot.  Receive: destination.
  SlotId slot = 0;
  /// Send/Receive only.
  ChannelId chan = 0;
  /// Compute only: range [first_operand, first_operand + num_operands) into
  /// CompiledThread::operands, in the graph's fixed in-edge order.
  std::uint32_t first_operand = 0;
  std::uint32_t num_operands = 0;
};

/// The straight-line program one thread executes: ops[i] is the compiled
/// form of the source program's op i.
struct CompiledThread {
  int proc = 0;
  /// Size of this thread's slot array after slot reuse: the number of
  /// simultaneously live values.
  std::uint32_t num_slots = 0;
  /// num_slots before the liveness pass ran (one slot per
  /// compute/receive) — kept so drivers can report the reduction.
  std::uint32_t num_slots_ssa = 0;
  std::vector<CompiledOp> ops;
  std::vector<OperandRef> operands;  ///< flat pool referenced by Compute ops
};

struct CompiledProgram {
  int processors = 0;               ///< of the source PartitionedProgram
  std::vector<ChannelDesc> channels;
  /// Only processors with a non-empty program; order fixes thread spawn
  /// (pinning) order at compile time.
  std::vector<CompiledThread> threads;
  /// 1 + the largest compute iteration — the `n` every run of this
  /// program must ask for (ExecutorPlan::run, JitKernel::run_pooled).
  std::int64_t iterations = 0;

  [[nodiscard]] std::size_t count(CompiledOp::Kind k) const;
  /// Sum of per-thread slot array sizes, after / before slot reuse.
  [[nodiscard]] std::size_t total_slots() const;
  [[nodiscard]] std::size_t total_slots_ssa() const;
};

struct CompileOptions {
  /// Which mid-end pipeline produced the program being compiled
  /// (src/opt).  The compiler itself never branches on it — it exists
  /// so structural_hash separates optimized from unoptimized plans:
  /// PlanCache and ShardRouter must never serve an O1-rewritten plan to
  /// an --opt=off caller or vice versa, even if the op streams happen
  /// to collide.
  OptLevel opt = OptLevel::Off;

  friend bool operator==(const CompileOptions&,
                         const CompileOptions&) = default;
};

/// Stable structural hash of everything that determines a compiled plan's
/// observable values: the partitioned program (processors, per-processor
/// op streams), the value-relevant graph structure (per-node latencies,
/// edges with distances and communication costs — node *names* are
/// deliberately excluded; they only feed diagnostics and comments, never
/// runtime/kernels.hpp's synthetic values), and the compile options.
///
/// Stable means: a pure function of that structure — no pointers, no
/// container iteration order, no per-process salt — so the same loop
/// hashes identically across runs, processes, and builds.  This is
/// PlanCache's key (runtime/plan_cache.hpp), ShardRouter's routing key
/// and perfbench's replay check; the cache additionally verifies full
/// structural equality on every hit, so a 64-bit collision can cost a
/// recompile but can never return the wrong plan.
///
/// The fold packs each op into three 64-bit words (node | peer,
/// iteration, edge | kind) and mixes them with two 64x64 -> 128-bit
/// multiply-folds, one of them chained through the running state, so
/// the hash is op-order-sensitive; one avalanche finishes it (DESIGN.md,
/// "Cache keying").  About 2 ns per op.  Nothing persists a hash value:
/// a different fold changes keys, never a plan.
[[nodiscard]] std::uint64_t structural_hash(const PartitionedProgram& prog,
                                            const Ddg& g,
                                            const CompileOptions& opts = {});

/// The graph-only component of the hash above: latencies, edges,
/// distances, communication costs (names excluded).  PlanCache folds it
/// into the combined key and keeps it as a cheap pre-filter on hits.
[[nodiscard]] std::uint64_t structural_hash(const Ddg& g);

/// Combined hash from a precomputed graph hash — lets a caller that
/// already holds structural_hash(g) (PlanCache) avoid walking the graph
/// twice per lookup.  structural_hash(prog, g, opts) ==
/// structural_hash(prog, structural_hash(g), opts), by construction.
[[nodiscard]] std::uint64_t structural_hash(const PartitionedProgram& prog,
                                            std::uint64_t graph_hash,
                                            const CompileOptions& opts = {});

/// True iff `a` and `b` agree on everything the synthetic kernel can
/// observe: node count and latencies, edge list with distances and
/// communication costs (names excluded, exactly the structural_hash(Ddg)
/// domain).  This is PlanCache's hit-time collision guard —
/// PartitionedProgram equality alone cannot distinguish two graphs that
/// partition identically but compute different values, and a 64-bit hash
/// alone is a probability, not a guarantee.
[[nodiscard]] bool structurally_equivalent(const Ddg& a, const Ddg& b);

/// The one-thread schedule of a compiled program, shared by the
/// validator's deadlock rule (rule 4, over each thread's sends and
/// receives alone, with a step that does nothing) and the interpreted
/// executor's one-thread run (over every op, with a step that computes).
/// Each thread runs its ops in order until a receive finds its channel
/// empty; then the next ready thread runs.  A waiting thread is ready
/// again once its channel is sent to.  `ops_of(t)` is thread t's op
/// sequence, of any op type with CompiledOp's `kind` and `chan`;
/// `step(t, op)` executes one op of thread t, in execution order, and
/// sees a Receive only once its channel holds a message.  Sends never
/// wait and every channel has one sender and one receiver, so which
/// thread runs first changes no value and no outcome: the program
/// deadlocks here exactly when it can deadlock on threads.  Linear in
/// ops: no thread is tried while it waits.  Returns, per thread, the
/// index of its first op not executed; every thread finished iff each
/// entry equals its sequence's length.
template <typename OpsOf, typename Step>
std::vector<std::size_t> run_round_robin(std::size_t threads,
                                         std::size_t channels, OpsOf&& ops_of,
                                         Step&& step) {
  constexpr std::uint32_t kNobody = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::size_t> pc(threads, 0);
  std::vector<std::int64_t> pending(channels, 0);
  std::vector<std::uint32_t> waiter(channels, kNobody);
  // A FIFO ring of ready threads.  A thread is running, waiting, finished
  // or queued once, so `threads` places always suffice.
  std::vector<std::uint32_t> ready(threads);
  for (std::uint32_t t = 0; t < threads; ++t) ready[t] = t;
  std::size_t front = 0, queued = threads;
  while (queued > 0) {
    const std::uint32_t t = ready[front];
    front = front + 1 == threads ? 0 : front + 1;
    --queued;
    const auto& ops = ops_of(t);
    std::size_t i = pc[t];
    for (; i < ops.size(); ++i) {
      const auto& op = ops[i];
      if (op.kind == CompiledOp::Kind::Receive) {
        if (pending[op.chan] == 0) {
          waiter[op.chan] = t;
          break;
        }
        --pending[op.chan];
      } else if (op.kind == CompiledOp::Kind::Send) {
        ++pending[op.chan];
        if (waiter[op.chan] != kNobody) {
          const std::size_t back = front + queued;
          ready[back < threads ? back : back - threads] = waiter[op.chan];
          ++queued;
          waiter[op.chan] = kNobody;
        }
      }
      step(t, op);
    }
    pc[t] = i;
  }
  return pc;
}

/// Rule 4's verdict on where a one-thread run of `cp` stopped (per thread,
/// the index of its first op not executed): nullopt when every thread
/// finished, else "deadlock: " and each waiting receive, in thread order
/// ("PE0 waits at receive of B@1 from PE1, ...").
[[nodiscard]] std::optional<std::string> stuck_receives(
    const CompiledProgram& cp, const Ddg& g,
    const std::vector<std::size_t>& stopped);

/// Compile `prog` into the slot-resolved form, checking it against `g` in
/// the same walk.  Throws ContractViolation — with find_program_violation's
/// message — if the program is ill-formed.  Every source op becomes one
/// compiled op in the same place: a Receive pops its channel into a slot,
/// and the computes that read the value read that slot.
CompiledProgram compile_program(const PartitionedProgram& prog,
                                const Ddg& g);

}  // namespace mimd
