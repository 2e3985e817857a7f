// The partitioned loop: what the compiler actually emits for each
// processor of the MIMD machine — a sequence of compute / send / receive
// operations (the paper's Figures 7(e) and 10 show the source-level
// rendering of exactly this structure).
//
// Communication is point-to-point and FIFO per channel, where a channel is
// identified by (dependence edge, source processor, destination
// processor).  A value is identified by its producing instance.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/ddg.hpp"

namespace mimd {

struct Op {
  enum class Kind : std::uint8_t { Compute, Send, Receive };
  Kind kind = Kind::Compute;
  /// Compute: the instance executed.  Send/Receive: the *producing*
  /// instance whose value crosses processors.
  Inst inst;
  /// Send/Receive: which dependence edge the value serves.
  EdgeId edge = 0;
  /// Send: destination processor.  Receive: source processor.
  int peer = -1;

  friend bool operator==(const Op&, const Op&) = default;
};

struct ProcessorProgram {
  int proc = 0;
  std::vector<Op> ops;

  friend bool operator==(const ProcessorProgram&,
                         const ProcessorProgram&) = default;
};

struct PartitionedProgram {
  int processors = 0;
  std::vector<ProcessorProgram> programs;  ///< one per processor, index == proc

  [[nodiscard]] std::size_t total_ops() const;
  [[nodiscard]] std::size_t count(Op::Kind k) const;

  /// Structural equality — the collision guard behind PlanCache's hashed
  /// lookup (runtime/plan_cache.hpp).
  friend bool operator==(const PartitionedProgram&,
                         const PartitionedProgram&) = default;
};

/// Structural validation.  A well-formed program satisfies, in the order
/// they are checked:
///  0. no two processor programs share a processor id (two programs with
///     one id would put two producers or two consumers on one channel);
///  1. per op, in processor then program order:
///     * no op names a negative iteration;
///     * no Compute instance appears twice in the whole program (on one
///       processor or on two: either way two writes of one result cell);
///     * every Compute's operands are local by then: computed or received
///       earlier on the same processor (operands before iteration 0 are
///       initial values);
///     * every Send's value is local by then;
///  2. the multiset of sends equals the multiset of receives, keyed by
///     (edge, producing instance, src processor, dst processor);
///  3. channels, in (edge, src, dst) order, are FIFO: each channel's send
///     iteration sequence equals its receive iteration sequence;
///  4. the program cannot deadlock: run round-robin on one thread
///     (run_round_robin, partition/compiled_program.hpp), every processor
///     finishes.  The message names every receive left waiting, in
///     processor order.
/// Returns a message for the first violation found, or nullopt if the
/// program is well-formed.  This is the verdict of compile_program's own
/// walk (partition/compiled_program.hpp, which defines it): rule 1 is
/// checked while each op compiles.  Linear in ops apart from sorting the
/// messages by channel; every table is sized from op counts (DESIGN.md,
/// "Validation and compilation on flat tables").
std::optional<std::string> find_program_violation(const PartitionedProgram& p,
                                                  const Ddg& g);

}  // namespace mimd
