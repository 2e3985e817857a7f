// MIMD executor: runs a PartitionedProgram's processor programs, which
// communicate through point-to-point FIFO channels (per-value message
// passing, asynchronous processors, no global clock: the paper's target
// machine), on one of two tiers.
//
// The executor is split compiler-style so per-run cost is pure execution:
//
//   compile(prog, g) -> ExecutorPlan      (once; validates, resolves names)
//   plan.run(n, opts) -> ExecutionResult  (repeatable; hot path only)
//
// compile() checks and lowers the interpreted program in one walk to the
// slot-resolved CompiledProgram form (partition/compiled_program.hpp):
// dense channel ids, per-thread flat slot arrays, and pre-resolved operand
// descriptors, one compiled op per source op — no associative lookups
// remain on the run() path.  The walk's last rule proves the program
// cannot deadlock, so no run ever hangs.
//
// The two tiers compute the same values, bit for bit:
//  * one thread (run_one_thread): the calling thread runs each compiled
//    thread's ops in order until a receive finds its channel empty, then
//    the next ready thread (run_round_robin).  A send never waits and
//    every channel is FIFO with its iteration tag checked, so this order
//    is one of the interleavings a gang can take.  It costs no thread
//    handoff and no cache line crossing between CPUs, which on the hosts
//    measured outweighs the parallelism of a plan whose work between
//    receives is a few synthetic instances (DESIGN.md, "One thread or a
//    gang");
//  * a gang (run_gang): one WorkerPool worker per compiled thread, the
//    caller's pool or the process pool (runtime/worker_pool.hpp), over
//    fresh single-use SPSC buffers that each hold exactly the values they
//    carry (runtime/spsc_ring.hpp), so only a receive waits.
// run() takes the one-thread tier whenever the request allows it
// (run_tier): no per-op work and no pinning.  Work per op is what makes
// parallel execution pay, and pinning only means something for threads.
//
// Memory discipline (race freedom by construction):
//  * a run writes its one result block (ResultBlock) in place, cell
//    (v, i) by exactly the thread that computes (v, i);
//  * a thread reads a slot only it wrote; every cross-thread operand
//    arrives through a channel.
// The channels provide the necessary happens-before edges (acquire/release
// on the ring cursors); validation compares against run_sequential
// bit-for-bit.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "graph/ddg.hpp"
#include "partition/compiled_program.hpp"
#include "partition/partitioned_loop.hpp"
#include "runtime/kernels.hpp"

namespace mimd {

struct ExecutionResult {
  /// values[v][i]: node v at iteration i < n; an uncomputed cell is 0.0.
  ResultBlock values;
  double wall_seconds = 0.0;
};

class WorkerPool;

struct RunOptions {
  KernelOptions kernel;
  /// The persistent pool whose workers run a gang's compiled threads
  /// (runtime/worker_pool.hpp); a one-thread run uses none.  Null
  /// (default): the process pool, process_pool(), built on first use.
  /// Non-owning; the pool must outlive the run.  Results are bit-identical
  /// on any pool.
  WorkerPool* pool = nullptr;
  /// Run on a gang and pin each compiled thread i to CPU ((slice + i) mod
  /// allowed CPUs) for the duration of the run — the compiled thread
  /// order was frozen at compile() time for exactly this, and the per-run
  /// rotating slice gives concurrent pinned runs disjoint CPU ranges
  /// instead of stacking them all on the first cores.  Masks restored
  /// afterwards; silently a no-op where unsupported
  /// (affinity_supported()).  A placement hint only: results are
  /// bit-identical pinned or not.
  bool pin_threads = false;

  RunOptions() = default;
  // NOLINTNEXTLINE(google-explicit-constructor) — existing call sites pass
  // bare KernelOptions; a kernel choice alone is a complete run request.
  RunOptions(const KernelOptions& k) : kernel(k) {}
};

/// Which threads execute a run of the interpreted plan.
enum class RunTier : std::uint8_t {
  OneThread,  ///< the calling thread, round-robin over the compiled threads
  Gang,       ///< one pool worker per compiled thread
};

/// The tier ExecutorPlan::run takes for `opts`: OneThread for the default
/// kernel (work_per_cycle 0, what jit_run_eligible accepts) without
/// pinning, Gang otherwise.  Deliberately not a cost model: a model fed a
/// measured message cost still sent some plans to a gang that ran several
/// times slower (DESIGN.md, "One thread or a gang").
[[nodiscard]] RunTier run_tier(const RunOptions& opts);

/// A one-thread run that stopped with every unfinished compiled thread
/// waiting at a receive.  compile() rejects every program that could
/// (validator rule 4), so a plan never raises it; it is what the run does
/// instead of spinning if that rule were ever wrong.
class DeadlockError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// A compiled, reusable execution plan.  Immutable after compile(): run()
/// is const, thread-compatible, and bit-for-bit deterministic — two run()
/// calls with equal arguments produce identical values, on either tier.
class ExecutorPlan {
 public:
  ExecutorPlan() = default;

  /// Execute the compiled iterations on run_tier(opts)'s tier: `n` must
  /// equal program().iterations (ContractViolation otherwise, before any
  /// op runs — a plan must not hand back rows it never computed).
  [[nodiscard]] ExecutionResult run(std::int64_t n,
                                    const RunOptions& opts = {}) const;

  /// The one-thread tier, whatever the options would choose.
  [[nodiscard]] ExecutionResult run_one_thread(
      std::int64_t n, const KernelOptions& kernel = {}) const;

  /// The gang tier, whatever the options would choose.  Mid-run channel
  /// violations (a FIFO tag mismatch or a send past its buffer) are fatal
  /// here: they fire on a worker thread, where the escaping exception is
  /// std::terminate with the violation message, because a failed worker
  /// cannot unwind the peers blocked on its channels.  A compiled program
  /// cannot trigger one: the validator's rules give every channel one
  /// producing and one consuming thread (one program per processor id),
  /// exactly its send count in receives, FIFO order, and a schedule that
  /// finishes.
  [[nodiscard]] ExecutionResult run_gang(std::int64_t n,
                                         const RunOptions& opts = {}) const;

  [[nodiscard]] const CompiledProgram& program() const { return compiled_; }
  [[nodiscard]] const Ddg& graph() const { return graph_; }

 private:
  friend ExecutorPlan compile(const PartitionedProgram&, const Ddg&,
                              const CompileOptions&);

  CompiledProgram compiled_;
  Ddg graph_;  ///< owned copy: a plan outlives its inputs
};

/// Validate and compile `prog` into a reusable plan, in one walk
/// (compile_program; ContractViolation with find_program_violation's
/// message if it is ill-formed).  Channel table, slot resolution (liveness-based reuse), and
/// thread order are all fixed here, amortized across every
/// subsequent run().  `copts` does not change the plan: it names the
/// mid-end that produced `prog`, which only the cache key needs
/// (CompileOptions::opt, folded by structural_hash).
[[nodiscard]] ExecutorPlan compile(const PartitionedProgram& prog,
                                   const Ddg& g,
                                   const CompileOptions& copts = {});

/// One-shot convenience: compile(prog, g).run(n, opts).
ExecutionResult run_threaded(const PartitionedProgram& prog, const Ddg& g,
                             std::int64_t n, const RunOptions& opts = {});

/// Convenience: sequential reference on the same KernelOptions, timed.
ExecutionResult run_reference(const Ddg& g, std::int64_t n,
                              const KernelOptions& opts = {});

/// True iff `a` and `b` agree bit-for-bit on every (node, iteration < n)
/// value — the runtime's correctness oracle, shared by mimdc --run and the
/// benches.
[[nodiscard]] bool values_match(const ExecutionResult& a,
                                const ExecutionResult& b, std::int64_t n);

}  // namespace mimd
