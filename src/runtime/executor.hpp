// Threaded MIMD executor: runs a PartitionedProgram on real threads, one
// per processor, communicating through point-to-point FIFO channels —
// the closest thing to the paper's target machine available on a
// shared-memory multicore (per-value message passing, asynchronous
// processors, no global clock).
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
// remain on the run() path.  Every run builds
// fresh channels, each a single-use SPSC buffer holding exactly the values
// it carries over the run (runtime/spsc_ring.hpp): a send never waits,
// only a receive does.  The threads are a WorkerPool's: the caller's, or
// the process pool (runtime/worker_pool.hpp).
//
// Memory discipline (race freedom by construction):
//  * results[v][i] is written by exactly the thread that computes (v, i);
//  * a thread reads a slot only it wrote; every cross-thread operand
//    arrives through a channel.
// The channels provide the necessary happens-before edges (acquire/release
// on the ring cursors); validation compares against run_sequential
// bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/ddg.hpp"
#include "partition/compiled_program.hpp"
#include "partition/partitioned_loop.hpp"
#include "runtime/kernels.hpp"

namespace mimd {

struct ExecutionResult {
  /// values[v][i] — only entries computed by some processor are defined.
  std::vector<std::vector<double>> values;
  double wall_seconds = 0.0;
};

class WorkerPool;

struct RunOptions {
  KernelOptions kernel;
  /// The persistent pool whose workers run the compiled threads
  /// (runtime/worker_pool.hpp).  Null (default): the process pool,
  /// process_pool(), built on first use.  Non-owning; the pool must
  /// outlive the run.  Results are bit-identical on any pool.
  WorkerPool* pool = nullptr;
  /// Pin each compiled thread i to CPU ((slice + i) mod allowed CPUs) for
  /// the duration of the run — the compiled thread order was frozen at
  /// compile() time for exactly this, and the per-run rotating slice
  /// gives concurrent pinned runs disjoint CPU ranges instead of stacking
  /// them all on the first cores.  Masks restored afterwards; silently a
  /// no-op where unsupported (affinity_supported()).  A placement hint
  /// only: results are bit-identical pinned or not.
  bool pin_threads = false;

  RunOptions() = default;
  // NOLINTNEXTLINE(google-explicit-constructor) — existing call sites pass
  // bare KernelOptions; a kernel choice alone is a complete run request.
  RunOptions(const KernelOptions& k) : kernel(k) {}
};

/// A compiled, reusable execution plan.  Immutable after compile(): run()
/// is const, thread-compatible, and bit-for-bit deterministic — two run()
/// calls with equal arguments produce identical values.
class ExecutorPlan {
 public:
  ExecutorPlan() = default;

  /// Execute the compiled iterations: `n` must equal
  /// program().iterations (ContractViolation otherwise, before any thread
  /// starts — a plan must not hand back rows it never computed).  Mid-run
  /// channel violations (a FIFO tag mismatch or a send past its buffer)
  /// are fatal: they fire on a worker thread, where the escaping exception
  /// is std::terminate with the violation message, because a failed
  /// worker cannot unwind the peers blocked on its channels.  A compiled
  /// program cannot trigger one: the validator's rules give every channel
  /// one producing and one consuming thread (one program per processor
  /// id), exactly its send count in receives, and FIFO order.  A program
  /// can still deadlock (ROADMAP item 3); that hangs instead.
  [[nodiscard]] ExecutionResult run(std::int64_t n,
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
