// Threaded MIMD executor: runs a PartitionedProgram on real std::threads,
// one per processor, communicating through point-to-point FIFO channels —
// the closest thing to the paper's target machine available on a
// shared-memory multicore (per-value message passing, asynchronous
// processors, no global clock).
//
// The executor is split compiler-style so per-run cost is pure execution:
//
//   compile(prog, g) -> ExecutorPlan      (once; validates, resolves names)
//   plan.run(n, opts) -> ExecutionResult  (repeatable; hot path only)
//
// compile() lowers the interpreted program to the slot-resolved
// CompiledProgram form (partition/compiled_program.hpp): dense channel
// ids, per-thread flat slot arrays, and pre-resolved operand descriptors —
// no associative lookups remain on the run() path.  Every channel is a
// lock-free SPSC ring (runtime/spsc_ring.hpp).
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
  /// Borrow threads from this persistent pool instead of spawning one
  /// std::thread per compiled thread for the run (runtime/worker_pool.hpp
  /// — the plan-service hot path; bench_plan_service measures the gap).
  /// Null (default): spawn-per-run, the historical behavior.  Non-owning;
  /// the pool must outlive the run.  Results are bit-identical either way.
  WorkerPool* pool = nullptr;
  /// Pin each compiled thread i to CPU ((slice + i) mod allowed CPUs) for
  /// the duration of the run — the compiled thread order was frozen at
  /// compile() time for exactly this, and the per-run rotating slice
  /// gives concurrent pinned runs disjoint CPU ranges instead of stacking
  /// them all on the first cores.  Works on both the pool and the spawn
  /// path; masks restored afterwards; silently a no-op where unsupported
  /// (affinity_supported()).  A placement hint only: results are
  /// bit-identical pinned or not.
  bool pin_threads = false;
  /// 0 (default): size each ring to its exact message count,
  /// so sends never block.  > 0: cap ring capacity at the next power of
  /// two >= this value — bounded memory with spin-then-yield backpressure.
  /// CAVEAT: a cap below a channel's in-flight high-water mark can
  /// deadlock even a validator-approved program (a full channel's sender
  /// circularly waiting on a consumer blocked elsewhere); after 30 s the
  /// stalled ring aborts the process with a diagnostic (std::terminate —
  /// the error fires on a worker thread whose blocked peers cannot be
  /// unwound) rather than spin silently.  Intended for tests and
  /// benchmarks that deliberately exercise backpressure.
  std::int64_t channel_capacity = 0;

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
  /// channel violations (FIFO tag mismatch — which a compiled program
  /// cannot trigger — or a capped ring stalled 30 s) are fatal: they fire
  /// on a worker thread, where the escaping exception is std::terminate
  /// with the violation message, because a failed worker cannot unwind
  /// the peers blocked on its channels.
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

/// Validate (find_program_violation) and compile `prog` into a reusable
/// plan.  Channel table, slot resolution (liveness-based reuse), and
/// thread spawn order are all fixed here, amortized across every
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
