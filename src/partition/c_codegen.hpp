// C code generation: emit a complete, compilable C11 + pthreads program
// that executes a partitioned loop on real threads — the final artifact a
// parallelizing compiler of the paper's era would hand to the system
// compiler.
//
// The backend consumes the same CompiledProgram the in-process executor
// runs (partition/compiled_program.hpp): one lowering pipeline, no private
// name-to-slot or name-to-channel resolution here.  Layout of the
// generated program:
//  * one fixed-size slot array per thread (`double s[num_slots]`, sized by
//    the liveness-based reuse pass — O(live values), not O(ops));
//  * one value-carrying channel per (edge, src proc, dst proc) pair: a C11
//    `stdatomic.h` single-producer/single-consumer ring mirroring
//    runtime/spsc_ring.hpp — cache-line-separated cursors,
//    acquire/release publication, spin-then-yield waits — sized to the
//    channel's exact message count by the ring_capacity policy that
//    header shares with the executor, so sends never block;
//  * one thread per processor running its compiled op sequence; computed
//    values are also stored to a global results array R[node][iter]
//    (single writer per entry);
//  * a main() that runs the threads, recomputes everything sequentially,
//    and reports "OK" iff the parallel values match bit for bit.
//
// Node semantics: the same synthetic combine the in-process executors use
// (runtime/kernels.hpp, work knob 0), emitted as C — identical operations
// in identical order, hence bitwise-identical doubles.
#pragma once

#include <string>

#include "graph/ddg.hpp"
#include "partition/compiled_program.hpp"

namespace mimd {

/// The mimd_kernel_info.abi_version a shared_object kernel exports and
/// the loader (runtime/jit_compiler.cpp) requires.
inline constexpr long long kKernelAbiVersion = 2;

struct CEmitOptions {
  /// Detect each thread's periodic steady state (the pattern made it
  /// periodic by construction) and emit it as a real `for` loop — prologue
  /// straight-line, kernel rolled, epilogue straight-line — like the
  /// paper's Figure 7(e).  Streams without at least three detected
  /// repetitions fall back to fully unrolled straight-line code, which is
  /// always correct.
  bool roll_steady_state = true;
  /// Emit the sequential recompute + bitwise comparison into main()
  /// (default).  false (`mimdc --c --no-check`): skip the self-validation
  /// entirely — no SEQ array, no sequential() function — and emit a
  /// timing harness instead (CLOCK_MONOTONIC around the parallel section,
  /// a fold of the results printed so the work is observably live), so
  /// the emitted artifact serves as a standalone benchmark.  Validate a
  /// loop once with the default before timing it with --no-check.
  bool self_check = true;
  /// Emit a loadable kernel instead of a standalone program (the JIT
  /// backend, runtime/jit_compiler.hpp): no main(), no self-check, no
  /// static result/channel storage.  All mutable state (channel rings +
  /// cursors, result pointer) lives in a heap-allocated context, so one
  /// loaded kernel is reentrant.  The caller owns the thread team, so a
  /// host runs the kernel's PE bodies on its own persistent worker pool.
  /// Exports
  ///
  ///   const mimd_kernel_info_t mimd_kernel_info
  ///     = {abi_version, nodes, iterations, threads} (four long longs), so
  ///     a loader can validate the ABI and bounds before the first call;
  ///   void* mimd_kernel_ctx_create(long long n, const double* init,
  ///                                double* R)  — allocate + wire one
  ///     per-call context that runs the compiled iterations with
  ///     `init[v]` as node v's pre-loop value, writing every computed
  ///     value to the row-major result matrix `R[v * n + i]` (caller
  ///     allocates NODES * n doubles, zero-filled so uncomputed entries
  ///     match the interpreted executor's zero rows); NULL on bad args or
  ///     allocation failure;
  ///   int mimd_kernel_run_on(void* ctx, long long thread_id) — execute
  ///     compiled thread `thread_id`'s whole op stream on the calling
  ///     thread; enter exactly once per thread_id in [0, threads), all
  ///     ids concurrently (the PE bodies rendezvous through the ctx's
  ///     channel rings, so running them sequentially deadlocks); 0 on
  ///     success, nonzero on a bad argument;
  ///   void mimd_kernel_ctx_destroy(void* ctx) — release the context
  ///     after every run_on returned.
  ///
  /// Incompatible with self_check; rolling applies as usual.
  bool shared_object = false;
};

/// Emit the full C translation unit executing `cp` (compiled from the
/// partitioned program via compile_program) over cp.iterations of `g` —
/// the emitted self-check compares every (node, i < cp.iterations) value,
/// so the count is not a free parameter.  cp must compute at least one
/// iteration (ContractViolation otherwise).
std::string emit_c_program(const CompiledProgram& cp, const Ddg& g,
                           const CEmitOptions& opts = {});

}  // namespace mimd
