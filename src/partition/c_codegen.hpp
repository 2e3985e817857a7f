// C code generation: emit compilable C11 that executes a partitioned loop
// on real threads — the final artifact a parallelizing compiler of the
// paper's era would hand to the system compiler.
//
// The backend consumes the same CompiledProgram the in-process executor
// runs (partition/compiled_program.hpp): one lowering pipeline, no private
// name-to-slot or name-to-channel resolution here.  Every artifact is
// built around one kernel:
//  * one fixed-size slot array per thread (`double s[num_slots]`, sized by
//    the liveness-based reuse pass — O(live values), not O(ops));
//  * one value-carrying channel per (edge, src proc, dst proc) pair: a C11
//    `stdatomic.h` single-use SPSC buffer mirroring runtime/spsc_ring.hpp,
//    holding exactly the channel's message count (ring_capacity, the
//    sizing that header shares with the executor) — a send is one store
//    plus a release-publish and never waits, a receive waits
//    spin-then-yield on its own cache line;
//  * one PE function per compiled thread running its op sequence — one
//    statement per compiled op, a receive popping its channel into a
//    slot — each thread's periodic steady state rolled into a real `for`
//    loop like the paper's Figure 7(e) (straight-line code where no
//    period is found); pre-loop operand values are literals of
//    initial_value(node), and computed values go to the caller's
//    row-major result matrix (single writer per entry);
//  * all mutable state in one heap-allocated context per call, so a
//    loaded kernel is reentrant, plus the four exported entries below.
// A program (`mimdc --c`) is that kernel, byte for byte, plus a driver:
// a main() that starts one pthread per compiled thread, each entering
// mimd_kernel_run_on, then recomputes everything sequentially and prints
// "OK" iff the parallel values match bit for bit (or, as a timing
// program, prints the parallel wall time and a fold of the results).
//
// Node semantics: the same synthetic combine the in-process executors use
// (runtime/kernels.hpp, work knob 0), emitted as C — identical operations
// in identical order, hence bitwise-identical doubles.
#pragma once

#include <string>

#include "graph/ddg.hpp"
#include "partition/compiled_program.hpp"

namespace mimd {

/// The mimd_kernel_info.abi_version a kernel exports and the loader
/// (runtime/jit_compiler.cpp) requires.
inline constexpr long long kKernelAbiVersion = 3;

/// What emit_c_program produces.
enum class CArtifact {
  /// The kernel plus a self-checking driver: main() runs the parallel
  /// threads, recomputes sequentially, and prints "OK" (exit 0) iff every
  /// value matches bit for bit, "MISMATCH <count>" (exit 1) otherwise.
  CheckedProgram,
  /// The kernel plus a timing driver (`mimdc --c --no-check`): no
  /// sequential recompute; CLOCK_MONOTONIC around the parallel section and
  /// a fold of the results printed, so the work is observably live and
  /// the artifact serves as a standalone benchmark.  Validate a loop once
  /// with CheckedProgram before timing it.
  TimingProgram,
  /// The loadable kernel alone (the JIT backend, runtime/jit_compiler.hpp):
  /// no main(), no thread creation — the caller owns the threads, so a
  /// host runs the PE bodies on its own worker pool.  Exports
  ///
  ///   const mimd_kernel_info_t mimd_kernel_info
  ///     = {abi_version, nodes, iterations, threads} (four long longs), so
  ///     a loader can validate the ABI and bounds before the first call;
  ///   void* mimd_kernel_ctx_create(double* R) — allocate + wire one
  ///     per-call context that runs the compiled iterations, writing
  ///     every computed value to the row-major result matrix
  ///     `R[v * iterations + i]` (caller allocates nodes * iterations
  ///     zero-filled doubles: the JIT passes the run's own ResultBlock,
  ///     runtime/kernels.hpp); NULL on a null R or allocation failure.
  ///     A run asks for exactly the compiled iterations, so the row
  ///     stride is that count, and every pre-loop value is the library's
  ///     initial_value(node), emitted as a literal;
  ///   int mimd_kernel_run_on(void* ctx, long long thread_id) — execute
  ///     compiled thread `thread_id`'s whole op stream on the calling
  ///     thread; enter exactly once per thread_id in [0, threads), all
  ///     ids concurrently (the PE bodies rendezvous through the ctx's
  ///     channels, so running them sequentially deadlocks); 0 on success,
  ///     nonzero on a bad argument;
  ///   void mimd_kernel_ctx_destroy(void* ctx) — release the context
  ///     after every run_on returned.
  Kernel,
};

struct CEmitOptions {
  CArtifact artifact = CArtifact::CheckedProgram;
};

/// Emit the C translation unit executing `cp` (compiled from the
/// partitioned program via compile_program) over cp.iterations of `g` —
/// the emitted self-check compares every (node, i < cp.iterations) value,
/// so the count is not a free parameter.  cp must compute at least one
/// iteration (ContractViolation otherwise).
std::string emit_c_program(const CompiledProgram& cp, const Ddg& g,
                           const CEmitOptions& opts = {});

}  // namespace mimd
