// JIT-compiled native plans: the C backend (partition/c_codegen.hpp,
// CArtifact::Kernel) re-emits a CompiledProgram as a loadable
// shared-object kernel, the system toolchain compiles it (`cc -O2 -shared
// -fPIC -pthread`), and dlopen() turns it into a function pointer the
// serving stack can call instead of interpreting CompiledOps per
// iteration.  A kernel runs its threads as a gang of pool workers, so it
// competes with the interpreted one-thread run (runtime/executor.hpp),
// which pays no thread handoff.
//
// Layers:
//  * jit_compile(plan) — synchronous emit + compile + dlopen, returning a
//    JitKernel (RAII over the dlopen handle; dlclose on destruction, so a
//    kernel unloads only when the last shared_ptr — cache entry or
//    in-flight run — drops).
//  * JitSlot — the atomically-published kernel slot a PlanCache entry
//    carries next to its interpreted plan.  Publication follows the
//    release/acquire publish-subscribe discipline (McKenney, PAPERS.md):
//    the compiler thread writes the kernel pointer, then release-stores
//    Ready; readers acquire-load the state before touching the pointer.
//    A published kernel is on trial: the first native run faster than
//    the mean of the entry's interpreted runs keeps it, and
//    JitSlot::kNativeTrials slower ones drop it for good (the slot never
//    compiles again), so a kernel that does not pay stops costing.
//  * JitEngine — one low-priority background compiler thread over a
//    bounded queue (64 jobs), deduplicating by slot state (a slot is
//    enqueued at most once; concurrent enqueues CAS Empty -> Queued and
//    only one wins).  What gets enqueued, and when, is PlanCache's rule:
//    the run after an entry's interpreted runs have together taken the
//    engine's expected compile time, or an explicit pre-warm.  The
//    expected time is measured: the toolchain probe's compile-and-load
//    time until the engine publishes a kernel, then the mean wall time of
//    its published compiles.  Toolchain availability (and the probe's
//    time) is probed once per compiler process-wide and cached, so
//    constructing many engines (tests) costs one probe total.  A failed
//    compile marks the slot Failed permanently — the interpreted plan
//    keeps serving; no retry storms.  Scratch .c/.so files go to $TMPDIR
//    (or /tmp) and are unlinked right after dlopen.
//
// A compile is not free for the requests it runs beside: the worker is
// SCHED_IDLE, but the `cc` it starts (100-300 ms of -O2) takes the CPU
// that a gang's threads give up when they yield in a receive wait, so
// every concurrent gang run (a pinned or per-op-work interpreted run, or
// a native one) slows while it compiles.  One-thread runs never wait on a
// receive and are only time-sliced with it.  That is why a plan is
// compiled only once its interpreted runs have cost as much as a compile.
//
// Degradation: hosts without a working toolchain, builds with
// MIMD_ENABLE_JIT=OFF (-DMIMD_JIT_DISABLED), and ThreadSanitizer builds
// (dlopen'd kernels are uninstrumented; their pthreads would be invisible
// to TSan and every channel handoff a false positive) all report
// available() == false with a pinned reason, and every caller falls back
// to the interpreted path — behavior identical to --jit=off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "runtime/executor.hpp"

namespace mimd {

/// Emission, toolchain, or load failure.  Callers treat it as "no native
/// kernel for this plan" and keep interpreting.
class JitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct JitOptions {
  /// Toolchain driver; probed once per driver process-wide.
  std::string cc = "cc";
};

/// A loaded native kernel.  Immutable and thread-compatible: run_pooled()
/// is const and reentrant (all mutable kernel state is per-call).  The
/// dlopen handle closes when the last owner drops — in-flight runs hold
/// shared_ptrs, so cache eviction never unloads code mid-run.
class JitKernel {
 public:
  ~JitKernel();
  JitKernel(const JitKernel&) = delete;
  JitKernel& operator=(const JitKernel&) = delete;

  /// Execute the compiled iterations (n == iterations(); ContractViolation
  /// otherwise, before any thread starts) on pool threads: one context,
  /// one gang of threads() tasks dispatched through run_indexed_gang
  /// (runtime/worker_pool.hpp) — `pool`'s persistent workers, or the
  /// process pool when null (no pthread_create anywhere on the warm
  /// path).  `pin_threads` applies the same rotating
  /// CPU-slice pinning as the interpreted executor.  Pre-loop values are
  /// the library's initial_value(v), emitted into the kernel as literals
  /// exactly as the interpreted executor reads them; the result is
  /// bit-identical with ExecutorPlan::run on a jit_run_eligible
  /// RunOptions.  Throws JitError if the kernel rejects
  /// the context or a thread entry.
  [[nodiscard]] ExecutionResult run_pooled(std::int64_t n, WorkerPool* pool,
                                           bool pin_threads = false) const;

  [[nodiscard]] std::int64_t nodes() const { return nodes_; }
  [[nodiscard]] std::int64_t iterations() const { return iterations_; }
  [[nodiscard]] std::int64_t threads() const { return threads_; }

 private:
  friend std::shared_ptr<const JitKernel> jit_compile(const ExecutorPlan&,
                                                      const JitOptions&);
  JitKernel() = default;

  using CtxCreateFn = void* (*)(double*);
  using RunOnFn = int (*)(void*, long long);
  using CtxDestroyFn = void (*)(void*);
  void* handle_ = nullptr;
  CtxCreateFn ctx_create_ = nullptr;
  RunOnFn run_on_ = nullptr;
  CtxDestroyFn ctx_destroy_ = nullptr;
  std::int64_t nodes_ = 0;
  std::int64_t iterations_ = 0;
  std::int64_t threads_ = 0;
};

/// Emit, compile, and load `plan` as a native kernel, synchronously.
/// Throws JitError on any failure (toolchain missing, compile error, ABI
/// mismatch) with the toolchain's stderr excerpted in the message.
std::shared_ptr<const JitKernel> jit_compile(const ExecutorPlan& plan,
                                             const JitOptions& opts = {});

/// True iff a native kernel computes exactly what plan.run(n, opts)
/// would: the default kernel (work_per_cycle 0).
/// pin_threads does not disqualify a run — the kernel executes on
/// caller-provided threads (run_pooled), so the pool's rotating
/// CPU-slice pinning applies to native runs exactly as it does to
/// interpreted ones.
[[nodiscard]] bool jit_run_eligible(const RunOptions& opts);

/// Probe (once per cc, cached process-wide) whether this toolchain can
/// produce a loadable kernel.
[[nodiscard]] bool jit_available(const JitOptions& opts = {});
/// The probe's measured compile-and-load wall time, in seconds (0 when
/// the toolchain is unavailable): a new engine's compile-time estimate.
[[nodiscard]] double jit_probe_seconds(const JitOptions& opts = {});
/// Empty string when available; otherwise the pinned reason ("no working
/// C toolchain: ...", the MIMD_ENABLE_JIT=OFF message, or the
/// ThreadSanitizer message).
[[nodiscard]] std::string jit_unavailable_reason(const JitOptions& opts = {});

/// The atomically-published kernel slot a cache entry holds next to its
/// interpreted plan; the entry's kernel-eligible interpreted runs so far
/// (their total wall time, the sum PlanCache admits compiles by, and
/// their count, for the mean a native run must beat); and the verdict on
/// the published kernel.  The state runs
///   Empty -> Queued -> Compiling -> Ready -> Serving | Dropped,
/// or Compiling -> Failed, with Queued claimed by CAS so concurrent
/// enqueues of one slot queue it once, the compile's transitions made by
/// the engine thread, and the verdict by judge_native_run.  Serving,
/// Dropped and Failed are terminal; a dropped enqueue reverts to Empty.
class JitSlot {
 public:
  /// Native runs slower than the interpreted mean that drop a kernel.
  static constexpr int kNativeTrials = 3;

  /// The kernel to run: the published kernel while it is on trial (Ready)
  /// or kept (Serving), null otherwise.
  [[nodiscard]] std::shared_ptr<const JitKernel> kernel() const;
  /// Queued or Compiling — the cache pins such entries against eviction
  /// so the compile's result is never published into a dead slot.
  [[nodiscard]] bool in_flight() const;
  /// Failed or Dropped: this entry will never run native.
  [[nodiscard]] bool closed() const;
  /// Add one finished interpreted run's wall time.
  void add_interpreted_seconds(double seconds) {
    interpreted_seconds_.fetch_add(seconds, std::memory_order_relaxed);
    interpreted_runs_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double interpreted_seconds() const {
    return interpreted_seconds_.load(std::memory_order_relaxed);
  }
  /// Judge one native run of the kernel on trial against the mean of the
  /// entry's interpreted runs (any run wins when there were none): the
  /// first faster run keeps the kernel; the kNativeTrials-th slower one
  /// drops it, releasing the kernel for good, and the entry never
  /// compiles again.  Returns true iff this call dropped it; a no-op once
  /// the kernel is kept or dropped.
  bool judge_native_run(double seconds);

 private:
  friend class JitEngine;

  enum State : int {
    kEmpty = 0,
    kQueued,
    kCompiling,
    kReady,
    kServing,
    kFailed,
    kDropped,
  };

  std::atomic<int> state_{kEmpty};
  std::atomic<double> interpreted_seconds_{0.0};
  std::atomic<std::uint64_t> interpreted_runs_{0};
  std::atomic<int> slower_native_runs_{0};
  /// Stored by the engine thread strictly before the release-store of
  /// kReady, read only after an acquire-load observes kReady or kServing,
  /// and cleared by the run that drops it.
  std::atomic<std::shared_ptr<const JitKernel>> kernel_;
};

/// The background compiler: one low-priority thread, bounded queue,
/// slot-state dedup.  Owned by PlanCache when JIT is enabled.
class JitEngine {
 public:
  struct Stats {
    std::uint64_t compiles = 0;   ///< kernels published
    std::uint64_t failures = 0;   ///< slots marked Failed
    std::uint64_t in_flight = 0;  ///< queued + currently compiling
    std::uint64_t dropped = 0;    ///< enqueues refused by the full queue
  };

  explicit JitEngine(const JitOptions& opts = {});
  ~JitEngine();
  JitEngine(const JitEngine&) = delete;
  JitEngine& operator=(const JitEngine&) = delete;

  [[nodiscard]] bool available() const { return available_; }
  [[nodiscard]] const std::string& unavailable_reason() const {
    return reason_;
  }
  /// What one compile is expected to cost, in wall seconds: the probe's
  /// time until this engine has published a kernel, then the mean of its
  /// published compiles' times (a failed compile leaves it unchanged).
  [[nodiscard]] double expected_compile_seconds() const {
    return expected_compile_seconds_.load(std::memory_order_relaxed);
  }

  /// Queue a background compile of `plan` into `slot` if the slot is
  /// Empty and the queue has room; otherwise a no-op (dedup / drop).
  void enqueue(std::shared_ptr<JitSlot> slot,
               std::shared_ptr<const ExecutorPlan> plan);

  /// Block until the queue is drained and no compile is running — test
  /// and pre-warm hook; serving paths never wait.
  void wait_idle();

  [[nodiscard]] Stats stats() const;

 private:
  struct Job {
    std::shared_ptr<JitSlot> slot;
    std::shared_ptr<const ExecutorPlan> plan;
  };

  void worker();

  JitOptions opts_;
  bool available_ = false;
  std::string reason_;

  mutable std::mutex mu_;
  std::condition_variable cv_;    ///< wakes the worker
  std::condition_variable idle_;  ///< wakes wait_idle
  std::list<Job> queue_;
  bool busy_ = false;
  bool stop_ = false;
  std::uint64_t compiles_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t dropped_ = 0;
  double compile_seconds_ = 0.0;  ///< sum over the published compiles
  std::atomic<double> expected_compile_seconds_{0.0};
  std::thread worker_thread_;  ///< started only when available_
};

}  // namespace mimd
