// PlanCache — the compiled-artifact half of the plan service: many
// callers, one compile.
//
// The paper's speedup model assumes partitioning/scheduling cost is paid
// once and amortized over many executions; PR 2 split the runtime into
// compile() -> ExecutorPlan + plan.run() to make that amortization
// *possible*, and this cache makes it *automatic*: a caller presents a
// (PartitionedProgram, Ddg, CompileOptions) request and receives a
// shared_ptr to the one compiled plan for that structure, compiling only
// on the first request (the static/dynamic split Baghdadi et al.'s
// synergistic-optimization study argues should live behind a reusable
// compiled artifact — PAPERS.md).
//
// Keying: structural_hash (partition/compiled_program.hpp) — a stable
// 64-bit hash of everything value-relevant (program op streams, graph
// latencies/edges/distances, compile options; node names excluded, they
// are diagnostic only).  Every hit is verified by full structural
// equality, so a hash collision degrades to a recompile, never to the
// wrong plan.
//
// Concurrency: one mutex guards the table, but compilation happens
// *outside* it — a miss inserts a building placeholder, releases the
// lock, compiles, then publishes.  Concurrent requests for the same key
// wait on a condvar instead of compiling twice; requests for other keys
// proceed untouched.  Plans are handed out as shared_ptr<const
// ExecutorPlan> (run() is const and thread-compatible), so eviction can
// never invalidate a plan a caller is still running.
//
// Eviction: LRU over built entries, bounded by `capacity`.  Entries
// still compiling are never evicted (their builders hold iterators), so
// the table can transiently exceed capacity by the number of in-flight
// compiles.
//
// JIT: with JitConfig::enabled each entry carries, next to the
// interpreted plan, an atomically-published native-kernel slot
// (runtime/jit_compiler.hpp).  Lookups never compile native code.  Each
// run asks kernel_for_run() for its kernel, and that one call is the
// admission rule; record_run() adds each finished interpreted run's wall
// time to the entry.  The rule is rent-or-buy: a `cc -O2` costs 100-300
// ms of CPU taken from every concurrent gang run, so an entry keeps
// paying per interpreted run until its earlier runs have together taken
// the engine's expected compile time (JitEngine::expected_compile_seconds,
// measured, never configured), and the run after that queues the
// background compile.  The sum is zero before a plan's second run, so a
// plan run once never starts the compiler, whatever connection or batch
// it came from.  Runs after the publish go native on trial:
// record_native_run() judges each against the mean of the entry's
// interpreted runs, which are one-thread runs unless the caller pinned
// them.  The first faster run keeps the kernel; JitSlot::kNativeTrials
// slower ones drop it, and that entry never compiles again.  A native
// kernel runs on a gang, and a gang's handoffs can cost more than the
// plan's work (DESIGN.md, "JIT plans").  prewarm() queues a compile at
// once, for callers that know a plan will run (mimdc --batch --jit).
// Entries whose kernel compile is in flight are pinned against eviction
// *and* clear() — evicting one would publish a freshly-built kernel into
// a slot the cache can no longer reach.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "runtime/executor.hpp"
#include "runtime/jit_compiler.hpp"

namespace mimd {

class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< each miss is one compile
    std::uint64_t evictions = 0;   ///< LRU + collision replacements
    std::size_t entries = 0;       ///< currently resident plans
    std::size_t capacity = 0;
    bool jit_enabled = false;      ///< configured on AND toolchain works
    std::uint64_t jit_compiles = 0;   ///< native kernels published
    std::uint64_t jit_failures = 0;   ///< background compiles failed
    std::uint64_t jit_in_flight = 0;  ///< queued + compiling right now
    /// The engine's expected compile time, rounded to microseconds.
    std::uint64_t jit_compile_estimate_us = 0;
    /// Eligible runs served interpreted because their entry's runs had
    /// not yet taken a compile's time.
    std::uint64_t jit_deferred_runs = 0;
    /// Published kernels dropped because their native runs did not beat
    /// the entry's interpreted runs.
    std::uint64_t jit_dropped = 0;
  };

  /// JIT policy for this cache.  Disabled by default: a plain PlanCache
  /// behaves exactly as before this feature existed.
  struct JitConfig {
    bool enabled = false;
    JitOptions options{};
  };

  explicit PlanCache(std::size_t capacity = kDefaultCapacity);
  PlanCache(std::size_t capacity, const JitConfig& jit);

  /// What a lookup hands back: the interpreted plan (always present) and
  /// the entry's kernel slot (null when JIT is off).  A run gets its
  /// kernel through kernel_for_run().
  struct CachedPlan {
    std::shared_ptr<const ExecutorPlan> plan;
    std::shared_ptr<JitSlot> jit;
  };

  /// The shared plan for this structure: compiled now if absent, returned
  /// from cache otherwise.  Throws what compile() throws (ContractViolation
  /// on an ill-formed program) — a failed build is not cached, and waiting
  /// duplicates then compile for themselves (and fail identically).
  std::shared_ptr<const ExecutorPlan> get_or_compile(
      const PartitionedProgram& prog, const Ddg& g,
      const CompileOptions& copts = {});

  /// get_or_compile plus the entry's kernel slot.  Queues nothing: a
  /// caller that runs the plan asks kernel_for_run() per run.
  CachedPlan get_or_compile_jit(const PartitionedProgram& prog, const Ddg& g,
                                const CompileOptions& copts = {});
  /// The same lookup for a caller done with its program (mimdd's decoded
  /// submit): a miss moves it into the new entry instead of copying it.
  /// On a hit `prog` is left as it was.
  CachedPlan get_or_compile_jit(PartitionedProgram&& prog, const Ddg& g,
                                const CompileOptions& copts = {});

  /// The kernel for one run of `entry` under `opts`: the published
  /// kernel (on trial or kept), or null (dispatch_resolved then
  /// interprets).  While no kernel is published, a jit_run_eligible run
  /// whose entry's recorded interpreted time has reached
  /// expected_jit_compile_seconds() queues the native compile (the slot's
  /// CAS keeps it to one, and a compile dropped by a full queue is queued
  /// again by the next run); an eligible run whose entry has not paid yet
  /// counts as deferred.  An entry whose compile failed or whose kernel
  /// was dropped gets null and queues nothing.
  std::shared_ptr<const JitKernel> kernel_for_run(const CachedPlan& entry,
                                                  const RunOptions& opts);

  /// Report one finished interpreted run of `entry`: its wall time counts
  /// toward the entry's compile, and toward the mean a native run must
  /// beat, when the run was jit_run_eligible and no kernel is published.
  /// run_cached() (plan_service.hpp) makes this call, or
  /// record_native_run, for every run the daemon and run_batch serve.
  void record_run(const CachedPlan& entry, const RunOptions& opts,
                  double seconds);

  /// Report one finished native run of `entry`: the kernel on trial is
  /// kept if `seconds` beats the mean of the entry's interpreted runs,
  /// and dropped (counted in Stats::jit_dropped) after
  /// JitSlot::kNativeTrials runs that do not (JitSlot::judge_native_run).
  void record_native_run(const CachedPlan& entry, double seconds);

  /// The engine's expected compile time, in seconds (0 when JIT is off).
  [[nodiscard]] double expected_jit_compile_seconds() const;

  /// Queue `entry`'s native compile now, whatever its runs took: the
  /// pre-warm hook for a caller that knows the plan will run, followed by
  /// wait_jit_idle().  A no-op when JIT is off or unavailable.
  void prewarm(const CachedPlan& entry);

  [[nodiscard]] Stats stats() const;

  /// True iff JIT was configured on and the toolchain probe succeeded.
  [[nodiscard]] bool jit_available() const;
  /// Why not: empty when available, "JIT not configured" for a plain
  /// cache, else the engine's pinned reason.
  [[nodiscard]] std::string jit_unavailable_reason() const;
  /// Drain the background compile queue — pre-warm and test hook;
  /// serving paths never wait.
  void wait_jit_idle();

  /// Drop every *built* entry (in-flight compiles finish and publish as
  /// usual; handed-out shared_ptrs stay valid).  Counters survive.
  void clear();

  static constexpr std::size_t kDefaultCapacity = 64;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    // Full structural key, kept to verify hits against hash collisions.
    // Written once, by the entry's builder before it publishes `plan`;
    // read only once `plan` is set.
    PartitionedProgram key_prog;
    CompileOptions key_copts;
    /// Cheap pre-filter only — a hit additionally verifies the request's
    /// graph against the built plan's own copy (structurally_equivalent).
    std::uint64_t key_graph_hash = 0;
    std::shared_ptr<const ExecutorPlan> plan;  ///< null while building
    std::shared_ptr<JitSlot> jit;  ///< null when JIT is off
  };
  using Lru = std::list<Entry>;  ///< front = most recently used

  /// Both get_or_compile_jit overloads: `movable` is &prog when the
  /// caller gave up its program, null when a miss must copy it.
  CachedPlan lookup(const PartitionedProgram& prog, PartitionedProgram* movable,
                    const Ddg& g, const CompileOptions& copts);
  [[nodiscard]] bool matches_locked(const Entry& e,
                                    const PartitionedProgram& prog,
                                    const CompileOptions& copts) const;
  void evict_to_capacity_locked();

  mutable std::mutex mu_;
  std::condition_variable built_;
  Lru lru_;
  std::unordered_map<std::uint64_t, Lru::iterator> by_hash_;
  std::size_t capacity_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::atomic<std::uint64_t> jit_deferred_runs_{0};
  std::atomic<std::uint64_t> jit_dropped_{0};
  /// Non-null iff JitConfig::enabled; owns the background compiler
  /// thread.  Destroyed before the entries (declaration order), so the
  /// worker never outlives the slots it publishes into.
  std::unique_ptr<JitEngine> engine_;
};

}  // namespace mimd
