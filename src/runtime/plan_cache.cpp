#include "runtime/plan_cache.hpp"

#include <cmath>
#include <utility>

#include "support/assert.hpp"

namespace mimd {

PlanCache::PlanCache(std::size_t capacity) : PlanCache(capacity, JitConfig{}) {}

PlanCache::PlanCache(std::size_t capacity, const JitConfig& jit)
    : capacity_(capacity == 0 ? 1 : capacity) {
  if (jit.enabled) {
    engine_ = std::make_unique<JitEngine>(jit.options);
  }
}

bool PlanCache::matches_locked(const Entry& e, const PartitionedProgram& prog,
                               const CompileOptions& copts) const {
  return e.key_copts == copts && e.key_prog == prog;
}

void PlanCache::evict_to_capacity_locked() {
  // Building entries are pinned (their builders hold iterators), and so
  // are entries whose native-kernel compile is in flight — evicting one
  // would have the JIT worker publish into a slot no request can reach,
  // and would drop the interpreted plan the worker is still reading.
  // Walk from the cold end and drop the least recently used *built*
  // entries.
  auto it = lru_.end();
  std::size_t built_over = lru_.size() > capacity_ ? lru_.size() - capacity_
                                                   : 0;
  while (built_over > 0 && it != lru_.begin()) {
    --it;
    if (it->plan == nullptr) continue;           // in flight: pinned
    if (it->jit && it->jit->in_flight()) continue;  // compiling: pinned
    by_hash_.erase(it->hash);
    it = lru_.erase(it);
    ++evictions_;
    --built_over;
  }
}

std::shared_ptr<const ExecutorPlan> PlanCache::get_or_compile(
    const PartitionedProgram& prog, const Ddg& g,
    const CompileOptions& copts) {
  return get_or_compile_jit(prog, g, copts).plan;
}

PlanCache::CachedPlan PlanCache::get_or_compile_jit(
    const PartitionedProgram& prog, const Ddg& g,
    const CompileOptions& copts) {
  return lookup(prog, nullptr, g, copts);
}

PlanCache::CachedPlan PlanCache::get_or_compile_jit(
    PartitionedProgram&& prog, const Ddg& g, const CompileOptions& copts) {
  return lookup(prog, &prog, g, copts);
}

PlanCache::CachedPlan PlanCache::lookup(const PartitionedProgram& prog,
                                        PartitionedProgram* movable,
                                        const Ddg& g,
                                        const CompileOptions& copts) {
  // Hash the graph once; the combined key folds the precomputed value.
  const std::uint64_t graph_hash = structural_hash(g);
  const std::uint64_t hash = structural_hash(prog, graph_hash, copts);

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto it = by_hash_.find(hash);
    if (it == by_hash_.end()) break;  // miss: compile below
    Entry& e = *it->second;
    if (e.plan == nullptr) {
      // Someone is compiling under this hash (almost surely this exact
      // structure): wait for the publish — or for a failed build to
      // retract the entry — then rescan.  The full-equality check below
      // needs the built plan's graph anyway.
      built_.wait(lock);
      continue;
    }
    if (!matches_locked(e, prog, copts) || e.key_graph_hash != graph_hash ||
        !structurally_equivalent(g, e.plan->graph())) {
      // True 64-bit collision: two structures, one hash.  Never serve the
      // wrong plan — program and options compare by full equality, the
      // graph against the plan's own copy (the stored graph hash is just
      // the cheap pre-filter).  Replace the resident entry.
      const auto stale = it->second;
      by_hash_.erase(it);
      lru_.erase(stale);
      ++evictions_;
      break;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch: most recent
    return CachedPlan{e.plan, e.jit};
  }

  ++misses_;
  lru_.push_front(Entry{hash, {}, copts, graph_hash, nullptr,
                        engine_ ? std::make_shared<JitSlot>() : nullptr});
  const auto self = lru_.begin();
  by_hash_[hash] = self;
  lock.unlock();

  // The O(ops) key is stored outside the lock: nothing reads a building
  // entry's key (hits wait for the plan, eviction and clear() skip the
  // entry), and the plan is published under the lock after this write.
  if (movable != nullptr) {
    self->key_prog = std::move(*movable);
  } else {
    self->key_prog = prog;
  }
  std::shared_ptr<const ExecutorPlan> plan;
  try {
    plan = std::make_shared<const ExecutorPlan>(
        compile(self->key_prog, g, copts));
  } catch (...) {
    lock.lock();
    by_hash_.erase(hash);
    lru_.erase(self);
    built_.notify_all();
    throw;
  }

  lock.lock();
  self->plan = plan;
  CachedPlan built{plan, self->jit};
  evict_to_capacity_locked();
  built_.notify_all();
  return built;
}

std::shared_ptr<const JitKernel> PlanCache::kernel_for_run(
    const CachedPlan& entry, const RunOptions& opts) {
  if (entry.jit == nullptr) return nullptr;
  std::shared_ptr<const JitKernel> kernel = entry.jit->kernel();
  if (kernel != nullptr || engine_ == nullptr || !engine_->available() ||
      !jit_run_eligible(opts) || entry.jit->closed()) {
    return kernel;
  }
  // Rent or buy: keep interpreting until the earlier runs have cost one
  // compile, then buy the kernel.
  if (entry.jit->interpreted_seconds() >=
      engine_->expected_compile_seconds()) {
    engine_->enqueue(entry.jit, entry.plan);
  } else if (!entry.jit->in_flight()) {
    jit_deferred_runs_.fetch_add(1, std::memory_order_relaxed);
  }
  return nullptr;
}

void PlanCache::record_run(const CachedPlan& entry, const RunOptions& opts,
                           double seconds) {
  if (entry.jit != nullptr && jit_run_eligible(opts) &&
      entry.jit->kernel() == nullptr) {
    entry.jit->add_interpreted_seconds(seconds);
  }
}

void PlanCache::record_native_run(const CachedPlan& entry, double seconds) {
  if (entry.jit != nullptr && entry.jit->judge_native_run(seconds)) {
    jit_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

double PlanCache::expected_jit_compile_seconds() const {
  return engine_ ? engine_->expected_compile_seconds() : 0.0;
}

void PlanCache::prewarm(const CachedPlan& entry) {
  if (engine_) engine_->enqueue(entry.jit, entry.plan);
}

PlanCache::Stats PlanCache::stats() const {
  Stats s;
  if (engine_) {
    // Engine stats first (its own lock) to keep lock ordering trivial.
    const JitEngine::Stats js = engine_->stats();
    s.jit_enabled = engine_->available();
    s.jit_compiles = js.compiles;
    s.jit_failures = js.failures;
    s.jit_in_flight = js.in_flight;
    s.jit_compile_estimate_us = static_cast<std::uint64_t>(
        std::llround(engine_->expected_compile_seconds() * 1e6));
    s.jit_deferred_runs = jit_deferred_runs_.load(std::memory_order_relaxed);
    s.jit_dropped = jit_dropped_.load(std::memory_order_relaxed);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.capacity = capacity_;
  return s;
}

bool PlanCache::jit_available() const {
  return engine_ != nullptr && engine_->available();
}

std::string PlanCache::jit_unavailable_reason() const {
  if (engine_ == nullptr) return "JIT not configured";
  return engine_->unavailable_reason();
}

void PlanCache::wait_jit_idle() {
  if (engine_) engine_->wait_idle();
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->plan == nullptr || (it->jit && it->jit->in_flight())) {
      ++it;  // in flight (plan build or kernel compile): keep the entry
    } else {
      by_hash_.erase(it->hash);
      it = lru_.erase(it);
    }
  }
}

}  // namespace mimd
