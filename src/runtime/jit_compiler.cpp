#include "runtime/jit_compiler.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "partition/c_codegen.hpp"
#include "runtime/worker_pool.hpp"
#include "support/assert.hpp"

// Compile-time kill switches.  MIMD_JIT_DISABLED comes from CMake
// (-DMIMD_ENABLE_JIT=OFF, or dlfcn.h absent at configure time); the TSan
// detection is automatic because a dlopen'd kernel is uninstrumented —
// its pthreads and channel handoffs would be invisible to the race
// detector and every cross-thread value a false positive.  ASan/UBSan
// tolerate an uninstrumented plain-C library in an instrumented process,
// so those builds keep the JIT on.
#if defined(MIMD_JIT_DISABLED)
#define MIMD_JIT_DISABLED_REASON \
  "JIT disabled at build time (MIMD_ENABLE_JIT=OFF)"
#elif defined(__SANITIZE_THREAD__)
#define MIMD_JIT_DISABLED_REASON \
  "JIT disabled under ThreadSanitizer (dlopen'd kernels are uninstrumented)"
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MIMD_JIT_DISABLED_REASON \
  "JIT disabled under ThreadSanitizer (dlopen'd kernels are uninstrumented)"
#endif
#endif

#ifndef MIMD_JIT_DISABLED_REASON
#include <dlfcn.h>
#include <unistd.h>
#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif
#endif

namespace mimd {

namespace {

/// Background-compile queue bound; excess enqueues are dropped (the slot
/// reverts to Empty and the entry's next run re-enqueues).
constexpr std::size_t kJitQueueCapacity = 64;

#ifndef MIMD_JIT_DISABLED_REASON

/// Scratch directory for .c/.so artifacts: $TMPDIR, else /tmp.
std::string scratch_root() {
  if (const char* t = std::getenv("TMPDIR"); t != nullptr && *t != '\0') {
    return t;
  }
  return "/tmp";
}

/// A fresh scratch-path stem, unique within and across processes.
std::string scratch_stem() {
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream s;
  s << scratch_root() << "/mimd-jit-" << ::getpid() << "-"
    << counter.fetch_add(1);
  return s.str();
}

struct ScratchFiles {
  std::string c, so, err;
  ~ScratchFiles() {
    // Best-effort cleanup; on Linux the .so stays mapped after unlink.
    if (!c.empty()) std::remove(c.c_str());
    if (!so.empty()) std::remove(so.c_str());
    if (!err.empty()) std::remove(err.c_str());
  }
};

std::string read_excerpt(const std::string& path, std::size_t max_bytes) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.size() > max_bytes) {
    text.resize(max_bytes);
    text += "...";
  }
  return text;
}

/// cc -O2 -std=c11 -shared -fPIC -pthread -o so c 2> err.
/// Returns the system() status; nonzero means "read err".
int run_toolchain(const JitOptions& opts, const ScratchFiles& f) {
  std::ostringstream cmd;
  cmd << opts.cc << " -O2 -std=c11 -shared -fPIC -pthread -o " << f.so
      << ' ' << f.c << " 2> " << f.err;
  return std::system(cmd.str().c_str());  // NOLINT(cert-env33-c)
}

struct ProbeResult {
  bool ok = false;
  std::string reason;
  double seconds = 0.0;  ///< compile + load + call, when ok
};

/// Compile + load + call a trivial kernel once per cc, process-wide, and
/// time it.  Many PlanCaches (test suites construct dozens) share one
/// probe; the map is tiny and never shrinks.
const ProbeResult& probe_toolchain(const JitOptions& opts) {
  static std::mutex mu;
  static std::map<std::string, ProbeResult> cache;
  const std::string& key = opts.cc;

  const std::lock_guard<std::mutex> lock(mu);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  ProbeResult r;
  ScratchFiles f;
  const std::string stem = scratch_stem();
  f.c = stem + ".c";
  f.so = stem + ".so";
  f.err = stem + ".err";
  {
    std::ofstream out(f.c);
    out << "int mimd_jit_probe(void) { return 42; }\n";
    if (!out) {
      r.reason = "no working C toolchain: cannot write scratch file " + f.c;
      return cache.emplace(key, std::move(r)).first->second;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (run_toolchain(opts, f) != 0) {
    r.reason = "no working C toolchain: '" + opts.cc +
               " -shared' failed: " + read_excerpt(f.err, 300);
    return cache.emplace(key, std::move(r)).first->second;
  }
  void* handle = ::dlopen(f.so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    r.reason = std::string("no working C toolchain: dlopen failed: ") +
               ::dlerror();
    return cache.emplace(key, std::move(r)).first->second;
  }
  using ProbeFn = int (*)(void);
  auto probe =
      reinterpret_cast<ProbeFn>(::dlsym(handle, "mimd_jit_probe"));
  if (probe == nullptr || probe() != 42) {
    r.reason = "no working C toolchain: probe symbol missing or wrong";
    ::dlclose(handle);
    return cache.emplace(key, std::move(r)).first->second;
  }
  ::dlclose(handle);
  r.ok = true;
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return cache.emplace(key, std::move(r)).first->second;
}

#endif  // !MIMD_JIT_DISABLED_REASON

}  // namespace

bool jit_run_eligible(const RunOptions& opts) {
  return opts.kernel.work_per_cycle == 0;
}

#ifdef MIMD_JIT_DISABLED_REASON

bool jit_available(const JitOptions&) { return false; }

double jit_probe_seconds(const JitOptions&) { return 0.0; }

std::string jit_unavailable_reason(const JitOptions&) {
  return MIMD_JIT_DISABLED_REASON;
}

JitKernel::~JitKernel() = default;

ExecutionResult JitKernel::run_pooled(std::int64_t, WorkerPool*,
                                      bool) const {
  throw JitError(MIMD_JIT_DISABLED_REASON);
}

std::shared_ptr<const JitKernel> jit_compile(const ExecutorPlan&,
                                             const JitOptions&) {
  throw JitError(MIMD_JIT_DISABLED_REASON);
}

#else  // JIT enabled

bool jit_available(const JitOptions& opts) {
  return probe_toolchain(opts).ok;
}

double jit_probe_seconds(const JitOptions& opts) {
  return probe_toolchain(opts).seconds;
}

std::string jit_unavailable_reason(const JitOptions& opts) {
  return probe_toolchain(opts).reason;
}

JitKernel::~JitKernel() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

ExecutionResult JitKernel::run_pooled(std::int64_t n, WorkerPool* pool,
                                      bool pin_threads) const {
  MIMD_EXPECTS(n == iterations_);
  // The kernel writes the run's own block (R[v * n + i] is values[v][i]);
  // cells no processor computes stay 0.0, as on the interpreted tiers.
  ExecutionResult res{ResultBlock(static_cast<std::size_t>(nodes_), n)};
  void* ctx = ctx_create_(res.values.data());
  if (ctx == nullptr) {
    throw JitError("native kernel rejected ctx_create");
  }
  // One gang, one task per compiled thread, placed exactly like an
  // interpreted run: the caller's pool or the process pool, rotating
  // pinned CPU slices when requested.  Tasks must not throw, so
  // per-thread failures are collected and raised after the join.
  std::atomic<int> bad{0};
  const auto t0 = std::chrono::steady_clock::now();
  run_indexed_gang(pool, static_cast<std::size_t>(threads_), pin_threads,
                   [&](std::size_t i) {
                     if (run_on_(ctx, static_cast<long long>(i)) != 0) {
                       bad.fetch_add(1, std::memory_order_relaxed);
                     }
                   });
  const auto t1 = std::chrono::steady_clock::now();
  ctx_destroy_(ctx);
  if (bad.load(std::memory_order_relaxed) != 0) {
    throw JitError("native kernel rejected a run_on thread entry");
  }
  res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return res;
}

std::shared_ptr<const JitKernel> jit_compile(const ExecutorPlan& plan,
                                             const JitOptions& opts) {
  const ProbeResult& probe = probe_toolchain(opts);
  if (!probe.ok) throw JitError(probe.reason);

  const std::string source = emit_c_program(
      plan.program(), plan.graph(), CEmitOptions{CArtifact::Kernel});

  ScratchFiles f;
  const std::string stem = scratch_stem();
  f.c = stem + ".c";
  f.so = stem + ".so";
  f.err = stem + ".err";
  {
    std::ofstream out(f.c);
    out << source;
    if (!out) throw JitError("cannot write scratch file " + f.c);
  }
  if (run_toolchain(opts, f) != 0) {
    throw JitError("kernel compile failed: " + read_excerpt(f.err, 500));
  }

  void* handle = ::dlopen(f.so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    throw JitError(std::string("dlopen failed: ") + ::dlerror());
  }
  // ScratchFiles unlinks the .so on scope exit; the mapping survives the
  // unlink, so from here the kernel's lifetime is purely the handle's.
  struct KernelInfo {
    long long abi_version, nodes, iterations, threads;
  };
  const auto* info =
      static_cast<const KernelInfo*>(::dlsym(handle, "mimd_kernel_info"));
  // A wrong version or a node/iteration mismatch is a load failure, never
  // a misread buffer.
  if (info == nullptr || info->abi_version != kKernelAbiVersion ||
      info->nodes != static_cast<long long>(plan.graph().num_nodes()) ||
      info->iterations != plan.program().iterations) {
    ::dlclose(handle);
    throw JitError("loaded kernel failed the ABI handshake");
  }

  auto kernel = std::shared_ptr<JitKernel>(new JitKernel());
  kernel->handle_ = handle;
  kernel->ctx_create_ = reinterpret_cast<JitKernel::CtxCreateFn>(
      ::dlsym(handle, "mimd_kernel_ctx_create"));
  kernel->run_on_ = reinterpret_cast<JitKernel::RunOnFn>(
      ::dlsym(handle, "mimd_kernel_run_on"));
  kernel->ctx_destroy_ = reinterpret_cast<JitKernel::CtxDestroyFn>(
      ::dlsym(handle, "mimd_kernel_ctx_destroy"));
  if (kernel->ctx_create_ == nullptr || kernel->run_on_ == nullptr ||
      kernel->ctx_destroy_ == nullptr) {
    // kernel's destructor dlcloses the handle it already owns.
    throw JitError("loaded kernel is missing an entry symbol");
  }
  kernel->nodes_ = info->nodes;
  kernel->iterations_ = info->iterations;
  kernel->threads_ = info->threads;
  return kernel;
}

#endif  // MIMD_JIT_DISABLED_REASON

std::shared_ptr<const JitKernel> JitSlot::kernel() const {
  const int s = state_.load(std::memory_order_acquire);
  if (s != kReady && s != kServing) return nullptr;
  return kernel_.load();
}

bool JitSlot::in_flight() const {
  const int s = state_.load(std::memory_order_acquire);
  return s == kQueued || s == kCompiling;
}

bool JitSlot::closed() const {
  const int s = state_.load(std::memory_order_acquire);
  return s == kFailed || s == kDropped;
}

bool JitSlot::judge_native_run(double seconds) {
  if (state_.load(std::memory_order_acquire) != kReady) return false;
  const std::uint64_t runs = interpreted_runs_.load(std::memory_order_relaxed);
  int expected = kReady;
  if (runs == 0 || seconds * static_cast<double>(runs) <
                       interpreted_seconds_.load(std::memory_order_relaxed)) {
    state_.compare_exchange_strong(expected, kServing,
                                   std::memory_order_acq_rel);
    return false;
  }
  if (slower_native_runs_.fetch_add(1, std::memory_order_relaxed) + 1 <
          kNativeTrials ||
      !state_.compare_exchange_strong(expected, kDropped,
                                      std::memory_order_acq_rel)) {
    return false;
  }
  kernel_.store(nullptr);
  return true;
}

JitEngine::JitEngine(const JitOptions& opts) : opts_(opts) {
  reason_ = jit_unavailable_reason(opts_);
  available_ = reason_.empty();
  if (available_) {
    expected_compile_seconds_.store(jit_probe_seconds(opts_),
                                    std::memory_order_relaxed);
    worker_thread_ = std::thread([this] { worker(); });
  }
}

JitEngine::~JitEngine() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  idle_.notify_all();
  if (worker_thread_.joinable()) worker_thread_.join();
}

void JitEngine::enqueue(std::shared_ptr<JitSlot> slot,
                        std::shared_ptr<const ExecutorPlan> plan) {
  if (!available_ || slot == nullptr || plan == nullptr) return;
  // Claim the slot: only the Empty -> Queued transition enqueues, so a
  // structure run from N threads at once compiles exactly once.
  int expected = JitSlot::kEmpty;
  if (!slot->state_.compare_exchange_strong(expected, JitSlot::kQueued,
                                            std::memory_order_acq_rel)) {
    return;  // already queued / compiling / published / failed
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!stop_ && queue_.size() < kJitQueueCapacity) {
      queue_.push_back(Job{std::move(slot), std::move(plan)});
      cv_.notify_one();
      return;
    }
    ++dropped_;
  }
  // Queue full (or shutting down): release the claim so the entry's next
  // run can retry.
  slot->state_.store(JitSlot::kEmpty, std::memory_order_release);
}

void JitEngine::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] {
    return stop_ || (queue_.empty() && !busy_);
  });
}

JitEngine::Stats JitEngine::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.compiles = compiles_;
  s.failures = failures_;
  s.in_flight = queue_.size() + (busy_ ? 1 : 0);
  s.dropped = dropped_;
  return s;
}

void JitEngine::worker() {
#ifdef __linux__
  // Compiles yield to serving traffic: SCHED_IDLE runs only when the
  // machine is otherwise idle.  Failure (unsupported kernel, seccomp) is
  // fine — the thread stays at default priority.
  sched_param sp{};
  (void)::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &sp);
#endif
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;  // queued slots stay Queued; their cache dies too
    Job job = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    lock.unlock();

    job.slot->state_.store(JitSlot::kCompiling, std::memory_order_release);
    bool ok = false;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      // Publish-subscribe (McKenney): write the pointer, then
      // release-store Ready.  kernel() acquire-loads before reading.
      job.slot->kernel_.store(jit_compile(*job.plan, opts_));
      job.slot->state_.store(JitSlot::kReady, std::memory_order_release);
      ok = true;
    } catch (const JitError&) {
      job.slot->state_.store(JitSlot::kFailed, std::memory_order_release);
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    lock.lock();
    busy_ = false;
    if (ok) {
      ++compiles_;
      compile_seconds_ += seconds;
      expected_compile_seconds_.store(
          compile_seconds_ / static_cast<double>(compiles_),
          std::memory_order_relaxed);
    } else {
      ++failures_;
    }
    if (queue_.empty()) idle_.notify_all();
  }
}

}  // namespace mimd
