// The three request mixes the benchmark drives through an in-process
// PlanServer on a Unix socket, and the replay that times the server-side
// layers by calling their public functions on the same inputs.
//
//   cold-compile  every request is a never-seen seeded `.loop` program:
//                 parse -> if-convert -> optimize -> per strand
//                 dependence -> parallelize -> submit -> run -> drop.
//                 One connection, one request in flight.
//                 Why: every front-end layer and compile_program works on
//                 every request while the warm path is bypassed; it is
//                 also where background JIT compiles are pure waste.
//   warm-serve    six hot structures registered and JIT-warmed at set-up,
//                 then seeded run_async requests, 8 in flight on one v2
//                 connection.
//                 Why: isolates the per-request service path (wire, event
//                 loop, handler queue, gang claim, native dispatch, reply)
//                 with zero front-end or compile work.
//   mixed-n       the same six structures at seeded (structure, n) draws,
//                 with replacement, from 32 trip counts log-spaced over
//                 16..2048: parallelize -> submit -> run -> drop, one in
//                 flight.
//                 Why: one structure at many sizes is a separate O(n)
//                 program, payload, cache entry and JIT kernel each today,
//                 so trip-count-generic plans and any cache or JIT policy
//                 change show here, as does large-n execution; a pair
//                 that recurs while the cache holds it takes the warm
//                 path (a hit, and a native run once its kernel exists).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/parallelizer.hpp"
#include "oracle.hpp"
#include "partition/compiled_program.hpp"
#include "runtime/plan_client.hpp"
#include "runtime/plan_server.hpp"
#include "trace.hpp"

namespace perfbench {

/// A PlanServer with the daemon's defaults except the two per-connection
/// quotas (frame rate, registry size), which are off so that a faster
/// server can never turn a speed-up into quota failures; plus one
/// negotiated v2 client on its socket.
class Service {
 public:
  explicit Service(std::string socket_path);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] mimd::PlanServer& server() { return *server_; }
  [[nodiscard]] mimd::PlanClient& client() { return client_; }
  /// Replace a client whose transport failed.
  void reconnect();

  /// The pinned server configuration, for the run's metadata line.
  static std::string describe();

 private:
  std::string socket_path_;
  std::unique_ptr<mimd::PlanServer> server_;
  mimd::PlanClient client_;
};

/// What parallelize() was given for one program, and the structural hash
/// of what it returned — the replay re-derives the program from this and
/// must reach the same hash.
struct ReplayInput {
  mimd::Ddg graph;
  mimd::ParallelizeOptions popts;
  mimd::CompileOptions copts;
  std::uint64_t hash = 0;
  /// Requests of the window that ran this program.
  std::size_t uses = 0;
};

struct WindowResult {
  std::vector<double> latency_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failure_messages;  ///< first few
  double seconds = 0.0;  ///< timed seconds (oracle checks excluded)
  /// Sum of log(ParallelizeResult::cycles_per_iteration) over the
  /// programs the requests compiled (cold-compile, mixed-n) or ran
  /// (warm-serve), one term per request and program; and the term count.
  double log_cycles = 0.0;
  std::uint64_t programs = 0;
  /// Requests that sent a program this window's server had already been
  /// sent (mixed-n draws with replacement; 0 on the other workloads).
  std::uint64_t repeats = 0;
  mimd::wire::StatsReply before;
  mimd::wire::StatsReply after;
  SelfTest self_test;
  // Filled only when tracing: per-call mid-end counts and the replay log
  // (one input per program a request ran; the caller merges equal ones).
  std::vector<double> opt_rewrites;
  std::vector<double> opt_strands;
  std::vector<ReplayInput> inputs;

  void fail(const std::string& what);
  void add_program(double cycles_per_iteration);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Inputs and references that set-up must not pay for.
  virtual void prepare() {}
  /// Part of set-up on a fresh service: registration, JIT warm-up.
  virtual void warm(Service& /*svc*/) {}
  /// One closed-loop timed window of `seconds` on input stream `stream`:
  /// the same seed and stream give the same request sequence.
  virtual WindowResult run_window(Service& svc, Tracer& tracer,
                                  double seconds, std::uint64_t stream) = 0;
};

/// cold-compile, warm-serve or mixed-n; null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Per-layer figures the replay adds next to the spans it records.
struct ReplayResult {
  /// Inputs that also went through the server-side layers.
  std::size_t replayed = 0;
  std::size_t fidelity_mismatches = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failure_messages;
  std::vector<double> pattern_found;  ///< 1 when full_sched found a pattern
  std::vector<double> ops;            ///< ops per lowered program
  std::vector<double> submit_bytes;
  std::vector<double> reply_bytes;
};

/// Replay every input of the window through the public steps of
/// parallelize() (normalize_distances -> full_sched -> lower ->
/// structural_hash), failing any input whose hash differs from the one
/// parallelize() produced.  Inputs started within `budget_s` then go
/// through the server-side layers: encode_submit_program, compile,
/// ExecutorPlan::run on a WorkerPool (once per request that used the
/// input, capped), encode_run_reply, and for the first `jit_samples`
/// inputs jit_compile + JitKernel::run_pooled.
ReplayResult replay(const std::vector<ReplayInput>& inputs, Tracer& tracer,
                    std::size_t jit_samples, double budget_s);

}  // namespace perfbench
