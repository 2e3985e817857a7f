// Wire-protocol connection scaling (google-benchmark): pipelined
// requests at 1 / 8 / 64 / 256 concurrent clients against ONE PlanServer
// (epoll event loop + handler pool, Unix socket).
//
// Each benchmark thread IS one client: it owns a connection and, per
// iteration, writes kRequestsPerClient requests back-to-back and then
// gathers the replies, demuxed by request id.  The server's event loop
// parses many frames per recv and coalesces queued replies into one
// sendmsg.
//
// Two request mixes, because they bound the protocol's share from both
// sides:
//
//  * BM_Connections_Wire_*  — Stats requests: near-zero server work, so
//                             the numbers are the protocol + event loop
//                             themselves.
//  * BM_Connections_Runs_*  — tiny fig7@16 runs: real executor work per
//                             request.  Once the shared WorkerPool
//                             saturates the machine, throughput meets
//                             the compute ceiling — pipelining amortizes
//                             framing, not execution.
//
// The recorded numbers live in EXPERIMENTS.md ("Wire protocol v2 A/B").
#include <benchmark/benchmark.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan_client.hpp"
#include "runtime/plan_server.hpp"
#include "schedule/cyclic_sched.hpp"
#include "workloads/paper_examples.hpp"

namespace {

using namespace mimd;

constexpr int kRequestsPerClient = 32;

/// The tiny run request: fig7 at a small iteration count, so one run is
/// a few microseconds of actual execution.
struct TinyProgram {
  Ddg g = workloads::fig7_loop();
  PartitionedProgram prog;

  TinyProgram() {
    const Machine m{2, 2};
    const CyclicSchedResult r = cyclic_sched(g, m);
    prog = lower(materialize(*r.pattern, m.processors, 16), g);
  }
};

const TinyProgram& tiny() {
  static const TinyProgram t;
  return t;
}

/// One shared server for the whole binary: every thread count and both
/// request mixes hammer the SAME event loop + handler pool, which is the
/// point — server threads stay O(handlers) while client counts scale.
const std::string& server_endpoint() {
  static const std::unique_ptr<PlanServer> server = [] {
    PlanServerOptions opts;
    opts.socket_path = "/tmp/mimd-bench-connections.sock";
    opts.remove_existing = true;
    // Quotas off: a warm bench loop legitimately sustains far more than
    // the hostile-tenant defaults; this measures framing, not policing.
    opts.max_frames_per_second = 0;
    opts.max_programs_per_connection = 0;
    auto s = std::make_unique<PlanServer>(opts);
    s->start();
    return s;
  }();
  return server->socket_path();
}

void finish_counters(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations() * kRequestsPerClient);
  if (state.thread_index() == 0) {
    state.counters["clients"] =
        benchmark::Counter(static_cast<double>(state.threads()));
  }
}

// ---- The protocol-bound mix: Stats requests. ----

void BM_Connections_Wire_Pipelined(benchmark::State& state) {
  PlanClient client = PlanClient::connect(server_endpoint());
  for (auto _ : state) {
    std::vector<std::future<wire::StatsReply>> futs;
    futs.reserve(kRequestsPerClient);
    for (int r = 0; r < kRequestsPerClient; ++r) {
      futs.push_back(client.stats_async());
    }
    for (auto& f : futs) benchmark::DoNotOptimize(f.get());
  }
  finish_counters(state);
}
BENCHMARK(BM_Connections_Wire_Pipelined)
    ->Threads(1)
    ->Threads(8)
    ->Threads(64)
    ->Threads(256)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// ---- The compute-bound mix: tiny runs on the shared WorkerPool. ----

void BM_Connections_Runs_Pipelined(benchmark::State& state) {
  PlanClient client = PlanClient::connect(server_endpoint());
  const std::uint64_t id =
      client.submit_program(tiny().prog, tiny().g).program_id;
  for (auto _ : state) {
    std::vector<std::future<ExecutionResult>> futs;
    futs.reserve(kRequestsPerClient);
    for (int r = 0; r < kRequestsPerClient; ++r) {
      futs.push_back(client.run_async(id));
    }
    for (auto& f : futs) benchmark::DoNotOptimize(f.get());
  }
  finish_counters(state);
}
BENCHMARK(BM_Connections_Runs_Pipelined)
    ->Threads(1)
    ->Threads(8)
    ->Threads(64)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
