// Integration tests against a REAL mimdd process.
//
// CTest spawns the daemon before any of these run and tears it down
// afterwards even when they fail, via fixture tests declared in
// tests/CMakeLists.txt:
//
//   mimdd_daemon_start  (FIXTURES_SETUP)    mimdd --socket <tmp> --daemonize
//   test_mimdd_integration.*  (FIXTURES_REQUIRED, this file)
//   mimdc_connect_*     (FIXTURES_REQUIRED) mimdc --connect smoke tests
//   mimdd_daemon_stop   (FIXTURES_CLEANUP)  mimdd --stop <tmp>
//
// The socket path arrives via the MIMDD_SOCKET environment variable (set
// by CTest); run standalone, the suite skips.  All tests here share one
// long-lived daemon — exactly the deployment shape — so assertions about
// Stats counters use DELTAS, never absolute values, and every test uses
// its own seeds so structures (and thus cache entries) never collide
// across tests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/plan_client.hpp"
#include "support/loop_gen.hpp"
#include "workloads/paper_examples.hpp"

namespace mimd {
namespace {

using testsupport::GeneratedLoop;
using testsupport::generate_loop;
using testsupport::renamed_copy;

constexpr int kTimeoutMs = 60000;  // a hung daemon fails, not hangs, a test

std::string daemon_socket() {
  const char* path = std::getenv("MIMDD_SOCKET");
  return path != nullptr ? path : "";
}

#define REQUIRE_DAEMON()                                              \
  do {                                                                \
    if (daemon_socket().empty()) {                                    \
      GTEST_SKIP() << "MIMDD_SOCKET not set (run under ctest, which " \
                      "spawns the daemon fixture)";                   \
    }                                                                 \
  } while (false)

TEST(MimddIntegration, SubmitRunAndValidateAgainstSequential) {
  REQUIRE_DAEMON();
  const GeneratedLoop gl = generate_loop(1001);
  PlanClient client = PlanClient::connect(daemon_socket(), kTimeoutMs);
  const wire::SubmitProgramReply sub =
      client.submit_program(gl.program, gl.graph);
  EXPECT_EQ(sub.iterations, gl.iterations);
  const ExecutionResult r = client.run(sub.program_id);
  EXPECT_TRUE(values_match(r, run_reference(gl.graph, gl.iterations),
                           gl.iterations));
}

TEST(MimddIntegration, DifferentialDaemonVsInProcessOverRealSocket) {
  REQUIRE_DAEMON();
  PlanClient client = PlanClient::connect(daemon_socket(), kTimeoutMs);
  for (const std::uint64_t seed : {1010u, 1011u, 1012u, 1013u, 1014u, 1015u}) {
    const GeneratedLoop gl = generate_loop(seed);
    const std::uint64_t id =
        client.submit_program(gl.program, gl.graph).program_id;
    const ExecutionResult via_daemon = client.run(id);
    const ExecutionResult local = compile(gl.program, gl.graph).run(gl.iterations);
    const ExecutionResult seq = run_reference(gl.graph, gl.iterations);
    EXPECT_TRUE(values_match(via_daemon, seq, gl.iterations)) << gl.tag;
    EXPECT_TRUE(values_match(via_daemon, local, gl.iterations)) << gl.tag;
  }
}

TEST(MimddIntegration, BatchRunsConcurrentlyAndMatchesSequential) {
  REQUIRE_DAEMON();
  // Every Run frame is in flight before the first reply is read, so the
  // daemon's handler pool executes them concurrently.
  PlanClient client = PlanClient::connect(daemon_socket(), kTimeoutMs);
  std::vector<GeneratedLoop> loops;
  std::vector<std::future<ExecutionResult>> runs;
  for (const std::uint64_t seed : {1020u, 1021u, 1022u, 1023u}) {
    loops.push_back(generate_loop(seed));
    runs.push_back(client.run_async(
        client.submit_program(loops.back().program, loops.back().graph)
            .program_id));
  }
  for (std::size_t i = 0; i < loops.size(); ++i) {
    EXPECT_TRUE(values_match(
        runs[i].get(), run_reference(loops[i].graph, loops[i].iterations),
        loops[i].iterations))
        << loops[i].tag;
  }
}

// The concurrent-client stress of the ISSUE's acceptance criteria, against
// the real daemon: M separate connections submit renamed copies of one
// structure; the Stats frame must show exactly ONE additional cache miss.
TEST(MimddIntegration, ConcurrentClientsRenamedCopiesCostExactlyOneMiss) {
  REQUIRE_DAEMON();
  constexpr int kClients = 8;
  const GeneratedLoop base = generate_loop(1030);
  const ExecutionResult seq = run_reference(base.graph, base.iterations);

  PlanClient observer = PlanClient::connect(daemon_socket(), kTimeoutMs);
  const wire::StatsReply before = observer.stats();

  std::atomic<int> failures{0};
  std::mutex log_mu;
  std::string log;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        PlanClient client = PlanClient::connect(daemon_socket(), kTimeoutMs);
        const Ddg renamed =
            renamed_copy(base.graph, "it" + std::to_string(c) + "_");
        const std::uint64_t id =
            client.submit_program(base.program, renamed).program_id;
        const ExecutionResult r = client.run(id);
        if (!values_match(r, seq, base.iterations)) {
          ++failures;
          const std::lock_guard<std::mutex> lock(log_mu);
          log += "client " + std::to_string(c) + ": mismatch\n";
        }
      } catch (const std::exception& e) {
        ++failures;
        const std::lock_guard<std::mutex> lock(log_mu);
        log += "client " + std::to_string(c) + ": " + e.what() + "\n";
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0) << log;

  const wire::StatsReply after = observer.stats();
  EXPECT_EQ(after.cache.misses - before.cache.misses, 1u);
  EXPECT_EQ(after.cache.hits - before.cache.hits,
            static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(after.runs_executed - before.runs_executed,
            static_cast<std::uint64_t>(kClients));
  EXPECT_GE(after.connections_accepted - before.connections_accepted,
            static_cast<std::uint64_t>(kClients));
}

// JIT: a warm daemon serves native runs.  A fresh structure's runs are
// interpreted (and deferred) until together they have taken as long as
// the daemon expects a compile to take; the next run queues the
// background compile, and once it publishes the same program's runs bump
// the native counter and stay byte-identical to the local sequential
// reference.  The structure is cytron86 at p = 2, n = 2,048: a one-thread
// run takes hundreds of microseconds, so a few hundred runs pay for the
// compile, and its native kernel beats the one-thread run, so the trial
// keeps it for the warm run at the end.
TEST(MimddIntegration, WarmDaemonServesNativeRunsWithIdenticalBytes) {
  REQUIRE_DAEMON();
  PlanClient client = PlanClient::connect(daemon_socket(), kTimeoutMs);
  const wire::StatsReply before = client.stats();
  if (before.jit_enabled == 0) {
    GTEST_SKIP() << "daemon reports jit disabled (no usable toolchain, or "
                    "built with MIMD_ENABLE_JIT=OFF)";
  }
  const testsupport::HotProgram hp =
      testsupport::hot_program(workloads::cytron86_loop(), 2, 2048);
  const wire::SubmitProgramReply sub =
      client.submit_program(hp.program, hp.graph);
  const std::uint64_t id = sub.program_id;
  const ExecutionResult seq = run_reference(hp.graph, sub.iterations);

  // Serve the structure until a run comes back native: its interpreted
  // runs add up to the daemon's compile-time estimate, the next run queues
  // the compile, and runs after the publish go native.  Every run, cold
  // or warm, must match sequential bit for bit.  Deltas, because the
  // daemon is shared; paced, to stay under its frame-rate quota.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  wire::StatsReply now = before;
  int runs = 0;
  while (now.jit_native_runs == before.jit_native_runs &&
         now.jit_failures == before.jit_failures &&
         std::chrono::steady_clock::now() < deadline) {
    const ExecutionResult r = client.run(id);
    EXPECT_TRUE(values_match(r, seq, sub.iterations)) << "run " << runs;
    ++runs;
    now = client.stats();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(now.jit_failures, before.jit_failures)
      << "a background kernel compile failed on the daemon";
  ASSERT_GT(now.jit_native_runs, before.jit_native_runs)
      << "no run went native within the deadline (" << runs << " runs)";
  EXPECT_GT(now.jit_compiles, before.jit_compiles);
  EXPECT_GT(now.jit_deferred_runs, before.jit_deferred_runs);
  EXPECT_GE(runs, 2);  // a plan's first run never compiles

  const ExecutionResult warm = client.run(id);
  EXPECT_TRUE(values_match(warm, seq, sub.iterations));
  const wire::StatsReply after = client.stats();
  EXPECT_GE(after.jit_native_runs - now.jit_native_runs, 1u);
}

TEST(MimddIntegration, ErrorFrameOverRealSocketKeepsConnectionUsable) {
  REQUIRE_DAEMON();
  PlanClient client = PlanClient::connect(daemon_socket(), kTimeoutMs);
  EXPECT_THROW((void)client.run(999999), RemoteError);
  const GeneratedLoop gl = generate_loop(1040);
  const std::uint64_t id =
      client.submit_program(gl.program, gl.graph).program_id;
  const ExecutionResult r = client.run(id);
  EXPECT_TRUE(values_match(r, run_reference(gl.graph, gl.iterations),
                           gl.iterations));
}

}  // namespace
}  // namespace mimd
