// PlanServer/PlanClient differential and stress suite — the daemon's
// correctness oracle, run in-process so the TSan CI job sees every thread
// the server spawns.
//
// The centerpiece is the three-way fuzz/differential test: >= 50 randomly
// generated loop programs (tests/support/loop_gen.hpp) executed (1) via
// the daemon over its Unix socket (pipelined Run frames), (2) via the
// in-process plan service (run_batch on a local cache+pool), and (3)
// sequentially — all three must agree bit-for-bit.  Around it: concurrent
// clients proving cross-connection plan-cache sharing through the Stats
// frame (M clients, renamed copies, exactly one miss), graceful-shutdown
// draining, and hostile-input handling (error frames, garbage bytes).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/plan_client.hpp"
#include "runtime/plan_server.hpp"
#include "runtime/plan_service.hpp"
#include "support/loop_gen.hpp"

namespace mimd {
namespace {

using testsupport::GeneratedLoop;
using testsupport::generate_loop;
using testsupport::renamed_copy;

std::string temp_socket(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  return dir + name + ".sock";
}

/// An in-process server bound to a per-test temp socket, torn down (and
/// the path unlinked) even when the test body fails.  The `tweak`
/// overload lets quota/backoff tests tighten limits before start().
struct TestServer {
  PlanServer server;

  template <typename Tweak,
            typename = std::enable_if_t<
                std::is_invocable_v<Tweak&, PlanServerOptions&>>>
  TestServer(const std::string& name, Tweak&& tweak)
      : server([&] {
          PlanServerOptions opts;
          opts.socket_path = temp_socket(name);
          opts.remove_existing = true;  // stale file from a crashed run
          tweak(opts);
          return opts;
        }()) {
    server.start();
  }
  explicit TestServer(const std::string& name,
                      std::size_t cache_capacity = PlanCache::kDefaultCapacity)
      : TestServer(name, [&](PlanServerOptions& opts) {
          opts.cache_capacity = cache_capacity;
        }) {}
  ~TestServer() { server.stop(); }
};

TEST(LoopGen, DeterministicPerSeed) {
  const GeneratedLoop a = generate_loop(5);
  const GeneratedLoop b = generate_loop(5);
  EXPECT_EQ(a.tag, b.tag);
  EXPECT_EQ(a.program, b.program);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_TRUE(structurally_equivalent(a.graph, b.graph));
}

TEST(LoopGen, DifferentSeedsGiveDifferentPrograms) {
  const GeneratedLoop a = generate_loop(1);
  const GeneratedLoop b = generate_loop(2);
  EXPECT_TRUE(!(a.program == b.program) ||
              !structurally_equivalent(a.graph, b.graph));
}

TEST(LoopGen, RenamedCopyIsStructurallyIdenticalButNamedDifferently) {
  const GeneratedLoop gl = generate_loop(9);
  const Ddg copy = renamed_copy(gl.graph, "x_");
  EXPECT_TRUE(structurally_equivalent(gl.graph, copy));
  EXPECT_EQ(structural_hash(gl.graph), structural_hash(copy));
  EXPECT_NE(gl.graph.node(0).name, copy.node(0).name);
}

// The acceptance-criteria fuzz/differential test: >= 50 random programs,
// three transports-of-execution, each on both tiers (a default run goes
// round-robin on one thread, a pinned one to a gang), bit-identical
// results.
TEST(PlanServer, FuzzDifferentialDaemonVsInProcessVsSequential) {
  constexpr std::uint64_t kPrograms = 50;

  std::vector<GeneratedLoop> loops;
  loops.reserve(kPrograms);
  for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
    loops.push_back(generate_loop(seed));
  }
  const auto tier = [](bool pin) { return pin ? "gang" : "one-thread"; };

  // Leg 1: the daemon, over the Unix socket (one connection, every Run
  // frame pipelined before the first reply is read).
  TestServer ts("ps_fuzz");
  std::vector<ExecutionResult> via_daemon[2];
  {
    PlanClient client = PlanClient::connect(ts.server.socket_path());
    std::vector<std::future<ExecutionResult>> runs[2];
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const wire::SubmitProgramReply sub =
          client.submit_program(loops[i].program, loops[i].graph);
      EXPECT_EQ(sub.iterations, loops[i].iterations) << loops[i].tag;
      for (const bool pin : {false, true}) {
        wire::RemoteRunOptions ropts;
        ropts.pin_threads = pin;
        runs[pin].push_back(  // compiled count
            client.run_async(sub.program_id, 0, ropts));
      }
    }
    for (const bool pin : {false, true}) {
      for (std::future<ExecutionResult>& r : runs[pin]) {
        via_daemon[pin].push_back(r.get());
      }
      ASSERT_EQ(via_daemon[pin].size(), loops.size());
    }
  }
  const wire::StatsReply stats = ts.server.stats();
  EXPECT_EQ(stats.one_thread_runs, kPrograms);
  EXPECT_EQ(stats.gang_runs, kPrograms);

  // Leg 2: the in-process plan service (local cache + pool).
  std::vector<BatchJob> jobs;
  for (const bool pin : {false, true}) {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      BatchJob job;
      job.program = loops[i].program;
      job.graph = loops[i].graph;
      job.iterations = 0;
      job.ropts.pin_threads = pin;
      jobs.push_back(std::move(job));
    }
  }
  PlanCache cache(kPrograms + 8);
  WorkerPool pool;
  const BatchReport in_process = run_batch(jobs, cache, pool);
  ASSERT_EQ(in_process.results.size(), 2 * loops.size());

  // Leg 3: sequential reference — and the three-way bitwise comparison.
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const GeneratedLoop& gl = loops[i];
    const ExecutionResult seq = run_reference(gl.graph, gl.iterations);
    for (const bool pin : {false, true}) {
      const ExecutionResult& local =
          in_process.results[(pin ? loops.size() : 0) + i];
      EXPECT_TRUE(values_match(via_daemon[pin][i], seq, gl.iterations))
          << gl.tag << ": daemon vs sequential, " << tier(pin);
      EXPECT_TRUE(values_match(local, seq, gl.iterations))
          << gl.tag << ": in-process vs sequential, " << tier(pin);
      EXPECT_TRUE(values_match(via_daemon[pin][i], local, gl.iterations))
          << gl.tag << ": daemon vs in-process, " << tier(pin);
    }
  }
}

// M concurrent clients submitting renamed copies of one loop: the daemon
// must compile exactly once, and the Stats frame must show it.
TEST(PlanServer, ConcurrentClientsShareOnePlanAcrossConnections) {
  constexpr int kClients = 8;
  TestServer ts("ps_share");
  const GeneratedLoop base = generate_loop(777);
  const ExecutionResult seq = run_reference(base.graph, base.iterations);

  std::atomic<int> failures{0};
  std::mutex log_mu;
  std::string log;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        PlanClient client = PlanClient::connect(ts.server.socket_path());
        const Ddg renamed =
            renamed_copy(base.graph, "c" + std::to_string(c) + "_");
        const wire::SubmitProgramReply sub =
            client.submit_program(base.program, renamed);
        const ExecutionResult r = client.run(sub.program_id);
        if (!values_match(r, seq, base.iterations)) {
          ++failures;
          const std::lock_guard<std::mutex> lock(log_mu);
          log += "client " + std::to_string(c) + ": result mismatch\n";
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

  PlanClient observer = PlanClient::connect(ts.server.socket_path());
  const wire::StatsReply stats = observer.stats();
  // Renamed copies hash identically (names are excluded), so M submits
  // are ONE compile: exactly one miss, the rest hits — the
  // cross-connection amortization the daemon exists for.  Concurrent
  // first requests dedup inside PlanCache (waiters count as hits).
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(stats.programs_registered, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.runs_executed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.connections_accepted,
            static_cast<std::uint64_t>(kClients) + 1);  // + this observer
}

// The JIT admission rule, seen from the daemon: a structure submitted,
// run once and dropped never starts the compiler.
TEST(PlanServer, APlanRunOnceNeverStartsTheCompiler) {
  TestServer ts("ps_jit_once");
  if (!ts.server.cache().jit_available()) {
    GTEST_SKIP() << "jit unavailable: "
                 << ts.server.cache().jit_unavailable_reason();
  }
  const GeneratedLoop gl = generate_loop(71);
  PlanClient client = PlanClient::connect(ts.server.socket_path());
  const std::uint64_t id =
      client.submit_program(gl.program, gl.graph).program_id;
  EXPECT_TRUE(values_match(client.run(id),
                           run_reference(gl.graph, gl.iterations),
                           gl.iterations));
  client.drop_program(id);
  ts.server.cache().wait_jit_idle();
  const wire::StatsReply s = client.stats();
  EXPECT_EQ(s.jit_compiles, 0u);
  EXPECT_EQ(s.jit_failures, 0u);
  EXPECT_EQ(s.jit_in_flight, 0u);
}

// ...but once the structure's interpreted runs have taken a compile's
// time, the next run queues its compile, whichever connection runs it;
// the run after the publish is native and bit-identical.  The first
// connection's run is topped up to the estimate through the server's
// cache (record_run, the call the Run handler makes with each run's wall
// time), so the test does not depend on how fast this host interprets.
TEST(PlanServer, ASecondConnectionsRunOfTheSameStructureQueuesTheCompile) {
  TestServer ts("ps_jit_second");
  PlanCache& cache = ts.server.cache();
  if (!cache.jit_available()) {
    GTEST_SKIP() << "jit unavailable: " << cache.jit_unavailable_reason();
  }
  const GeneratedLoop gl = generate_loop(72);
  const ExecutionResult seq = run_reference(gl.graph, gl.iterations);
  {
    PlanClient first = PlanClient::connect(ts.server.socket_path());
    const std::uint64_t id =
        first.submit_program(gl.program, gl.graph).program_id;
    EXPECT_TRUE(values_match(first.run(id), seq, gl.iterations));
    first.drop_program(id);
  }
  cache.record_run(cache.get_or_compile_jit(gl.program, gl.graph),
                   RunOptions{}, cache.expected_jit_compile_seconds());
  cache.wait_jit_idle();
  EXPECT_EQ(cache.stats().jit_compiles, 0u);

  PlanClient second = PlanClient::connect(ts.server.socket_path());
  const std::uint64_t id =
      second.submit_program(gl.program, renamed_copy(gl.graph, "b_"))
          .program_id;
  EXPECT_TRUE(values_match(second.run(id), seq, gl.iterations));
  cache.wait_jit_idle();
  const wire::StatsReply queued = second.stats();
  EXPECT_EQ(queued.cache.misses, 1u);
  EXPECT_EQ(queued.jit_compiles, 1u);
  EXPECT_EQ(queued.jit_failures, 0u);
  EXPECT_EQ(queued.jit_native_runs, 0u);
  EXPECT_EQ(queued.jit_deferred_runs, 1u);  // the first connection's run

  EXPECT_TRUE(values_match(second.run(id), seq, gl.iterations));
  const wire::StatsReply after = second.stats();
  EXPECT_EQ(after.jit_native_runs, 1u);
  EXPECT_EQ(after.jit_compiles, 1u);
}

// A recurring plan whose runs stay short next to a compile never starts
// the compiler: its runs are served interpreted and counted as deferred,
// and the Stats frame carries the estimate they are measured against.
TEST(PlanServer, ARecurringPlanWithShortRunsIsDeferredNotCompiled) {
  TestServer ts("ps_jit_short");
  if (!ts.server.cache().jit_available()) {
    GTEST_SKIP() << "jit unavailable: "
                 << ts.server.cache().jit_unavailable_reason();
  }
  const GeneratedLoop gl = generate_loop(73);
  const ExecutionResult seq = run_reference(gl.graph, gl.iterations);
  PlanClient client = PlanClient::connect(ts.server.socket_path());
  // A new server's engine has published nothing, so its estimate is the
  // probe's time, and it holds until a compile publishes.
  const double estimate = ts.server.cache().expected_jit_compile_seconds();
  const wire::StatsReply before = client.stats();
  EXPECT_EQ(before.jit_compile_estimate_us,
            static_cast<std::uint64_t>(std::llround(estimate * 1e6)));
  EXPECT_GT(before.jit_compile_estimate_us, 0u);
  const std::uint64_t id =
      client.submit_program(gl.program, gl.graph).program_id;
  constexpr int kRuns = 3;
  // The wall times the server recorded come back in the replies, bit for
  // bit; the last run's admission saw the sum of the ones before it.
  double earlier_seconds = 0.0;
  for (int run = 0; run < kRuns; ++run) {
    const ExecutionResult r = client.run(id);
    EXPECT_TRUE(values_match(r, seq, gl.iterations)) << "run " << run;
    if (run + 1 < kRuns) earlier_seconds += r.wall_seconds;
  }
  if (earlier_seconds >= estimate) {
    GTEST_SKIP() << "this host took " << earlier_seconds * 1e3 << " ms for "
                 << kRuns - 1 << " runs, as long as the probe's compile";
  }
  ts.server.cache().wait_jit_idle();
  const wire::StatsReply s = client.stats();
  EXPECT_EQ(s.jit_compile_estimate_us, before.jit_compile_estimate_us);
  EXPECT_EQ(s.jit_compiles, 0u);
  EXPECT_EQ(s.jit_in_flight, 0u);
  EXPECT_EQ(s.jit_interpreted_runs, static_cast<std::uint64_t>(kRuns));
  EXPECT_EQ(s.jit_deferred_runs, static_cast<std::uint64_t>(kRuns));
}

// Sustained mixed traffic: M clients x R requests over a handful of
// program structures, every reply validated.  This is the TSan target for
// the concurrent-connection path.
TEST(PlanServer, ConcurrentMixedTrafficStress) {
  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 8;
  constexpr std::uint64_t kStructures = 4;

  std::vector<GeneratedLoop> loops;
  std::vector<ExecutionResult> refs;
  for (std::uint64_t s = 0; s < kStructures; ++s) {
    loops.push_back(generate_loop(31 + s));
    refs.push_back(run_reference(loops.back().graph, loops.back().iterations));
  }

  TestServer ts("ps_stress");
  std::atomic<int> failures{0};
  std::mutex log_mu;
  std::string log;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        PlanClient client = PlanClient::connect(ts.server.socket_path());
        std::vector<std::uint64_t> ids(loops.size());
        for (std::size_t i = 0; i < loops.size(); ++i) {
          ids[i] =
              client.submit_program(loops[i].program, loops[i].graph)
                  .program_id;
        }
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const std::size_t i =
              static_cast<std::size_t>(c + r) % loops.size();
          const ExecutionResult result = client.run(ids[i]);
          if (!values_match(result, refs[i], loops[i].iterations)) {
            ++failures;
            const std::lock_guard<std::mutex> lock(log_mu);
            log += "client " + std::to_string(c) + " req " +
                   std::to_string(r) + ": mismatch on " + loops[i].tag + "\n";
          }
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

  PlanClient observer = PlanClient::connect(ts.server.socket_path());
  const wire::StatsReply stats = observer.stats();
  // One compile per distinct structure, no matter how many clients.
  EXPECT_EQ(stats.cache.misses, kStructures);
  EXPECT_EQ(stats.runs_executed,
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient);
}

TEST(PlanServer, GracefulShutdownDrainsInFlightRuns) {
  TestServer ts("ps_drain");
  const GeneratedLoop gl = generate_loop(55);
  const ExecutionResult seq = run_reference(gl.graph, gl.iterations);

  // Raw wire-level client, so the test can separate "request delivered"
  // from "reply received": on an AF_UNIX stream socket, send() copies
  // straight into the peer's receive queue, so once write_frame returns
  // the run IS in flight server-side — no sleeps, no race.  A receiver
  // half-closed by stop() still drains its queued data before EOF, which
  // is exactly the property this test pins.
  const sockaddr_un addr = wire::make_unix_addr(ts.server.socket_path());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  wire::SubmitProgramRequest sub;
  sub.program = gl.program;
  sub.graph = gl.graph;
  wire::write_frame(fd, wire::FrameType::SubmitProgram, 1,
                    wire::encode_submit_program(sub));
  const auto sub_reply = wire::read_frame(fd);
  ASSERT_TRUE(sub_reply.has_value());
  ASSERT_EQ(sub_reply->type, wire::FrameType::SubmitProgramReply);
  const std::uint64_t id =
      wire::decode_submit_program_reply(sub_reply->payload).program_id;

  wire::RunRequest run;
  run.program_id = id;
  run.opts.work_per_cycle = 5000;
  wire::write_frame(fd, wire::FrameType::Run, 2, wire::encode_run(run));
  // The run request is now queued (or executing) server-side.  Shut the
  // daemon down via the wire from a second connection...
  {
    PlanClient closer = PlanClient::connect(ts.server.socket_path());
    closer.shutdown_server();
  }
  ts.server.wait();
  ts.server.stop();  // must drain: the in-flight reply still arrives

  // ...and the reply to the in-flight run must still be delivered,
  // bit-identical, after the server has fully stopped.
  const auto run_reply = wire::read_frame(fd);
  ASSERT_TRUE(run_reply.has_value());
  ASSERT_EQ(run_reply->type, wire::FrameType::RunReply);
  EXPECT_EQ(run_reply->request_id, 2u);
  const ExecutionResult r = wire::decode_run_reply(run_reply->payload);
  EXPECT_TRUE(values_match(r, seq, gl.iterations));
  ::close(fd);
  // The socket file is gone once stop() returns.
  EXPECT_NE(::access(ts.server.socket_path().c_str(), F_OK), 0);
}

TEST(PlanServer, ErrorFramesKeepTheConnectionUsable) {
  TestServer ts("ps_errors");
  PlanClient client = PlanClient::connect(ts.server.socket_path());

  // Unknown program id.
  EXPECT_THROW((void)client.run(12345), RemoteError);

  // Ill-formed program: a Send with no matching Receive fails validation
  // inside compile(); the ContractViolation must come back as an Error
  // frame, not kill the connection.
  const GeneratedLoop gl = generate_loop(66);
  PartitionedProgram broken;
  broken.processors = 2;
  broken.programs.resize(2);
  broken.programs[0].proc = 0;
  broken.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{0u, 0}, 0u, -1});
  broken.programs[0].ops.push_back(Op{Op::Kind::Send, Inst{0u, 0}, 0u, 1});
  broken.programs[1].proc = 1;
  EXPECT_THROW((void)client.submit_program(broken, gl.graph), RemoteError);

  // Iterations below or past the compiled count: a plan computes exactly
  // its compiled iterations, so past them it would return rows nobody
  // computed.  Neither request runs.
  const std::uint64_t id =
      client.submit_program(gl.program, gl.graph).program_id;
  ASSERT_GT(gl.iterations, 1);
  EXPECT_THROW((void)client.run(id, 1), RemoteError);
  EXPECT_THROW((void)client.run(id, gl.iterations + 4), RemoteError);
  EXPECT_EQ(client.stats().runs_executed, 0u);

  // After all of that, the same connection still serves a real run.
  const ExecutionResult r = client.run(id);
  const ExecutionResult seq = run_reference(gl.graph, gl.iterations);
  EXPECT_TRUE(values_match(r, seq, gl.iterations));
}

TEST(PlanServer, ANegativeIterationCountGetsAnErrorFrame) {
  // Only 0 means "the compiled count": -1 is a mismatch like any other,
  // refused before it runs, and the connection keeps serving.
  TestServer ts("ps_negative_n");
  PlanClient client = PlanClient::connect(ts.server.socket_path());
  const GeneratedLoop gl = generate_loop(69);
  const std::uint64_t id =
      client.submit_program(gl.program, gl.graph).program_id;
  EXPECT_THROW((void)client.run(id, -1), RemoteError);
  EXPECT_EQ(client.stats().runs_executed, 0u);

  const ExecutionResult r = client.run(id);
  EXPECT_TRUE(values_match(r, run_reference(gl.graph, gl.iterations),
                           gl.iterations));
  EXPECT_EQ(client.stats().runs_executed, 1u);
}

TEST(PlanServer, FrameTypeThreeGetsAnErrorFrameAndRunsStillServe) {
  // Frame type 3 is unassigned: an Error frame echoing the request id,
  // and the connection stays usable for a Run.
  TestServer ts("ps_type3");
  const GeneratedLoop gl = generate_loop(68);
  const sockaddr_un addr = wire::make_unix_addr(ts.server.socket_path());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  wire::write_frame(fd, static_cast<wire::FrameType>(3), 7,
                    std::vector<std::uint8_t>(25, 0));
  const auto err = wire::read_frame(fd);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, wire::FrameType::Error);
  EXPECT_EQ(err->request_id, 7u);
  EXPECT_NE(wire::decode_error(err->payload).find("frame type 3"),
            std::string::npos);

  wire::SubmitProgramRequest sub;
  sub.program = gl.program;
  sub.graph = gl.graph;
  wire::write_frame(fd, wire::FrameType::SubmitProgram, 8,
                    wire::encode_submit_program(sub));
  const auto sub_reply = wire::read_frame(fd);
  ASSERT_TRUE(sub_reply.has_value());
  ASSERT_EQ(sub_reply->type, wire::FrameType::SubmitProgramReply);
  wire::RunRequest run;
  run.program_id =
      wire::decode_submit_program_reply(sub_reply->payload).program_id;
  wire::write_frame(fd, wire::FrameType::Run, 9, wire::encode_run(run));
  const auto run_reply = wire::read_frame(fd);
  ASSERT_TRUE(run_reply.has_value());
  ASSERT_EQ(run_reply->type, wire::FrameType::RunReply);
  EXPECT_EQ(run_reply->request_id, 9u);
  EXPECT_TRUE(values_match(wire::decode_run_reply(run_reply->payload),
                           run_reference(gl.graph, gl.iterations),
                           gl.iterations));
  ::close(fd);
}

/// A raw connection speaking well-framed requests, for replies a
/// PlanClient would turn into exceptions.
struct RawConnection {
  int fd = -1;
  std::uint64_t next_id = 1;

  explicit RawConnection(const std::string& path) {
    const sockaddr_un addr = wire::make_unix_addr(path);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawConnection() { ::close(fd); }

  wire::Frame call(wire::FrameType type,
                   const std::vector<std::uint8_t>& payload) {
    const std::uint64_t id = next_id++;
    wire::write_frame(fd, type, id, payload);
    std::optional<wire::Frame> reply = wire::read_frame(fd);
    EXPECT_TRUE(reply.has_value());
    if (!reply) return {};
    EXPECT_EQ(reply->request_id, id);
    return std::move(*reply);
  }

  std::uint64_t runs_executed() {
    const wire::Frame f = call(wire::FrameType::Stats, {});
    EXPECT_EQ(f.type, wire::FrameType::StatsReply);
    return wire::decode_stats_reply(f.payload).runs_executed;
  }
};

TEST(PlanServer, NegativeIterationAndDuplicateComputeGetErrorFrames) {
  // Both programs passed validation once: the first made a worker write
  // values[A][size_t(-3)], the second had two workers write one cell.
  TestServer ts("ps_hostile_programs");
  RawConnection conn(ts.server.socket_path());
  Ddg g;
  const NodeId a = g.add_node("A");

  PartitionedProgram negative;
  negative.processors = 1;
  negative.programs.resize(1);
  negative.programs[0].ops = {Op{Op::Kind::Compute, Inst{a, -3}, 0, -1},
                              Op{Op::Kind::Compute, Inst{a, 1}, 0, -1}};
  PartitionedProgram duplicate;
  duplicate.processors = 2;
  duplicate.programs.resize(2);
  duplicate.programs[1].proc = 1;
  for (ProcessorProgram& pp : duplicate.programs) {
    pp.ops = {Op{Op::Kind::Compute, Inst{a, 0}, 0, -1}};
  }

  for (const auto& [program, message] :
       {std::pair{negative, "PE0: compute A@-3 has a negative iteration"},
        std::pair{duplicate,
                  "PE1: compute A@0 duplicates the instance computed on "
                  "PE0"}}) {
    const wire::Frame reply =
        conn.call(wire::FrameType::SubmitProgram,
                  wire::encode_submit_program(program, g, {}));
    ASSERT_EQ(reply.type, wire::FrameType::Error);
    EXPECT_NE(wire::decode_error(reply.payload).find(message),
              std::string::npos)
        << wire::decode_error(reply.payload);
  }
  EXPECT_EQ(conn.runs_executed(), 0u);

  // The connection keeps serving: a real submit and run on it.
  const GeneratedLoop gl = generate_loop(67);
  const wire::Frame sub =
      conn.call(wire::FrameType::SubmitProgram,
                wire::encode_submit_program(gl.program, gl.graph, {}));
  ASSERT_EQ(sub.type, wire::FrameType::SubmitProgramReply);
  wire::RunRequest run;
  run.program_id = wire::decode_submit_program_reply(sub.payload).program_id;
  const wire::Frame ran =
      conn.call(wire::FrameType::Run, wire::encode_run(run));
  ASSERT_EQ(ran.type, wire::FrameType::RunReply);
  EXPECT_TRUE(values_match(wire::decode_run_reply(ran.payload),
                           run_reference(gl.graph, gl.iterations),
                           gl.iterations));
  EXPECT_EQ(conn.runs_executed(), 1u);
}

TEST(PlanServer, ProgramsSharingAProcessorIdGetAnErrorFrame) {
  // Accepted before the rule existed: the two PE0 programs became two
  // threads producing on one channel, and a Run could abort the whole
  // daemon on the receive's FIFO tag check.
  TestServer ts("ps_shared_proc");
  RawConnection conn(ts.server.socket_path());
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const EdgeId ab = g.add_edge(a, b, 0);
  PartitionedProgram shared;
  shared.processors = 2;
  shared.programs.resize(3);
  shared.programs[0].ops = {Op{Op::Kind::Compute, Inst{a, 0}, 0, -1},
                            Op{Op::Kind::Send, Inst{a, 0}, ab, 1}};
  shared.programs[1].ops = {Op{Op::Kind::Compute, Inst{a, 1}, 0, -1},
                            Op{Op::Kind::Send, Inst{a, 1}, ab, 1}};
  shared.programs[2].proc = 1;
  shared.programs[2].ops = {Op{Op::Kind::Receive, Inst{a, 0}, ab, 0},
                            Op{Op::Kind::Receive, Inst{a, 1}, ab, 0},
                            Op{Op::Kind::Compute, Inst{b, 0}, 0, -1},
                            Op{Op::Kind::Compute, Inst{b, 1}, 0, -1}};
  const wire::Frame reply =
      conn.call(wire::FrameType::SubmitProgram,
                wire::encode_submit_program(shared, g, {}));
  ASSERT_EQ(reply.type, wire::FrameType::Error);
  EXPECT_NE(wire::decode_error(reply.payload)
                .find("PE0: two processor programs share this processor id"),
            std::string::npos)
      << wire::decode_error(reply.payload);
  EXPECT_EQ(conn.runs_executed(), 0u);

  // The connection keeps serving: a real submit and run on it.
  const GeneratedLoop gl = generate_loop(69);
  const wire::Frame sub =
      conn.call(wire::FrameType::SubmitProgram,
                wire::encode_submit_program(gl.program, gl.graph, {}));
  ASSERT_EQ(sub.type, wire::FrameType::SubmitProgramReply);
  wire::RunRequest run;
  run.program_id = wire::decode_submit_program_reply(sub.payload).program_id;
  const wire::Frame ran =
      conn.call(wire::FrameType::Run, wire::encode_run(run));
  ASSERT_EQ(ran.type, wire::FrameType::RunReply);
  EXPECT_TRUE(values_match(wire::decode_run_reply(ran.payload),
                           run_reference(gl.graph, gl.iterations),
                           gl.iterations));
  EXPECT_EQ(conn.runs_executed(), 1u);
}

TEST(PlanServer, ADeadlockingProgramGetsAnErrorFrameAtSubmit) {
  // Accepted before the deadlock rule existed: a Run blocked its handler
  // thread and the gang's workers for good, with nothing to cancel them.
  TestServer ts("ps_deadlock");
  RawConnection conn(ts.server.socket_path());
  const testsupport::HandBuiltLoop l = testsupport::two_node_cross_wait();
  const wire::Frame reply =
      conn.call(wire::FrameType::SubmitProgram,
                wire::encode_submit_program(l.program, l.graph, {}));
  ASSERT_EQ(reply.type, wire::FrameType::Error);
  EXPECT_NE(wire::decode_error(reply.payload)
                .find("deadlock: PE0 waits at receive of B@1 from PE1, PE1 "
                      "waits at receive of A@0 from PE0"),
            std::string::npos)
      << wire::decode_error(reply.payload);

  // The connection keeps serving, on both tiers.
  const GeneratedLoop gl = generate_loop(70);
  const wire::Frame sub =
      conn.call(wire::FrameType::SubmitProgram,
                wire::encode_submit_program(gl.program, gl.graph, {}));
  ASSERT_EQ(sub.type, wire::FrameType::SubmitProgramReply);
  wire::RunRequest run;
  run.program_id = wire::decode_submit_program_reply(sub.payload).program_id;
  for (const bool pin : {false, true}) {
    run.opts.pin_threads = pin;
    const wire::Frame ran =
        conn.call(wire::FrameType::Run, wire::encode_run(run));
    ASSERT_EQ(ran.type, wire::FrameType::RunReply);
    EXPECT_TRUE(values_match(wire::decode_run_reply(ran.payload),
                             run_reference(gl.graph, gl.iterations),
                             gl.iterations));
  }
  EXPECT_EQ(conn.runs_executed(), 2u);
  const wire::StatsReply s = ts.server.stats();
  EXPECT_EQ(s.one_thread_runs, 1u);
  EXPECT_EQ(s.gang_runs, 1u);
}

/// Resident set of this process, in bytes.
std::size_t resident_bytes() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(PlanServer, FarIterationIsAnsweredWithoutIterationSizedMemory) {
  // The validator's and compiler's tables are sized from op counts: a
  // lone Compute at iteration 2^62 costs what any one-op program costs.
  TestServer ts("ps_far_iteration",
                [](PlanServerOptions& opts) { opts.enable_jit = false; });
  RawConnection conn(ts.server.socket_path());
  Ddg g;
  const NodeId a = g.add_node("A");
  constexpr std::int64_t kFar = std::int64_t{1} << 62;
  PartitionedProgram far;
  far.processors = 1;
  far.programs.resize(1);
  far.programs[0].ops = {Op{Op::Kind::Compute, Inst{a, kFar}, 0, -1}};

  const std::size_t before = resident_bytes();
  const wire::Frame sub = conn.call(wire::FrameType::SubmitProgram,
                                    wire::encode_submit_program(far, g, {}));
  const std::size_t after = resident_bytes();
  ASSERT_EQ(sub.type, wire::FrameType::SubmitProgramReply);
  EXPECT_EQ(wire::decode_submit_program_reply(sub.payload).iterations,
            kFar + 1);
  EXPECT_LT(after, before + (std::size_t{4} << 20))
      << "resident set grew from " << before << " to " << after << " bytes";

  // Running it would need a result row of 2^62 values: refused up front,
  // and the connection keeps serving.
  wire::RunRequest run;
  run.program_id = wire::decode_submit_program_reply(sub.payload).program_id;
  const wire::Frame ran =
      conn.call(wire::FrameType::Run, wire::encode_run(run));
  ASSERT_EQ(ran.type, wire::FrameType::Error);
  EXPECT_NE(wire::decode_error(ran.payload).find("frame limit"),
            std::string::npos);
  EXPECT_EQ(conn.runs_executed(), 0u);
}

TEST(PlanServer, GarbageBytesDropTheConnectionNotTheServer) {
  TestServer ts("ps_garbage");

  // Raw socket, no protocol: an oversize length prefix must make the
  // server drop this connection...
  const sockaddr_un addr = wire::make_unix_addr(ts.server.socket_path());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::uint8_t junk[16] = {0xFF, 0xFF, 0xFF, 0xFF, 0x42, 1, 2, 3,
                                 4,    5,    6,    7,    8,    9, 10, 11};
  ASSERT_EQ(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(junk)));
  // The server answers a framing violation by closing; observe EOF.
  std::uint8_t buf[8];
  const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_LE(got, 0);
  ::close(fd);

  // ...while a well-behaved client connecting afterwards is unaffected.
  const GeneratedLoop gl = generate_loop(88);
  PlanClient client = PlanClient::connect(ts.server.socket_path());
  const std::uint64_t id =
      client.submit_program(gl.program, gl.graph).program_id;
  const ExecutionResult r = client.run(id);
  EXPECT_TRUE(values_match(r, run_reference(gl.graph, gl.iterations),
                           gl.iterations));
}

TEST(PlanServer, PlansSurviveCacheEvictionWhileRegistered) {
  // Capacity-1 cache: the second submit evicts the first plan from the
  // cache, but connection registries hold shared_ptrs, so the first
  // program must still run correctly.
  TestServer ts("ps_evict", /*cache_capacity=*/1);
  const GeneratedLoop a = generate_loop(91);
  const GeneratedLoop b = generate_loop(92);
  PlanClient client = PlanClient::connect(ts.server.socket_path());
  const std::uint64_t id_a =
      client.submit_program(a.program, a.graph).program_id;
  const std::uint64_t id_b =
      client.submit_program(b.program, b.graph).program_id;
  const wire::StatsReply stats = client.stats();
  EXPECT_EQ(stats.cache.entries, 1u);
  EXPECT_EQ(stats.cache.evictions, 1u);
  const ExecutionResult ra = client.run(id_a);
  const ExecutionResult rb = client.run(id_b);
  EXPECT_TRUE(
      values_match(ra, run_reference(a.graph, a.iterations), a.iterations));
  EXPECT_TRUE(
      values_match(rb, run_reference(b.graph, b.iterations), b.iterations));
}

TEST(PlanServer, OversizeResultIsRefusedBeforeRunningNotAfter) {
  // A result too large for one frame must come back as an Error frame
  // (connection intact), and must be refused BEFORE the run burns CPU —
  // not executed, encoded, and then dropped at the write.
  TestServer ts("ps_oversize");
  const GeneratedLoop gl = generate_loop(94);
  PlanClient client = PlanClient::connect(ts.server.socket_path());
  const std::uint64_t id =
      client.submit_program(gl.program, gl.graph).program_id;
  // nodes * n * 8 bytes >> 64 MiB.
  const std::int64_t huge_n = 500'000'000;
  try {
    (void)client.run(id, huge_n);
    FAIL() << "oversize run was not refused";
  } catch (const RemoteError& e) {
    EXPECT_NE(std::string(e.what()).find("frame limit"), std::string::npos)
        << e.what();
  }
  // An astronomically large count must not wrap the size estimate past
  // the guard (u64 overflow would otherwise wave 2^61 iterations through
  // into plan->run()).
  EXPECT_THROW((void)client.run(id, std::int64_t{1} << 61), RemoteError);

  // Refusal happened up front: nothing ran, and the connection survives.
  EXPECT_EQ(client.stats().runs_executed, 0u);
  const ExecutionResult r = client.run(id);
  EXPECT_TRUE(values_match(r, run_reference(gl.graph, gl.iterations),
                           gl.iterations));
}

TEST(PlanServer, ProgramIdsArePerConnection) {
  TestServer ts("ps_ids");
  const GeneratedLoop gl = generate_loop(93);
  PlanClient first = PlanClient::connect(ts.server.socket_path());
  const std::uint64_t id =
      first.submit_program(gl.program, gl.graph).program_id;
  PlanClient second = PlanClient::connect(ts.server.socket_path());
  // Shared-nothing registries: the first connection's id means nothing on
  // the second (the plan *cache* is shared; handles are not).
  EXPECT_THROW((void)second.run(id), RemoteError);
}

TEST(PlanServer, RestartsOnTheSamePathAfterStop) {
  const std::string name = "ps_restart";
  {
    TestServer ts(name);
    PlanClient c = PlanClient::connect(ts.server.socket_path());
    (void)c.stats();
  }  // ~TestServer: stop() + unlink
  TestServer again(name);
  PlanClient c = PlanClient::connect(again.server.socket_path());
  EXPECT_EQ(c.stats().connections_accepted, 1u);
}

TEST(PlanServer, StartRefusesALivePath) {
  TestServer ts("ps_duplicate");
  PlanServerOptions opts;
  opts.socket_path = ts.server.socket_path();
  opts.remove_existing = false;  // must NOT steal the live daemon's socket
  PlanServer second(opts);
  EXPECT_THROW(second.start(), std::runtime_error);
}

TEST(PlanServer, StartRequiresAtLeastOneListener) {
  PlanServer server{PlanServerOptions{}};  // no socket_path, no tcp_address
  EXPECT_THROW(server.start(), std::runtime_error);
}

// The wire protocol over TCP: same frames, same bit-exact results, plus
// both families served by ONE server sharing ONE cache.
TEST(PlanServer, TcpListenerServesTheSameProtocol) {
  TestServer ts("ps_tcp", [](PlanServerOptions& opts) {
    opts.tcp_address = "127.0.0.1:0";  // kernel-assigned, read back below
  });
  ASSERT_NE(ts.server.tcp_port(), 0);
  const std::string tcp_ep =
      "127.0.0.1:" + std::to_string(ts.server.tcp_port());

  const GeneratedLoop gl = generate_loop(101);
  const ExecutionResult seq = run_reference(gl.graph, gl.iterations);

  PlanClient over_tcp = PlanClient::connect(tcp_ep);
  const std::uint64_t id =
      over_tcp.submit_program(gl.program, gl.graph).program_id;
  EXPECT_TRUE(values_match(over_tcp.run(id), seq, gl.iterations));

  // A Unix-family client submitting a renamed copy hits the SAME cache:
  // one miss total across both socket families.
  PlanClient over_unix = PlanClient::connect(ts.server.socket_path());
  const Ddg renamed = renamed_copy(gl.graph, "tcp_");
  const std::uint64_t id2 =
      over_unix.submit_program(gl.program, renamed).program_id;
  EXPECT_TRUE(values_match(over_unix.run(id2), seq, gl.iterations));
  const wire::StatsReply stats = over_unix.stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

// A greedy connection hammering past the registry quota gets Error frames
// while a concurrent well-behaved connection stays bit-exact and
// unthrottled — the hostile-tenant isolation property.
TEST(PlanServer, RegistryQuotaThrottlesGreedyTenantOnly) {
  constexpr std::size_t kQuota = 4;
  TestServer ts("ps_quota_reg", [](PlanServerOptions& opts) {
    opts.max_programs_per_connection = kQuota;
    opts.max_quota_strikes = 0;  // quota errors only, never disconnect
  });

  std::atomic<int> failures{0};
  std::mutex log_mu;
  std::string log;

  std::thread good([&] {
    try {
      PlanClient client = PlanClient::connect(ts.server.socket_path());
      const GeneratedLoop gl = generate_loop(201);
      const ExecutionResult seq = run_reference(gl.graph, gl.iterations);
      for (int r = 0; r < 6; ++r) {
        // Well within quota: ONE registered program, repeatedly run.
        PlanClient fresh = PlanClient::connect(ts.server.socket_path());
        const std::uint64_t id =
            fresh.submit_program(gl.program, gl.graph).program_id;
        if (!values_match(fresh.run(id), seq, gl.iterations)) {
          ++failures;
          const std::lock_guard<std::mutex> lock(log_mu);
          log += "well-behaved run " + std::to_string(r) + ": mismatch\n";
        }
      }
    } catch (const std::exception& e) {
      ++failures;
      const std::lock_guard<std::mutex> lock(log_mu);
      log += std::string("well-behaved client: ") + e.what() + "\n";
    }
  });

  // The greedy tenant: submits far past the quota on one connection.
  PlanClient greedy = PlanClient::connect(ts.server.socket_path());
  std::uint64_t last_ok_id = 0;
  int refused = 0;
  for (std::uint64_t s = 0; s < kQuota + 6; ++s) {
    const GeneratedLoop gl = generate_loop(300 + s);
    try {
      last_ok_id = greedy.submit_program(gl.program, gl.graph).program_id;
    } catch (const RemoteError& e) {
      ++refused;
      EXPECT_NE(std::string(e.what()).find("registry quota"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(refused, 6);
  // The connection survives the refusals and still serves its registered
  // programs (strikes disabled).
  const GeneratedLoop last = generate_loop(300 + kQuota - 1);
  EXPECT_TRUE(values_match(greedy.run(last_ok_id),
                           run_reference(last.graph, last.iterations),
                           last.iterations));

  good.join();
  EXPECT_EQ(failures.load(), 0) << log;
  EXPECT_EQ(greedy.stats().registry_quota_trips, 6u);
}

// Frame-rate token bucket: burst 1 with a negligible refill rate (so the
// test stays deterministic under TSan's slowdown) — the second frame
// trips the quota, and `max_quota_strikes` over-quota replies later the
// connection is dropped (observable as EOF, counted in stats).
TEST(PlanServer, FrameRateQuotaStrikesOutRepeatOffenders) {
  TestServer ts("ps_quota_rate", [](PlanServerOptions& opts) {
    opts.max_frames_per_second = 0.001;  // ~one frame per 1000 s
    opts.frame_burst = 1.0;
    opts.max_quota_strikes = 2;
  });
  const GeneratedLoop gl = generate_loop(211);

  PlanClient flooder = PlanClient::connect(ts.server.socket_path());
  // Frame 1 spends the whole burst...
  const std::uint64_t id =
      flooder.submit_program(gl.program, gl.graph).program_id;
  // ...frames 2 and 3 trip the bucket (strike 1, strike 2)...
  for (int strike = 0; strike < 2; ++strike) {
    try {
      (void)flooder.run(id);
      FAIL() << "over-rate frame was not refused";
    } catch (const RemoteError& e) {
      EXPECT_NE(std::string(e.what()).find("frame-rate quota"),
                std::string::npos)
          << e.what();
    }
  }
  // ...and the second strike disconnected the offender.
  EXPECT_THROW((void)flooder.run(id), wire::WireError);

  // In-process stats (no connection, no token spent): both counters.
  const wire::StatsReply stats = ts.server.stats();
  EXPECT_EQ(stats.frame_quota_trips, 2u);
  EXPECT_EQ(stats.quota_disconnects, 1u);

  // A fresh connection gets a fresh bucket: one frame passes.
  PlanClient fresh = PlanClient::connect(ts.server.socket_path());
  (void)fresh.stats();
}

/// Temporarily clamps RLIMIT_NOFILE and exhausts the remaining fd table
/// (dup of /dev/null), restoring everything on destruction even if the
/// test body fails mid-way.
struct FdExhaustion {
  rlimit old{};
  std::vector<int> hoard;

  FdExhaustion() {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
    rlimit tight = old;
    tight.rlim_cur = 256;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
    const int devnull = ::open("/dev/null", O_RDONLY);
    EXPECT_GE(devnull, 0);
    if (devnull < 0) return;
    hoard.push_back(devnull);
    for (;;) {
      const int fd = ::dup(devnull);
      if (fd < 0) break;  // EMFILE: the table is full
      hoard.push_back(fd);
    }
  }
  void release() {
    for (const int fd : hoard) ::close(fd);
    hoard.clear();
    (void)::setrlimit(RLIMIT_NOFILE, &old);
  }
  ~FdExhaustion() { release(); }
};

// The accept loop must survive transient fd exhaustion: EMFILE on
// accept() means back off and retry, NOT silently abandon the listener
// (the pre-fix behavior this test regresses against).
TEST(PlanServer, AcceptLoopSurvivesFdExhaustion) {
  TestServer ts("ps_emfile", [](PlanServerOptions& opts) {
    opts.accept_backoff_initial_ms = 5;
    opts.accept_backoff_max_ms = 40;
  });

  // The victim connection is CREATED before exhaustion (it needs an fd),
  // then connect()ed during it — the handshake lands in the listen
  // backlog, so the server's accept() is what hits EMFILE.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const sockaddr_un addr = wire::make_unix_addr(ts.server.socket_path());
  {
    FdExhaustion exhaust;
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // In-process stats need no fd: watch the accept loop hit EMFILE and
    // back off instead of exiting.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (ts.server.stats().accept_backoffs == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "accept loop never reported a backoff";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    exhaust.release();
  }

  // With fds released, the retry must accept the queued connection and
  // serve it normally — the listener survived.
  const GeneratedLoop gl = generate_loop(222);
  wire::SubmitProgramRequest sub;
  sub.program = gl.program;
  sub.graph = gl.graph;
  wire::write_frame(fd, wire::FrameType::SubmitProgram, 1,
                    wire::encode_submit_program(sub));
  const auto reply = wire::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, wire::FrameType::SubmitProgramReply);
  const std::uint64_t id =
      wire::decode_submit_program_reply(reply->payload).program_id;
  wire::RunRequest run;
  run.program_id = id;
  wire::write_frame(fd, wire::FrameType::Run, 2, wire::encode_run(run));
  const auto run_reply = wire::read_frame(fd);
  ASSERT_TRUE(run_reply.has_value());
  ASSERT_EQ(run_reply->type, wire::FrameType::RunReply);
  EXPECT_TRUE(values_match(wire::decode_run_reply(run_reply->payload),
                           run_reference(gl.graph, gl.iterations),
                           gl.iterations));
  ::close(fd);
  EXPECT_GE(ts.server.stats().accept_backoffs, 1u);
}

// Pipelined traffic: a burst of async runs with wildly uneven costs,
// issued back-to-back on ONE connection.  The heavy request goes first,
// so on the server's handler pool the light replies overtake it — every
// future must still resolve to ITS OWN program's bit-exact result (the
// demux-by-request-id property; in-order replies would pass this
// vacuously, overtaking replies make it a real test).
TEST(PlanServer, PipelinedOutOfOrderRepliesLandOnTheRightFutures) {
  TestServer ts("ps_pipeline");
  PlanClient client = PlanClient::connect(ts.server.socket_path());

  constexpr std::uint64_t kStructures = 6;
  std::vector<GeneratedLoop> loops;
  std::vector<ExecutionResult> refs;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t s = 0; s < kStructures; ++s) {
    loops.push_back(generate_loop(401 + s));
    refs.push_back(run_reference(loops.back().graph, loops.back().iterations));
    ids.push_back(
        client.submit_program(loops[s].program, loops[s].graph).program_id);
  }

  std::vector<std::future<ExecutionResult>> futs;
  std::vector<std::size_t> which;
  for (int r = 0; r < 24; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) % loops.size();
    wire::RemoteRunOptions opts;
    // First request is deliberately expensive; the rest are cheap and
    // overtake it on the handler pool.
    opts.work_per_cycle = r == 0 ? 2000 : 0;
    futs.push_back(client.run_async(ids[i], 0, opts));
    which.push_back(i);
  }
  for (std::size_t k = 0; k < futs.size(); ++k) {
    const std::size_t i = which[k];
    EXPECT_TRUE(values_match(futs[k].get(), refs[i], loops[i].iterations))
        << "request " << k << " (" << loops[i].tag << ")";
  }
}

/// Threads in this process right now (/proc/self/task entries).
std::size_t count_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// The event-loop architecture's headline invariant: server threads are
// O(handler pool), not O(connections).  Thirty-two idle raw connections
// must not add a single thread.
TEST(PlanServer, ThreadCountIsIndependentOfConnectionCount) {
  constexpr int kConnections = 32;
  TestServer ts("ps_threads", [](PlanServerOptions& opts) {
    opts.handler_threads = 2;
  });
  const sockaddr_un addr = wire::make_unix_addr(ts.server.socket_path());

  const std::size_t before = count_threads();
  std::vector<int> fds;
  for (int i = 0; i < kConnections; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    fds.push_back(fd);
  }
  // Wait until the event loop has actually accepted all of them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.server.stats().connections_active <
         static_cast<std::uint64_t>(kConnections)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server never accepted all raw connections";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(count_threads(), before)
      << "accepting " << kConnections << " connections grew the thread count";
  for (const int fd : fds) ::close(fd);
}

// DropProgram end-to-end: the id stops resolving, the registry quota slot
// is actually freed, and dropping garbage ids is an Error frame — not a
// disconnect.
TEST(PlanServer, DropProgramFreesTheRegistrySlot) {
  constexpr std::size_t kQuota = 2;
  TestServer ts("ps_drop", [](PlanServerOptions& opts) {
    opts.max_programs_per_connection = kQuota;
    opts.max_quota_strikes = 0;
  });
  PlanClient client = PlanClient::connect(ts.server.socket_path());
  const GeneratedLoop a = generate_loop(431);
  const GeneratedLoop b = generate_loop(432);
  const GeneratedLoop c = generate_loop(433);
  const std::uint64_t id_a =
      client.submit_program(a.program, a.graph).program_id;
  (void)client.submit_program(b.program, b.graph);

  // Quota full: a third submit is refused...
  EXPECT_THROW((void)client.submit_program(c.program, c.graph), RemoteError);
  // ...dropping one frees the slot...
  client.drop_program(id_a);
  const std::uint64_t id_c =
      client.submit_program(c.program, c.graph).program_id;
  // ...the dropped id no longer resolves...
  EXPECT_THROW((void)client.run(id_a), RemoteError);
  // ...double-drop and garbage ids are typed errors, connection intact...
  EXPECT_THROW(client.drop_program(id_a), RemoteError);
  EXPECT_THROW(client.drop_program(999999), RemoteError);
  // ...and the freed-slot program actually runs.
  EXPECT_TRUE(values_match(client.run(id_c),
                           run_reference(c.graph, c.iterations),
                           c.iterations));
}

// Ping/Pong heartbeat frames.  A connection gets its Pong inline from
// the event loop — no worker-pool round trip — echoing the request id
// with an empty payload; the connection stays fully usable afterwards.
TEST(PlanServer, PingAnsweredInlineWithPongOnV2) {
  TestServer ts("ps_ping");
  const sockaddr_un addr = wire::make_unix_addr(ts.server.socket_path());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  wire::write_frame(fd, wire::FrameType::Ping, 77, {});
  const auto pong = wire::read_frame(fd);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, wire::FrameType::Pong);
  EXPECT_EQ(pong->request_id, 77u);
  EXPECT_TRUE(pong->payload.empty());

  // Still a working connection: a Stats roundtrip succeeds after the Pong.
  wire::write_frame(fd, wire::FrameType::Stats, 78, {});
  const auto stats = wire::read_frame(fd);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->type, wire::FrameType::StatsReply);
  EXPECT_EQ(stats->request_id, 78u);
  ::close(fd);
}

}  // namespace
}  // namespace mimd
