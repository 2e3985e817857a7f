// Fault-injection suite: a FaultProxy (tests/support/fault_proxy.hpp)
// sits between client and daemon and delays, truncates mid-frame, or
// refuses connections per plan.  The contract under test: every injected
// transport fault surfaces as a TYPED error (wire::WireError) or as
// transparent ShardRouter failover — never a hang, never a crash, never a
// silently wrong result.  Results that do arrive stay bit-exact.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/plan_client.hpp"
#include "runtime/plan_server.hpp"
#include "runtime/shard_router.hpp"
#include "support/fault_proxy.hpp"
#include "support/loop_gen.hpp"

namespace mimd {
namespace {

using test::FaultPlan;
using test::FaultProxy;
using test::scripted_plan;
using testsupport::GeneratedLoop;
using testsupport::generate_loop;

std::string temp_socket(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  return dir + name + ".sock";
}

/// A real server on a Unix socket with a fault proxy in front of it; the
/// client-facing endpoint is proxy.endpoint().
struct ProxiedServer {
  PlanServer server;
  FaultProxy proxy;

  explicit ProxiedServer(const std::string& name)
      : server([&] {
          PlanServerOptions opts;
          opts.socket_path = temp_socket(name);
          opts.remove_existing = true;
          return opts;
        }()),
        proxy((server.start(), server.socket_path())) {}
  ~ProxiedServer() {
    proxy.stop();
    server.stop();
  }
};

TEST(FaultInjection, DelayedReplyBecomesAClientTimeoutNotAHang) {
  ProxiedServer ps("fi_timeout");
  FaultPlan slow;
  slow.delay_ms = 1500;
  ps.proxy.set_plan(slow);
  // SO_RCVTIMEO far below the injected delay: the Stats roundtrip must
  // surface as a typed timeout, not block the test forever.
  PlanClient client = PlanClient::connect(ps.proxy.endpoint(),
                                          /*timeout_ms=*/200);
  EXPECT_THROW((void)client.stats(), wire::WireError);
}

TEST(FaultInjection, ReplyTruncatedMidFrameThrowsTyped) {
  ProxiedServer ps("fi_cut_reply");
  FaultPlan cut;
  // A SubmitProgramReply is a 13-byte header + 28-byte payload; cutting
  // after 3 bytes guarantees the length prefix itself is torn.
  cut.close_after_server_bytes = 3;
  ps.proxy.set_plan(cut);
  PlanClient client = PlanClient::connect(ps.proxy.endpoint(),
                                          /*timeout_ms=*/10000);
  const GeneratedLoop gl = generate_loop(501);
  EXPECT_THROW((void)client.submit_program(gl.program, gl.graph),
               wire::WireError);
}

TEST(FaultInjection, RequestTruncatedMidFrameThrowsTyped) {
  ProxiedServer ps("fi_cut_req");
  FaultPlan cut;
  cut.close_after_client_bytes = 7;  // inside the first 13-byte header
  ps.proxy.set_plan(cut);
  PlanClient client = PlanClient::connect(ps.proxy.endpoint(),
                                          /*timeout_ms=*/10000);
  const GeneratedLoop gl = generate_loop(502);
  // The server sees a torn frame and drops the connection; the client's
  // pending read must resolve to a typed error either way.
  EXPECT_THROW((void)client.submit_program(gl.program, gl.graph),
               wire::WireError);
}

TEST(FaultInjection, ClientReconnectsCleanlyAfterAFault) {
  ProxiedServer ps("fi_reconnect");
  const GeneratedLoop gl = generate_loop(503);
  const ExecutionResult seq = run_reference(gl.graph, gl.iterations);

  FaultPlan cut;
  cut.close_after_server_bytes = 3;
  ps.proxy.set_plan(cut);
  {
    PlanClient doomed = PlanClient::connect(ps.proxy.endpoint(),
                                            /*timeout_ms=*/10000);
    EXPECT_THROW((void)doomed.submit_program(gl.program, gl.graph),
                 wire::WireError);
  }
  // Fault cleared: a fresh connection through the same proxy works and
  // the SERVER survived the torn conversation (same shared cache).
  ps.proxy.set_plan(FaultPlan{});
  PlanClient fresh = PlanClient::connect(ps.proxy.endpoint(),
                                         /*timeout_ms=*/10000);
  const std::uint64_t id =
      fresh.submit_program(gl.program, gl.graph).program_id;
  EXPECT_TRUE(values_match(fresh.run(id), seq, gl.iterations));
}

TEST(FaultInjection, RefusedConnectionIsTypedAtFirstUse) {
  ProxiedServer ps("fi_refuse");
  FaultPlan refuse;
  refuse.refuse = true;
  ps.proxy.set_plan(refuse);
  // The TCP handshake lands in the proxy's backlog, so connect() itself
  // succeeds; the refusal must surface as a typed error on first use.
  try {
    PlanClient client = PlanClient::connect(ps.proxy.endpoint(),
                                            /*timeout_ms=*/10000);
    (void)client.stats();
    FAIL() << "refused connection produced a reply";
  } catch (const wire::WireError&) {
    // expected
  }
}

// A mid-pipeline cut: the submit succeeds, then the reply stream is torn
// 5 bytes into the FIRST run reply.  Replies are one ordered stream, so
// the cut orphans every outstanding future — each must fail with a typed
// WireError (shared fate), none may hang.
TEST(FaultInjection, MidPipelineTruncationFailsAllOutstandingFutures) {
  ProxiedServer ps("fi_pipe_cut");
  FaultPlan cut;
  // SubmitProgramReply is 41 bytes (13 + 28).  Cutting at 46 tears the
  // first run reply mid-header.
  cut.close_after_server_bytes = 46;
  ps.proxy.set_plan(cut);
  PlanClient client = PlanClient::connect(ps.proxy.endpoint(),
                                          /*timeout_ms=*/10000);
  const GeneratedLoop gl = generate_loop(541);
  const std::uint64_t id =
      client.submit_program(gl.program, gl.graph).program_id;
  std::vector<std::future<ExecutionResult>> futs;
  for (int r = 0; r < 6; ++r) futs.push_back(client.run_async(id));
  for (auto& f : futs) EXPECT_THROW((void)f.get(), wire::WireError);
  // The connection is dead, and says so immediately — no hang.
  EXPECT_THROW((void)client.run(id), wire::WireError);
}

// A reply carrying a request id that was never issued is a protocol
// violation the client cannot recover from (the stream may be
// desynchronized): typed WireError, never a hang.  The only server that
// sends one is a broken server, so the test hand-rolls a bogus one.
TEST(FaultInjection, UnknownRequestIdIsATypedErrorNotAHang) {
  const auto [lfd, port] = wire::listen_tcp("127.0.0.1", 0, 4);
  std::thread bogus([lfd = lfd] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    try {
      const auto req = wire::read_frame(fd);
      if (req.has_value()) {
        // Right type, WRONG id: the client never issued req_id + 1000.
        wire::write_frame(fd, wire::FrameType::StatsReply,
                          req->request_id + 1000,
                          wire::encode_stats_reply(wire::StatsReply{}));
      }
    } catch (const wire::WireError&) {
    }
    std::uint8_t b = 0;
    (void)::recv(fd, &b, 1, 0);  // linger until the client hangs up
    ::close(fd);
  });
  {
    PlanClient client = PlanClient::connect(
        "127.0.0.1:" + std::to_string(port), /*timeout_ms=*/10000);
    EXPECT_THROW((void)client.stats(), wire::WireError);
  }
  bogus.join();
  ::close(lfd);
}

// A stalled (live but silent) connection: the proxy forwards no reply
// bytes at all — without closing.  No EOF ever arrives, so only the
// pipelined reply deadline can save the caller: the future must time out
// typed, not wait forever.
TEST(FaultInjection, StalledPipelineHitsTheReplyDeadlineNotAHang) {
  ProxiedServer ps("fi_stall");
  FaultPlan stall;
  stall.stall_after_server_bytes = 0;  // the submit's reply never arrives
  ps.proxy.set_plan(stall);
  PlanClient client = PlanClient::connect(ps.proxy.endpoint(),
                                          /*timeout_ms=*/200);
  const GeneratedLoop gl = generate_loop(542);
  auto fut = client.submit_program_async(gl.program, gl.graph);
  EXPECT_THROW((void)fut.get(), wire::WireError);
}

// The gap the reply deadline leaves open: it only arms with a request in
// flight, so a server that wedges while the client is IDLE used to go
// unnoticed until the next submit burned its own timeout.  The client
// closes it with a heartbeat — every idle timeout_ms it Pings, the Pong
// becomes an ordinary owed reply, and the same deadline math converts a
// silent server into typed transport death with NOTHING outstanding.
TEST(FaultInjection, IdleHeartbeatDetectsAWedgedServerNothingOutstanding) {
  ProxiedServer ps("fi_idle_stall");
  FaultPlan stall;
  stall.stall_after_server_bytes = 13;  // exactly negotiate()'s Pong
  ps.proxy.set_plan(stall);
  PlanClient client = PlanClient::connect(ps.proxy.endpoint(),
                                          /*timeout_ms=*/150);
  client.negotiate();
  ASSERT_TRUE(client.transport_error().empty());

  // No request is ever submitted.  One idle period arms the Ping, one
  // reply budget expires it; poll well past both (20x) before declaring
  // the detection missing.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(6);
  while (client.transport_error().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(client.transport_error().find("timed out"), std::string::npos)
      << "idle client never noticed the wedged server: '"
      << client.transport_error() << "'";
  // And the death is already decided: the next call fails fast, typed.
  EXPECT_THROW((void)client.stats(), wire::WireError);
}

// ShardRouter + faults: a shard whose replies are being truncated is a
// transport death — the router must fail the jobs OVER to the healthy
// shard, transparently and bit-exactly.
TEST(FaultInjection, ShardRouterFailsOverAwayFromFaultyShard) {
  ProxiedServer faulty("fi_router_faulty");
  PlanServerOptions healthy_opts;
  healthy_opts.socket_path = temp_socket("fi_router_healthy");
  healthy_opts.remove_existing = true;
  PlanServer healthy(healthy_opts);
  healthy.start();

  FaultPlan cut;
  cut.close_after_server_bytes = 3;
  faulty.proxy.set_plan(cut);

  ShardRouterOptions opts;
  opts.endpoints = {faulty.proxy.endpoint(), healthy.socket_path()};
  opts.timeout_ms = 10000;
  opts.connect_attempts = 1;
  opts.dead_cooldown_ms = 60'000;
  ShardRouter router(opts);

  std::vector<ShardJob> jobs;
  std::vector<GeneratedLoop> loops;
  for (std::uint64_t seed = 511; seed <= 522; ++seed) {
    loops.push_back(generate_loop(seed));
    ShardJob job;
    job.program = loops.back().program;
    job.graph = loops.back().graph;
    job.iterations = 0;
    jobs.push_back(std::move(job));
  }
  const std::vector<ExecutionResult> results = router.run_jobs(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(values_match(results[i],
                             run_reference(loops[i].graph, loops[i].iterations),
                             loops[i].iterations))
        << loops[i].tag;
  }
  // Every job was served by the healthy shard (directly, or after the
  // faulty shard's group was rerouted).
  EXPECT_EQ(healthy.stats().runs_executed, jobs.size());
  healthy.stop();
}

// The seeded chaos run: connection i gets scripted_plan(seed, i) — a
// reproducible mix of clean passes, refusals, and truncations.  Every
// attempt must end in a bit-exact result or a typed WireError; the tally
// proves both arms actually executed.
TEST(FaultInjection, SeededFaultScriptNeverHangsOrCorrupts) {
  constexpr std::uint64_t kSeed = 0xfa1u;
  constexpr std::uint64_t kConnections = 24;
  ProxiedServer ps("fi_script");
  const GeneratedLoop gl = generate_loop(530);
  const ExecutionResult seq = run_reference(gl.graph, gl.iterations);

  std::uint64_t clean = 0, faulted = 0;
  for (std::uint64_t i = 0; i < kConnections; ++i) {
    ps.proxy.set_plan(scripted_plan(kSeed, i));
    try {
      PlanClient client = PlanClient::connect(ps.proxy.endpoint(),
                                              /*timeout_ms=*/10000);
      const std::uint64_t id =
          client.submit_program(gl.program, gl.graph).program_id;
      const ExecutionResult r = client.run(id);
      ASSERT_TRUE(values_match(r, seq, gl.iterations))
          << "conn " << i << " returned a corrupt result";
      ++clean;
    } catch (const wire::WireError&) {
      ++faulted;  // typed, as promised
    }
  }
  EXPECT_EQ(clean + faulted, kConnections);
  EXPECT_GT(clean, 0u) << "script never let a clean run through";
  EXPECT_GT(faulted, 0u) << "script never injected a fault";

  // After the chaos: the daemon is intact and serves a direct client.
  PlanClient direct = PlanClient::connect(ps.server.socket_path());
  const std::uint64_t id =
      direct.submit_program(gl.program, gl.graph).program_id;
  EXPECT_TRUE(values_match(direct.run(id), seq, gl.iterations));
}

}  // namespace
}  // namespace mimd
