// PlanClient — the client half of the mimdd wire protocol: a connected
// stream socket (Unix-domain or TCP, named by a wire::Endpoint string)
// plus typed request/reply calls mirroring the in-process plan-service
// API.  mimdc --connect routes the one-shot driver through this;
// ShardRouter owns one per shard (and drives mimdc --batch, over --fleet
// or a single --connect endpoint); tests/test_plan_server.cpp uses it to
// hammer an in-process server from many threads.
//
// Usage:
//     PlanClient c = PlanClient::connect("/run/mimdd.sock");
//     PlanClient t = PlanClient::connect("127.0.0.1:7070");   // TCP shard
//     const auto sub = c.submit_program(program, graph);
//     const ExecutionResult r = c.run(sub.program_id, iterations);
//
// Pipelining: every *_async call assigns a request id, registers a
// pending future, writes the frame, and returns immediately, while one
// reader thread (started by connect()) demuxes replies by id — they may
// arrive in any order.  The blocking API above is the async API plus
// .get().  The futures are deferred: get() (or wait()) waits for the
// reply and decodes it — or builds the RemoteError / wire::WireError —
// on the calling thread, so the reader thread never shares an exception
// object with a caller; wait_for() and wait_until() return
// std::future_status::deferred without waiting.
//
// Threading: a PlanClient is safe for concurrent calls from many threads
// (writes are serialized, replies demuxed by id).
//
// Errors: server-reported failures (ill-formed program, unknown id, bad
// iteration count) throw RemoteError carrying the server's message;
// transport-level failures (daemon gone, truncated frame, SO_RCVTIMEO
// expiry, a reply carrying an id that was never issued) throw
// wire::WireError — from the blocking calls directly, from the async
// calls via the returned future.  A transport failure fails EVERY
// outstanding future: replies are a single ordered stream, so one lost
// byte orphans everything behind it.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/wire.hpp"

namespace mimd {

/// A failure the *server* reported via an Error frame (as opposed to a
/// transport failure, which is wire::WireError).
class RemoteError : public std::runtime_error {
 public:
  explicit RemoteError(const std::string& what) : std::runtime_error(what) {}
};

class PlanClient {
 public:
  /// Connect to a mimdd endpoint — any form wire::parse_endpoint accepts
  /// ("path", "unix:path", "host:port", "tcp:host:port").  `timeout_ms` >
  /// 0 arms SO_RCVTIMEO / SO_SNDTIMEO and bounds how long any reply may
  /// be outstanding, so a hung daemon surfaces as wire::WireError("receive
  /// timed out") instead of blocking forever; it also arms the idle
  /// heartbeat: an idle client Pings the server every timeout_ms and
  /// treats a missing Pong as transport death, so a wedged daemon is
  /// detected with no request in flight.  Throws wire::WireError if the
  /// endpoint cannot be reached.  connect() never waits for a reply, so
  /// an unresponsive peer behind a successful socket connect surfaces as
  /// a typed error at first use (or at negotiate()).
  static PlanClient connect(const std::string& endpoint, int timeout_ms = 0);

  PlanClient();
  ~PlanClient();
  PlanClient(PlanClient&& other) noexcept;
  PlanClient& operator=(PlanClient&& other) noexcept;
  PlanClient(const PlanClient&) = delete;
  PlanClient& operator=(const PlanClient&) = delete;

  [[nodiscard]] bool connected() const;
  void close();

  /// One Ping/Pong round trip: proves the peer answers before the first
  /// real request.  Throws wire::WireError on a dead or unresponsive peer
  /// (the latter only when connect() armed a timeout).
  void negotiate();

  /// Non-empty once the transport has failed (reply deadline, heartbeat
  /// timeout, torn stream): the reason every subsequent call will throw.
  /// Empty while the connection is healthy.
  [[nodiscard]] std::string transport_error() const;

  /// Register a program; the reply's program_id names it in run() /
  /// drop_program() on THIS connection.  Compilation is served from the
  /// daemon's shared cache, so a structurally identical program submitted
  /// on any connection compiles once.
  wire::SubmitProgramReply submit_program(const PartitionedProgram& program,
                                          const Ddg& graph,
                                          const CompileOptions& copts = {});
  std::future<wire::SubmitProgramReply> submit_program_async(
      const PartitionedProgram& program, const Ddg& graph,
      const CompileOptions& copts = {});

  /// Execute a registered program on the daemon's shared worker pool.
  /// `iterations` is 0 (= its compiled count) or exactly that count;
  /// anything else is a RemoteError.  To run many programs, issue
  /// run_async per program and gather the futures: the server executes
  /// pipelined Run frames concurrently across its handler pool.
  ExecutionResult run(std::uint64_t program_id, std::int64_t iterations = 0,
                      const wire::RemoteRunOptions& opts = {});
  std::future<ExecutionResult> run_async(
      std::uint64_t program_id, std::int64_t iterations = 0,
      const wire::RemoteRunOptions& opts = {});

  /// Evict one registered program id from this connection's registry on
  /// the server (frees the pinned plan; the id becomes invalid).
  void drop_program(std::uint64_t program_id);
  std::future<std::uint64_t> drop_program_async(std::uint64_t program_id);

  /// Daemon-wide counters: cache hits/misses/evictions, pool size,
  /// connections, runs — the observability window onto cross-connection
  /// amortization.  The async form doubles as the cheapest pipelined
  /// probe: near-zero server work, so a burst of these measures the wire
  /// and event loop themselves (bench/bench_connections.cpp).
  wire::StatsReply stats();
  std::future<wire::StatsReply> stats_async();

  /// Graceful daemon shutdown: returns once the server has acked; the
  /// daemon then drains in-flight runs on other connections and exits.
  void shutdown_server();

 private:
  struct Impl;

  /// Type-erased async core: register a pending reply slot, write the
  /// request, and complete the future via the decode callback when the
  /// reader thread sees the reply.  Defined in plan_client.cpp.
  template <typename T>
  std::future<T> submit_typed(wire::FrameType request,
                              wire::FrameType expected_reply,
                              std::vector<std::uint8_t> payload,
                              T (*decode)(const std::vector<std::uint8_t>&));

  std::unique_ptr<Impl> impl_;
};

}  // namespace mimd
