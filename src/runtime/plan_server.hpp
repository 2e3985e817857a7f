// PlanServer — the long-lived plan-service daemon core: listening
// sockets (Unix-domain, TCP, or both — the wire framing is identical
// over either family), ONE epoll event loop owning every socket, a small
// handler pool executing decoded requests, and ONE shared PlanCache +
// WorkerPool behind all of them.  TCP is the scale-out face: N of these
// daemons form a fleet that a client-side ShardRouter
// (runtime/shard_router.hpp) consistent-hashes programs across, so
// identical loop structures always land on the same shard's warm cache.
//
// This is the ROADMAP's "long-lived server front end for the plan
// service": PR 4's cache/pool amortized compilation and thread startup
// across requests *within* a process; the server extends that across
// processes — any number of mimdc (or PlanClient) invocations hit the same
// warm cache and warm pool, so the paper's assumption that partitioning
// cost is paid once holds fleet-wide, not per-driver.  Cross-connection
// amortization is observable: the Stats frame reports cache hits/misses/
// evictions plus pool and connection counters.
//
// Event-loop design (PR 8, replacing thread-per-connection): the loop
// thread owns epoll, all nonblocking socket reads and writes, accept (with
// EMFILE backoff folded into the epoll timeout), partial-frame reassembly
// (wire::FrameBuffer), the per-connection token bucket, and Ping/Pong
// heartbeats (answered inline, so a Pong proves the loop itself is
// alive).  Decoded requests are dispatched onto `handler_threads` pool
// threads; runs still execute on the shared WorkerPool.  Handlers never
// touch sockets: a finished reply is appended to the connection's write
// queue and the loop is woken through an eventfd to flush it
// (writev-coalesced — pipelined connections get many frames per
// syscall).  So the thread count is O(handler pool), not O(connections).
//
// Per-connection state — registry, quota bucket, strikes, buffers — lives
// in one Connection object guarded by its own mutex (a connection may
// have several handlers in flight at once).  Requests dispatch freely and
// reply out of order, tagged with their request id.
//
// Backpressure: a connection with more than 8 MiB of replies unflushed,
// or with `max_pipeline_depth` requests already decoded-but-unanswered,
// has EPOLLIN dropped from its interest mask until it drains (below 1 MiB
// and the depth) — a slow reader stalls only itself, never the loop or
// another tenant.
//
// Graceful shutdown drains in-flight runs: stop() unregisters the
// listeners, then half-closes (SHUT_RD) every connection.  The loop keeps
// running: bytes already buffered are parsed and served, replies flushed,
// and each connection closes once it is EOF + idle + flushed.  Only then
// are the loop and handler threads joined and the socket file unlinked.  A
// Shutdown frame acks first, then requests the same stop from whichever
// thread is parked in wait() — a handler cannot run the teardown that
// joins it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/plan_cache.hpp"
#include "runtime/plan_service.hpp"
#include "runtime/wire.hpp"
#include "runtime/worker_pool.hpp"

namespace mimd {

struct PlanServerOptions {
  /// Filesystem path to bind (sun_path limits apply, ~107 bytes).  Empty
  /// = no Unix listener (then tcp_address must be set).
  std::string socket_path;
  /// TCP listen address, "host:port" (port 0 = kernel-assigned, reported
  /// back via tcp_port()).  Empty = no TCP listener.
  std::string tcp_address;
  std::size_t cache_capacity = PlanCache::kDefaultCapacity;
  /// Pre-warmed pool workers (the pool still grows on demand).
  std::size_t initial_workers = 0;
  /// Unlink a pre-existing socket file before binding.  Off by default so
  /// two daemons cannot silently fight over one path.
  bool remove_existing = false;
  /// Background-JIT registered plans to native kernels, each once its
  /// interpreted runs have taken a compile's time (PlanCache's rule;
  /// mimdd --jit=off turns this off).  ON by default: when
  /// the toolchain probe fails the
  /// cache degrades to interpreted-only, identical to off — so the
  /// default is safe everywhere and fast where the host allows it.
  bool enable_jit = true;

  /// Request-handler pool size; 0 = auto (a small pool — requests block a
  /// handler only for their own compile/run, the loop never blocks).
  /// This, plus the loop, is the server's whole thread bill regardless of
  /// connection count.
  std::size_t handler_threads = 0;

  // -- Hostile-tenant quotas (per connection; 0 disables a quota) --------
  //
  // A TCP listener means tenants the operator does not control; these
  // bound what any ONE connection can cost the shared halves.  Over-quota
  // requests get an Error frame (the connection survives, so a client
  // that backs off recovers); a connection that keeps violating past
  // `max_quota_strikes` is disconnected.  Defaults are far above anything
  // a well-behaved client does (mimdc --batch submits ~1 frame per loop
  // file) while still bounding a hostile flood.

  /// Programs one connection may hold registered at once.  Each entry
  /// pins a shared_ptr'd plan in memory even after cache eviction, so an
  /// unbounded registry lets one tenant hold the whole cache's worth of
  /// dead plans alive.  DropProgram releases entries explicitly.
  std::size_t max_programs_per_connection = 4096;
  /// Sustained frame-rate cap, token-bucket enforced: a connection may
  /// burst `frame_burst` frames, then refills at this rate.
  double max_frames_per_second = 10000.0;
  double frame_burst = 1000.0;
  /// Over-quota Error frames tolerated before the connection is dropped.
  int max_quota_strikes = 8;

  // -- Event-loop backpressure -------------------------------------------
  /// Decoded-but-unanswered requests one connection may have in flight
  /// before the loop stops reading it — bounds what a pipelining tenant
  /// can queue into the handler pool.
  std::size_t max_pipeline_depth = 256;

  // -- Accept resource-exhaustion backoff --------------------------------
  /// On EMFILE/ENFILE (fd exhaustion — someone leaked or flooded), the
  /// listener is unregistered from the loop and re-armed after a backoff
  /// (folded into the epoll timeout; the loop never sleeps); the backoff
  /// doubles from initial to max while exhaustion persists.
  int accept_backoff_initial_ms = 10;
  int accept_backoff_max_ms = 1000;
};

class PlanServer {
 public:
  explicit PlanServer(PlanServerOptions opts);
  /// stop()s if still running.
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Bind + listen + spawn the event loop and handler pool.  Throws
  /// std::runtime_error on any socket failure (path too long, already
  /// bound, ...).  After start() returns, connections are accepted (or
  /// queued in the backlog).
  void start();

  /// Ask the server to stop, from any thread — including a handler (the
  /// Shutdown frame) or a signal-watching thread.  Returns immediately;
  /// the actual teardown happens in stop().
  void request_stop();

  /// Block until request_stop() is called (by a Shutdown frame, a signal
  /// watcher, or anyone else).
  void wait();

  /// Full graceful teardown: stop accepting, drain in-flight requests,
  /// join every thread, unlink the socket file.  Idempotent.  Must not be
  /// called from a handler thread (wait()-then-stop() from the owning
  /// thread is the intended shape; the destructor also calls it).
  void stop();

  [[nodiscard]] const std::string& socket_path() const {
    return opts_.socket_path;
  }
  /// The TCP port actually bound (resolves ":0" requests to the kernel's
  /// pick).  0 when no TCP listener was configured or before start().
  [[nodiscard]] std::uint16_t tcp_port() const;
  [[nodiscard]] bool running() const;

  /// Everything the Stats frame reports, read once; the frame encodes
  /// exactly this record.
  [[nodiscard]] wire::StatsReply stats() const;

  /// The shared halves, exposed for in-process tests and benches.
  [[nodiscard]] PlanCache& cache() { return cache_; }
  [[nodiscard]] WorkerPool& pool() { return pool_; }

 private:
  struct Connection;  // sockets + buffers + registry; plan_server.cpp

  struct Listener {
    int fd = -1;
    bool is_tcp = false;
    /// EMFILE backoff: while paused the fd is out of the epoll set and
    /// `resume_at` feeds the loop's wait timeout.
    bool paused = false;
    std::chrono::steady_clock::time_point resume_at{};
    std::chrono::milliseconds backoff{0};
  };

  /// One decoded request bound for (or inside) the handler pool.
  struct Task {
    std::shared_ptr<Connection> conn;
    wire::Frame frame;
    /// The loop already tripped the frame-rate quota for this frame: the
    /// handler answers with the quota Error and counts the strike.
    bool struck = false;
  };

  // -- event-loop side (loop thread only unless noted) -------------------
  void event_loop();
  void begin_drain();
  void handle_accept(Listener* listener);
  void handle_readable(const std::shared_ptr<Connection>& conn);
  void on_frame(const std::shared_ptr<Connection>& conn, wire::Frame frame);
  void flush_locked(Connection& c);
  /// Recompute read backpressure (write-queue watermarks + pipeline
  /// depth, with hysteresis); returns the new paused state.
  bool update_pause_locked(Connection& c);
  void update_interest_locked(Connection& c);
  void maybe_close(const std::shared_ptr<Connection>& conn);
  void handle_kicks();

  // -- handler side ------------------------------------------------------
  void handler_loop();
  void process_task(Task& task);
  void enqueue_task(Task task);           // any thread
  void kick(std::shared_ptr<Connection> conn);  // any thread

  PlanServerOptions opts_;
  PlanCache cache_;
  WorkerPool pool_;

  std::vector<std::unique_ptr<Listener>> listeners_;
  std::uint16_t tcp_port_ = 0;

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread loop_thread_;
  std::vector<std::thread> handler_pool_;

  /// Loop-thread-only: live connections by fd.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  std::mutex task_mu_;
  std::condition_variable task_cv_;
  std::deque<Task> tasks_;
  bool tasks_stopped_ = false;

  std::mutex kick_mu_;
  std::vector<std::shared_ptr<Connection>> kicked_;

  std::atomic<bool> draining_{false};
  bool drain_started_ = false;  ///< loop thread only

  mutable std::mutex lifecycle_mu_;
  std::condition_variable stop_cv_;
  bool started_ = false;
  bool stop_requested_ = false;
  bool stopped_ = false;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> programs_registered_{0};
  std::atomic<std::uint64_t> runs_executed_{0};
  std::atomic<std::uint64_t> frame_quota_trips_{0};
  std::atomic<std::uint64_t> registry_quota_trips_{0};
  std::atomic<std::uint64_t> quota_disconnects_{0};
  std::atomic<std::uint64_t> accept_backoffs_{0};
  /// Every run's tier; stats() reports the native/interpreted split only
  /// while JIT is live, so --jit=off keeps every jit stat at zero.
  RunCounters runs_;
};

}  // namespace mimd
