#include "runtime/plan_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "runtime/executor.hpp"
#include "runtime/plan_service.hpp"
#include "runtime/wire.hpp"

namespace mimd {

namespace {

/// listen(2) backlog of every listener.
constexpr int kListenBacklog = 64;
/// Stop reading a connection whose un-flushed reply bytes exceed the high
/// watermark; resume below the low one (hysteresis, so a slow reader does
/// not flap the interest mask per frame).
constexpr std::size_t kWriteHighWatermark = 8u << 20;
constexpr std::size_t kWriteLowWatermark = 1u << 20;

/// Size a run's result on the wire: the result matrix (nodes x
/// iterations doubles) plus per-row/message overhead.  Overflow-proof —
/// decode_run accepts any i64 iteration count, and a wrapped estimate
/// would wave a 2^61-iteration request straight past the guard into
/// plan->run(): saturate instead of multiplying once a single row
/// already exceeds any frame.
[[nodiscard]] std::uint64_t estimated_result_bytes(const ExecutorPlan& plan,
                                                   std::int64_t n) {
  const std::uint64_t nodes = plan.graph().num_nodes();
  const std::uint64_t un = n > 0 ? static_cast<std::uint64_t>(n) : 0;
  if (nodes > 0 && un > wire::kMaxFramePayload / sizeof(double)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return nodes * (un * sizeof(double) + 4) + 64;
}

/// Refuse a request whose reply could not be shipped back in one frame
/// BEFORE executing it: a completed-then-undeliverable run would waste
/// the compute and then drop the connection at the write.
void check_reply_fits_frame(std::uint64_t estimated_bytes) {
  if (estimated_bytes > wire::kMaxFramePayload) {
    throw wire::WireError(
        "reply would exceed the " +
        std::to_string(wire::kMaxFramePayload >> 20) +
        " MiB frame limit (~" + std::to_string(estimated_bytes >> 20) +
        " MiB of results); request fewer iterations");
  }
}

/// A request refused by a per-connection quota — distinguished from other
/// request failures so the handler can count a strike and, past the
/// strike limit, disconnect the offender.
class QuotaViolation : public std::runtime_error {
 public:
  explicit QuotaViolation(const std::string& what)
      : std::runtime_error(what) {}
};

RunOptions to_run_options(const wire::RemoteRunOptions& o, WorkerPool* pool) {
  RunOptions r;
  r.pin_threads = o.pin_threads;
  r.kernel.work_per_cycle = o.work_per_cycle;
  r.pool = pool;
  return r;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// Everything one accepted socket owns.  The event loop is the only
/// thread that touches the fd, the read buffer, and the token bucket; the
/// mutex guards what loop and handlers share: the write queue, the
/// program registry, dispatch bookkeeping, and the close flags.  Handlers
/// never see the socket — their output is bytes on `wqueue` plus a kick.
struct PlanServer::Connection {
  int fd = -1;

  // -- loop thread only --------------------------------------------------
  wire::FrameBuffer rbuf;
  bool read_closed = false; ///< EOF (or fatal read error) seen
  std::uint32_t armed = 0;  ///< epoll interest mask currently installed
  double tokens = 0.0;      ///< frame-rate token bucket
  std::chrono::steady_clock::time_point last_refill{};

  // -- shared with handlers (guarded by mu) ------------------------------
  std::mutex mu;
  std::deque<std::vector<std::uint8_t>> wqueue;
  std::size_t wqueue_bytes = 0;
  std::size_t woffset = 0;     ///< sent prefix of wqueue.front()
  bool write_dead = false;     ///< send failed: nothing further deliverable
  bool closing = false;        ///< stop reading; close once idle + flushed
  bool closed = false;         ///< torn down, fd gone
  bool read_paused = false;    ///< backpressure dropped EPOLLIN
  int in_flight = 0;           ///< tasks dispatched to handlers
  std::unordered_map<std::uint64_t, PlanCache::CachedPlan> programs;
  std::uint64_t next_id = 1;
  std::size_t registry_reserved = 0;  ///< submits admitted but not landed
  int strikes = 0;
  bool counted_quota_disconnect = false;
};

PlanServer::PlanServer(PlanServerOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_capacity,
             PlanCache::JitConfig{opts_.enable_jit, JitOptions{}}),
      pool_(opts_.initial_workers) {}

PlanServer::~PlanServer() { stop(); }

void PlanServer::start() {
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (started_) throw std::runtime_error("PlanServer already started");
  }
  if (opts_.socket_path.empty() && opts_.tcp_address.empty()) {
    throw std::runtime_error(
        "PlanServer needs a Unix socket path, a TCP address, or both");
  }

  std::vector<std::unique_ptr<Listener>> listeners;
  const auto close_all = [&listeners] {
    for (const auto& l : listeners) ::close(l->fd);
  };

  if (!opts_.socket_path.empty()) {
    const sockaddr_un addr = wire::make_unix_addr(opts_.socket_path);

    if (opts_.remove_existing) ::unlink(opts_.socket_path.c_str());

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("socket() failed: ") +
                               std::strerror(errno));
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("bind(" + opts_.socket_path +
                               ") failed: " + std::strerror(err));
    }
    if (::listen(fd, kListenBacklog) != 0) {
      const int err = errno;
      ::close(fd);
      ::unlink(opts_.socket_path.c_str());
      throw std::runtime_error(std::string("listen() failed: ") +
                               std::strerror(err));
    }
    auto l = std::make_unique<Listener>();
    l->fd = fd;
    l->is_tcp = false;
    listeners.push_back(std::move(l));
  }

  std::uint16_t tcp_port = 0;
  if (!opts_.tcp_address.empty()) {
    try {
      const wire::Endpoint ep = wire::parse_endpoint(opts_.tcp_address);
      if (ep.kind != wire::Endpoint::Kind::Tcp) {
        throw wire::WireError("tcp_address must be host:port, got '" +
                              opts_.tcp_address + "'");
      }
      const auto [fd, port] =
          wire::listen_tcp(ep.host, ep.port, kListenBacklog);
      tcp_port = port;
      auto l = std::make_unique<Listener>();
      l->fd = fd;
      l->is_tcp = true;
      listeners.push_back(std::move(l));
    } catch (const wire::WireError& e) {
      // Unwind the Unix listener (if any) so a failed start leaves nothing
      // bound behind.
      close_all();
      if (!opts_.socket_path.empty()) ::unlink(opts_.socket_path.c_str());
      throw std::runtime_error(e.what());
    }
  }

  // The loop's plumbing: epoll set + the eventfd handlers kick after
  // queueing a reply.  Listeners go in nonblocking so the accept drain
  // loop terminates on EAGAIN instead of parking the whole loop.
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = epoll_fd_ >= 0
                  ? ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)
                  : -1;
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    const int err = errno;
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
    close_all();
    if (!opts_.socket_path.empty()) ::unlink(opts_.socket_path.c_str());
    throw std::runtime_error(std::string("event loop setup failed: ") +
                             std::strerror(err));
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = event_fd_;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  }
  for (const auto& l : listeners) {
    set_nonblocking(l->fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = l->fd;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, l->fd, &ev);
  }

  {
    const std::lock_guard<std::mutex> lock(lifecycle_mu_);
    listeners_ = std::move(listeners);
    tcp_port_ = tcp_port;
    started_ = true;
  }

  std::size_t handlers = opts_.handler_threads;
  if (handlers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    handlers = std::max(2u, std::min(8u, hw / 2));
  }
  handler_pool_.reserve(handlers);
  for (std::size_t i = 0; i < handlers; ++i) {
    handler_pool_.emplace_back([this] { handler_loop(); });
  }
  loop_thread_ = std::thread([this] { event_loop(); });
}

std::uint16_t PlanServer::tcp_port() const {
  const std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return tcp_port_;
}

bool PlanServer::running() const {
  const std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return started_ && !stopped_;
}

void PlanServer::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void PlanServer::wait() {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_ || stopped_; });
}

void PlanServer::stop() {
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();

  // Hand the drain to the loop: it unregisters the listeners, half-closes
  // every connection's read side, serves whatever was already buffered,
  // flushes every queued reply, and exits once the last connection is
  // idle + flushed.  Joining it IS the drain barrier.
  draining_.store(true, std::memory_order_release);
  if (event_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t r =
        ::write(event_fd_, &one, sizeof(one));
  }
  if (loop_thread_.joinable()) loop_thread_.join();

  // Loop gone means no connection has work in flight — the handler pool
  // is necessarily idle; stop and join it.
  {
    const std::lock_guard<std::mutex> lock(task_mu_);
    tasks_stopped_ = true;
  }
  task_cv_.notify_all();
  for (auto& t : handler_pool_) {
    if (t.joinable()) t.join();
  }
  handler_pool_.clear();

  for (const auto& l : listeners_) {
    if (l->fd >= 0) ::close(l->fd);
  }
  listeners_.clear();
  conns_.clear();
  {
    const std::lock_guard<std::mutex> lock(kick_mu_);
    kicked_.clear();
  }
  {
    const std::lock_guard<std::mutex> lock(task_mu_);
    tasks_.clear();
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  epoll_fd_ = -1;
  event_fd_ = -1;

  if (!opts_.socket_path.empty()) ::unlink(opts_.socket_path.c_str());
}

wire::StatsReply PlanServer::stats() const {
  wire::StatsReply s;
  s.cache = cache_.stats();
  s.pool_workers = pool_.num_workers();
  s.pool_gangs = pool_.gangs_run();
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_active = connections_active_.load(std::memory_order_relaxed);
  s.programs_registered =
      programs_registered_.load(std::memory_order_relaxed);
  s.runs_executed = runs_executed_.load(std::memory_order_relaxed);
  s.frame_quota_trips = frame_quota_trips_.load(std::memory_order_relaxed);
  s.registry_quota_trips =
      registry_quota_trips_.load(std::memory_order_relaxed);
  s.quota_disconnects = quota_disconnects_.load(std::memory_order_relaxed);
  s.accept_backoffs = accept_backoffs_.load(std::memory_order_relaxed);
  s.jit_enabled = s.cache.jit_enabled ? 1 : 0;
  s.jit_compiles = s.cache.jit_compiles;
  s.jit_failures = s.cache.jit_failures;
  s.jit_in_flight = s.cache.jit_in_flight;
  if (s.cache.jit_enabled) {
    s.jit_native_runs = runs_.native.load(std::memory_order_relaxed);
    s.jit_interpreted_runs =
        runs_.interpreted.load(std::memory_order_relaxed);
    s.jit_ineligible_runs = runs_.ineligible.load(std::memory_order_relaxed);
  }
  s.jit_compile_estimate_us = s.cache.jit_compile_estimate_us;
  s.jit_deferred_runs = s.cache.jit_deferred_runs;
  s.one_thread_runs = runs_.one_thread.load(std::memory_order_relaxed);
  s.gang_runs = runs_.gang.load(std::memory_order_relaxed);
  s.jit_dropped_kernels = s.cache.jit_dropped;
  return s;
}

// ---------------------------------------------------------------------------
// Event loop

void PlanServer::event_loop() {
  std::array<epoll_event, 128> events{};
  for (;;) {
    if (draining_.load(std::memory_order_acquire) && !drain_started_) {
      begin_drain();
    }
    if (drain_started_ && conns_.empty()) return;

    // A paused listener (EMFILE backoff) turns the wait into a timed one;
    // once its deadline passes it rejoins the epoll set.
    int timeout = -1;
    const auto now = std::chrono::steady_clock::now();
    for (const auto& l : listeners_) {
      if (!l->paused) continue;
      if (drain_started_) {
        l->paused = false;
        continue;
      }
      if (now >= l->resume_at) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = l->fd;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, l->fd, &ev) == 0) {
          l->paused = false;
        }
      } else {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              l->resume_at - now)
                              .count() +
                          1;
        const int ms = static_cast<int>(
            std::min<long long>(left, std::numeric_limits<int>::max()));
        timeout = timeout < 0 ? ms : std::min(timeout, ms);
      }
    }

    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: nothing left to serve
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == event_fd_) {
        std::uint64_t counter = 0;
        while (::read(event_fd_, &counter, sizeof(counter)) > 0) {
        }
        continue;  // the kicked set is swept below
      }
      Listener* listener = nullptr;
      for (const auto& l : listeners_) {
        if (l->fd == fd) {
          listener = l.get();
          break;
        }
      }
      if (listener != nullptr) {
        if (!drain_started_) handle_accept(listener);
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this sweep
      const std::shared_ptr<Connection> conn = it->second;
      if ((events[i].events & EPOLLOUT) != 0) {
        const std::lock_guard<std::mutex> lock(conn->mu);
        flush_locked(*conn);
      }
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        handle_readable(conn);
      }
      {
        const std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->closed) {
          flush_locked(*conn);
          update_interest_locked(*conn);
        }
      }
      maybe_close(conn);
    }
    handle_kicks();
  }
}

void PlanServer::begin_drain() {
  drain_started_ = true;
  for (const auto& l : listeners_) {
    if (!l->paused) {
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, l->fd, nullptr);
    }
    l->paused = false;
  }
  // Half-close every connection's read side.  Bytes already buffered (in
  // the kernel or in rbuf) still parse and get served; the stream then
  // reports EOF and the connection closes once idle + flushed — requests
  // accepted before the drain always see their replies.
  std::vector<std::shared_ptr<Connection>> snapshot;
  snapshot.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) snapshot.push_back(conn);
  for (const auto& conn : snapshot) {
    (void)::shutdown(conn->fd, SHUT_RD);
    {
      const std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->closed) update_interest_locked(*conn);
    }
    maybe_close(conn);
  }
}

void PlanServer::handle_accept(Listener* listener) {
  for (;;) {
    const int fd = ::accept4(listener->fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Transient resource exhaustion — most likely fd exhaustion from
        // a connection flood or a leaky tenant.  The pending connection
        // stays in the backlog; drop the listener from the epoll set and
        // re-arm it after a doubling backoff (fed into the loop's wait
        // timeout) instead of abandoning it, which would silently turn a
        // full daemon into a dead one.
        accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
        listener->backoff =
            listener->backoff.count() == 0
                ? std::chrono::milliseconds(opts_.accept_backoff_initial_ms)
                : std::min(listener->backoff * 2,
                           std::chrono::milliseconds(
                               opts_.accept_backoff_max_ms));
        listener->paused = true;
        listener->resume_at =
            std::chrono::steady_clock::now() + listener->backoff;
        (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener->fd, nullptr);
        return;
      }
      // Genuinely fatal accept error: this listener is done.
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener->fd, nullptr);
      return;
    }
    listener->backoff = std::chrono::milliseconds(0);
    if (listener->is_tcp) {
      // Strict small frames: Nagle + delayed ACK would add a round-trip's
      // latency to every one.
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->tokens = std::max(opts_.frame_burst, 1.0);
    conn->last_refill = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      connections_active_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    conn->armed = EPOLLIN;
    conns_.emplace(fd, std::move(conn));
  }
}

void PlanServer::handle_readable(const std::shared_ptr<Connection>& conn) {
  Connection& c = *conn;
  std::uint8_t buf[64 * 1024];
  // Bounded per wake so one firehose connection cannot starve the rest;
  // level-triggered epoll re-reports whatever is left.
  std::size_t budget = 4 * sizeof(buf);
  bool fatal = false;
  while (budget > 0) {
    {
      const std::lock_guard<std::mutex> lock(c.mu);
      if (c.closed || c.closing) return;
      if (update_pause_locked(c) && !drain_started_) break;
    }
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      c.read_closed = true;  // ECONNRESET and friends: treat as EOF
      break;
    }
    if (n == 0) {
      c.read_closed = true;
      break;
    }
    budget -= std::min(budget, static_cast<std::size_t>(n));
    c.rbuf.append(buf, static_cast<std::size_t>(n));
    try {
      while (auto frame = c.rbuf.next()) {
        on_frame(conn, std::move(*frame));
        const std::lock_guard<std::mutex> lock(c.mu);
        if (c.closing || c.closed) break;
      }
    } catch (const wire::WireError&) {
      // Framing violation (oversize length prefix): the stream cannot be
      // resynced — drop the peer, no Error frame.
      fatal = true;
      break;
    }
  }
  if (fatal) {
    const std::lock_guard<std::mutex> lock(c.mu);
    c.closing = true;
    c.write_dead = true;
    c.read_closed = true;
    c.wqueue.clear();
    c.wqueue_bytes = 0;
    c.woffset = 0;
  }
}

void PlanServer::on_frame(const std::shared_ptr<Connection>& conn,
                          wire::Frame frame) {
  Connection& c = *conn;

  // Heartbeat: answered inline — no worker-pool round trip, so a Pong
  // proves the event loop itself is alive, which is exactly what the idle
  // client is probing.  Exempt from the frame-rate bucket: liveness
  // probes must not eat a tenant's quota or shift the quota tests'
  // arithmetic.
  if (frame.type == wire::FrameType::Ping) {
    const std::lock_guard<std::mutex> lock(c.mu);
    if (c.closed || c.closing) return;
    auto bytes = wire::encode_frame_bytes(wire::FrameType::Pong,
                                          frame.request_id, {});
    c.wqueue_bytes += bytes.size();
    c.wqueue.push_back(std::move(bytes));
    return;
  }

  bool struck = false;
  if (opts_.max_frames_per_second > 0) {
    const double burst = std::max(opts_.frame_burst, 1.0);
    const auto now = std::chrono::steady_clock::now();
    c.tokens = std::min(
        burst, c.tokens + std::chrono::duration<double>(now - c.last_refill)
                                  .count() *
                              opts_.max_frames_per_second);
    c.last_refill = now;
    if (c.tokens < 1.0) {
      // Counted here, at decode time; the handler turns the strike into
      // the Error frame.
      frame_quota_trips_.fetch_add(1, std::memory_order_relaxed);
      struck = true;
    } else {
      c.tokens -= 1.0;
    }
  }

  // Every request dispatches immediately; replies come back in
  // completion order, demuxed client-side by request id.
  {
    const std::lock_guard<std::mutex> lock(c.mu);
    if (c.closing || c.closed) return;
    ++c.in_flight;
  }
  enqueue_task(Task{conn, std::move(frame), struck});
}

bool PlanServer::update_pause_locked(Connection& c) {
  const std::size_t depth = static_cast<std::size_t>(c.in_flight);
  if (!c.read_paused) {
    if (c.wqueue_bytes > kWriteHighWatermark ||
        (opts_.max_pipeline_depth > 0 &&
         depth >= opts_.max_pipeline_depth)) {
      c.read_paused = true;
    }
  } else {
    if (c.wqueue_bytes <= kWriteLowWatermark &&
        (opts_.max_pipeline_depth == 0 ||
         depth < opts_.max_pipeline_depth)) {
      c.read_paused = false;
    }
  }
  return c.read_paused;
}

void PlanServer::flush_locked(Connection& c) {
  if (c.closed || c.write_dead) return;
  while (!c.wqueue.empty()) {
    // Coalesce queued frames into one sendmsg — pipelined connections
    // carry many small replies per flush, and this is where request-id
    // framing earns its syscall amortization.
    std::array<iovec, 16> iov{};
    std::size_t cnt = 0;
    std::size_t skip = c.woffset;
    for (auto it = c.wqueue.begin();
         it != c.wqueue.end() && cnt < iov.size(); ++it) {
      iov[cnt].iov_base =
          const_cast<std::uint8_t*>(it->data()) + skip;
      iov[cnt].iov_len = it->size() - skip;
      skip = 0;
      ++cnt;
    }
    msghdr mh{};
    mh.msg_iov = iov.data();
    mh.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      // Peer gone: nothing queued (or still in flight) is deliverable.
      c.write_dead = true;
      c.closing = true;
      c.wqueue.clear();
      c.wqueue_bytes = 0;
      c.woffset = 0;
      return;
    }
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0 && !c.wqueue.empty()) {
      auto& front = c.wqueue.front();
      const std::size_t remain = front.size() - c.woffset;
      if (left >= remain) {
        left -= remain;
        c.wqueue_bytes -= front.size();
        c.woffset = 0;
        c.wqueue.pop_front();
      } else {
        c.woffset += left;
        left = 0;
      }
    }
  }
}

void PlanServer::update_interest_locked(Connection& c) {
  if (c.closed) return;
  std::uint32_t desired = 0;
  if (!c.read_closed && !c.closing &&
      (!c.read_paused || drain_started_)) {
    desired |= EPOLLIN;
  }
  if (!c.wqueue.empty() && !c.write_dead) desired |= EPOLLOUT;
  if (desired == c.armed) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.fd = c.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
    c.armed = desired;
  }
}

void PlanServer::maybe_close(const std::shared_ptr<Connection>& conn) {
  Connection& c = *conn;
  {
    const std::lock_guard<std::mutex> lock(c.mu);
    if (c.closed) return;
    const bool idle = c.in_flight == 0;
    const bool flushed = c.wqueue.empty() || c.write_dead;
    if (!((c.closing || c.read_closed) && idle && flushed)) return;
    c.closed = true;
  }
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  (void)::shutdown(c.fd, SHUT_RDWR);
  ::close(c.fd);
  conns_.erase(c.fd);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

void PlanServer::handle_kicks() {
  std::vector<std::shared_ptr<Connection>> batch;
  {
    const std::lock_guard<std::mutex> lock(kick_mu_);
    batch.swap(kicked_);
  }
  for (const auto& conn : batch) {
    {
      const std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed) continue;
      flush_locked(*conn);
      (void)update_pause_locked(*conn);
      update_interest_locked(*conn);
    }
    maybe_close(conn);
  }
}

// ---------------------------------------------------------------------------
// Handler pool

void PlanServer::enqueue_task(Task task) {
  {
    const std::lock_guard<std::mutex> lock(task_mu_);
    tasks_.push_back(std::move(task));
  }
  task_cv_.notify_one();
}

void PlanServer::kick(std::shared_ptr<Connection> conn) {
  bool was_empty = false;
  {
    const std::lock_guard<std::mutex> lock(kick_mu_);
    was_empty = kicked_.empty();
    kicked_.push_back(std::move(conn));
  }
  // One eventfd write per batch, not per task: whenever kicked_ is
  // non-empty a wakeup is already pending (the writer who emptied->filled
  // it sent one), so further completions before the loop's swap ride the
  // same wakeup — and their replies coalesce into the same sendmsg.
  if (was_empty) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t r = ::write(event_fd_, &one, sizeof(one));
  }
}

void PlanServer::handler_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(task_mu_);
      task_cv_.wait(lock,
                    [this] { return tasks_stopped_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopped and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    process_task(task);
  }
}

void PlanServer::process_task(Task& t) {
  Connection& c = *t.conn;

  // Registered CachedPlans are shared_ptrs into the cache (plan and
  // kernel slot both), so eviction can never invalidate a registered
  // program, and a kernel published after registration is visible
  // through the entry's slot on the next run.  Copied out under the lock
  // so the run itself never holds it.
  const auto lookup = [&c](std::uint64_t id) -> PlanCache::CachedPlan {
    const std::lock_guard<std::mutex> lock(c.mu);
    const auto it = c.programs.find(id);
    if (it == c.programs.end()) {
      throw wire::WireError("unknown program id " + std::to_string(id) +
                            " (submit-program first; ids are "
                            "per-connection)");
    }
    return it->second;
  };

  wire::FrameType reply_type = wire::FrameType::Error;
  std::vector<std::uint8_t> reply;
  bool struck = false;
  bool shutdown_requested = false;

  if (t.struck) {
    // The loop already tripped the token bucket for this frame; the
    // handler's job is just the Error frame and the strike.
    struck = true;
    reply = wire::encode_error(
        "frame-rate quota exceeded (sustained limit " +
        std::to_string(
            static_cast<std::uint64_t>(opts_.max_frames_per_second)) +
        " frames/s); back off or be disconnected");
  } else {
    try {
      switch (t.frame.type) {
        case wire::FrameType::SubmitProgram: {
          {
            const std::lock_guard<std::mutex> lock(c.mu);
            if (opts_.max_programs_per_connection > 0 &&
                c.programs.size() + c.registry_reserved >=
                    opts_.max_programs_per_connection) {
              // Checked BEFORE decoding/compiling: a tenant over its
              // registry quota must not be able to keep burning the
              // shared cache and compile path.  The reservation keeps
              // the check exact when several pipelined submits race.
              registry_quota_trips_.fetch_add(1, std::memory_order_relaxed);
              throw QuotaViolation(
                  "program registry quota exceeded (" +
                  std::to_string(opts_.max_programs_per_connection) +
                  " programs per connection); run or drop existing ids");
            }
            ++c.registry_reserved;
          }
          wire::SubmitProgramReply rep;
          try {
            wire::SubmitProgramRequest req =
                wire::decode_submit_program(t.frame.payload);
            const auto cached = cache_.get_or_compile_jit(
                std::move(req.program), req.graph, req.copts);
            const auto& plan = cached.plan;
            rep.threads =
                static_cast<std::uint32_t>(plan->program().threads.size());
            rep.channels =
                static_cast<std::uint32_t>(plan->program().channels.size());
            rep.slots =
                static_cast<std::uint32_t>(plan->program().total_slots());
            rep.iterations = plan->program().iterations;
            const std::lock_guard<std::mutex> lock(c.mu);
            --c.registry_reserved;
            const std::uint64_t id = c.next_id++;
            c.programs.emplace(id, cached);
            rep.program_id = id;
          } catch (...) {
            const std::lock_guard<std::mutex> lock(c.mu);
            --c.registry_reserved;
            throw;
          }
          programs_registered_.fetch_add(1, std::memory_order_relaxed);
          reply_type = wire::FrameType::SubmitProgramReply;
          reply = wire::encode_submit_program_reply(rep);
          break;
        }
        case wire::FrameType::Run: {
          const wire::RunRequest req = wire::decode_run(t.frame.payload);
          const PlanCache::CachedPlan entry = lookup(req.program_id);
          const auto& plan = entry.plan;
          const std::int64_t n = req.iterations != 0
                                     ? req.iterations
                                     : plan->program().iterations;
          check_reply_fits_frame(estimated_result_bytes(*plan, n));
          // Native once a compile has published (bit-identical with the
          // interpreted run), interpreted meanwhile, on this handler's
          // thread unless the request asks for per-op work or pinning;
          // run_cached reports the run to the cache, which queues the
          // compile once the entry's interpreted runs have taken a
          // compile's time and keeps the kernel only if it runs faster.
          const ExecutionResult result = run_cached(
              cache_, entry, n, to_run_options(req.opts, &pool_), &runs_);
          runs_executed_.fetch_add(1, std::memory_order_relaxed);
          reply_type = wire::FrameType::RunReply;
          reply = wire::encode_run_reply(result);
          break;
        }
        case wire::FrameType::DropProgram: {
          const std::uint64_t id =
              wire::decode_drop_program(t.frame.payload);
          {
            const std::lock_guard<std::mutex> lock(c.mu);
            if (c.programs.erase(id) == 0) {
              throw wire::WireError(
                  "unknown program id " + std::to_string(id) +
                  " (submit-program first; ids are per-connection)");
            }
            // programs_registered_ stays cumulative — it counts submits,
            // not live registrations.
          }
          reply_type = wire::FrameType::DropProgramReply;
          reply = wire::encode_drop_program_reply(id);
          break;
        }
        case wire::FrameType::Stats: {
          reply_type = wire::FrameType::StatsReply;
          reply = wire::encode_stats_reply(stats());
          break;
        }
        case wire::FrameType::Shutdown: {
          reply_type = wire::FrameType::ShutdownReply;
          shutdown_requested = true;
          break;
        }
        default:
          throw wire::WireError(
              "unexpected frame type " +
              std::to_string(static_cast<int>(t.frame.type)));
      }
    } catch (const QuotaViolation& e) {
      // Over-quota: an Error frame AND a strike — the connection survives
      // until the strike limit, so a client that backs off recovers.
      struck = true;
      reply_type = wire::FrameType::Error;
      reply = wire::encode_error(e.what());
    } catch (const std::exception& e) {
      // Anything the request raised — decode errors, ContractViolation
      // from compile(), unknown ids — becomes an Error frame; the
      // connection survives.
      reply_type = wire::FrameType::Error;
      reply = wire::encode_error(e.what());
    }
  }

  if (reply.size() > wire::kMaxFramePayload) {
    // The pre-run estimate should make this unreachable; if a reply
    // still outgrows a frame, degrade to an Error frame rather than
    // desynchronizing the stream.
    reply_type = wire::FrameType::Error;
    reply = wire::encode_error("reply exceeds the frame size limit");
  }

  {
    const std::lock_guard<std::mutex> lock(c.mu);
    if (!c.closed && !c.write_dead) {
      auto bytes =
          wire::encode_frame_bytes(reply_type, t.frame.request_id, reply);
      c.wqueue_bytes += bytes.size();
      c.wqueue.push_back(std::move(bytes));
    }
    if (struck) {
      ++c.strikes;
      if (opts_.max_quota_strikes > 0 &&
          c.strikes >= opts_.max_quota_strikes) {
        // Repeat offender: the Error frame above is the last word — the
        // loop flushes it, then closes.
        if (!c.counted_quota_disconnect) {
          c.counted_quota_disconnect = true;
          quota_disconnects_.fetch_add(1, std::memory_order_relaxed);
        }
        c.closing = true;
      }
    }
    --c.in_flight;
  }
  kick(t.conn);
  if (shutdown_requested) {
    // Ack queued; hand the actual teardown to whoever is parked in
    // wait() — this thread cannot join itself.
    request_stop();
  }
}

}  // namespace mimd
