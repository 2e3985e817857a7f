#include "runtime/plan_client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

namespace mimd {

namespace {

using Clock = std::chrono::steady_clock;

/// Decode adapter for replies whose payload carries nothing (Shutdown,
/// Pong).
std::uint64_t decode_empty_reply(const std::vector<std::uint8_t>& payload) {
  if (!payload.empty()) throw wire::WireError("unexpected reply payload");
  return 0;
}

/// What the reader thread hands a waiting request: its reply frame (an
/// Error frame included), or why the transport failed it.  Only values
/// cross threads; the exception a failed request throws is made on the
/// thread that calls get() (see submit_typed).
struct Outcome {
  std::optional<wire::Frame> frame;
  std::string transport_error;  ///< set iff frame is empty

  static Outcome failed(std::string why) {
    return {std::nullopt, std::move(why)};
  }
};

}  // namespace

/// All connection state lives here (not in PlanClient itself) so the
/// reader thread's pointer survives moves of the owning PlanClient.
struct PlanClient::Impl {
  int fd = -1;
  int timeout_ms = 0;
  std::thread reader;

  /// Serializes frame writes.
  std::mutex wmu;

  /// Guards everything below.
  std::mutex mu;
  std::uint64_t next_id = 1;
  struct Pending {
    wire::FrameType expected = wire::FrameType::Error;
    Clock::time_point enqueued;
    /// Fulfilled exactly once, outside mu.
    std::promise<Outcome> done;
  };
  std::unordered_map<std::uint64_t, Pending> pending;
  bool dead = false;  ///< transport failed; every new submit fails fast
  std::string dead_reason;
  bool closing = false;

  /// Fail every outstanding future and mark the connection dead.  The
  /// reply stream is a single ordered byte sequence, so any transport
  /// fault orphans everything still in flight — typed errors, not hangs.
  void fail_all(const std::string& reason) {
    std::unordered_map<std::uint64_t, Pending> orphans;
    {
      const std::lock_guard<std::mutex> lk(mu);
      dead = true;
      if (dead_reason.empty()) dead_reason = reason;
      orphans.swap(pending);
    }
    for (auto& [id, p] : orphans) p.done.set_value(Outcome::failed(reason));
  }

  void reader_loop();
};

void PlanClient::Impl::reader_loop() {
  wire::FrameBuffer rbuf;
  std::vector<std::uint8_t> chunk(64 * 1024);
  for (;;) {
    // poll() first so SO_RCVTIMEO only governs mid-frame stalls: an IDLE
    // pipelined connection (nothing pending) must not spuriously die when
    // the receive timeout elapses with no reply owed.
    int timeout = -1;
    if (timeout_ms > 0) {
      const std::lock_guard<std::mutex> lk(mu);
      if (pending.empty()) {
        timeout = timeout_ms;  // idle tick; re-checked below
      } else {
        Clock::time_point earliest = Clock::time_point::max();
        for (const auto& [id, p] : pending) {
          earliest = std::min(earliest, p.enqueued);
        }
        const auto deadline = earliest + std::chrono::milliseconds(timeout_ms);
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        timeout = static_cast<int>(std::max<std::int64_t>(left.count(), 0));
      }
    }
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail_all(std::string("poll failed: ") + std::strerror(errno));
      return;
    }
    if (rc == 0) {
      bool owed = false;
      bool probe = false;
      std::uint64_t ping_id = 0;
      {
        const std::lock_guard<std::mutex> lk(mu);
        owed = !pending.empty();
        if (!owed && !dead && !closing) {
          // Idle tick, nothing outstanding: the reply deadline has no
          // request to arm on, so a wedged server would go unnoticed
          // until the next real submit hangs.  Probe with a Ping — the
          // Pong is owed like any reply, so the very same deadline math
          // turns a stalled server into "receive timed out" one idle
          // period later, with no caller traffic at all.
          ping_id = next_id++;
          Pending p;
          p.expected = wire::FrameType::Pong;
          p.enqueued = Clock::now();
          pending.emplace(ping_id, std::move(p));
          probe = true;
        }
      }
      if (probe) {
        try {
          const std::lock_guard<std::mutex> lk(wmu);
          wire::write_frame(fd, wire::FrameType::Ping, ping_id, {});
        } catch (const wire::WireError& e) {
          fail_all(std::string("heartbeat write failed: ") + e.what());
          return;
        }
        continue;
      }
      if (!owed) continue;  // idle tick while closing/dead
      // The oldest outstanding reply exhausted its budget (the deadline
      // math above makes this exact, not an early fire).
      fail_all("receive timed out");
      return;
    }

    // Readable: drain one chunk, then dispatch every complete frame in
    // it.  One recv may carry dozens of pipelined replies — the
    // client-side half of the syscall amortization request ids exist for
    // (the server's sendmsg coalescing being the other half).
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_all(std::string("recv failed: ") + std::strerror(errno));
      return;
    }
    if (n == 0) {
      bool was_closing = false;
      {
        const std::lock_guard<std::mutex> lk(mu);
        was_closing = closing;
      }
      fail_all(was_closing          ? "client closed"
               : rbuf.buffered() > 0 ? "connection closed mid-frame"
                                     : "server closed the connection");
      return;
    }
    rbuf.append(chunk.data(), static_cast<std::size_t>(n));
    for (;;) {
      std::optional<wire::Frame> frame;
      try {
        frame = rbuf.next();
      } catch (const wire::WireError& e) {
        fail_all(e.what());
        return;
      }
      if (!frame) break;

      Pending entry;
      bool found = false;
      {
        const std::lock_guard<std::mutex> lk(mu);
        const auto it = pending.find(frame->request_id);
        if (it != pending.end()) {
          entry = std::move(it->second);
          pending.erase(it);
          found = true;
        }
      }
      if (!found) {
        // A reply for an id this connection never issued: the server (or
        // something between) is confused, and nothing downstream of this
        // byte can be trusted.  Typed failure for everyone, never a hang.
        fail_all("reply carries unknown request id " +
                 std::to_string(frame->request_id));
        return;
      }
      if (frame->type != wire::FrameType::Error &&
          frame->type != entry.expected) {
        // A well-framed reply of the wrong type is a protocol violation,
        // not a server-side refusal — fatal for the connection.
        entry.done.set_value(Outcome::failed(
            "unexpected reply frame type " +
            std::to_string(static_cast<int>(frame->type))));
        fail_all("protocol violation: unexpected reply frame type");
        return;
      }
      entry.done.set_value(Outcome{std::move(frame), {}});
    }
  }
}

PlanClient PlanClient::connect(const std::string& endpoint,
                               int timeout_ms) {
  const int fd = wire::connect_endpoint(wire::parse_endpoint(endpoint));
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }

  PlanClient c;
  Impl* im = c.impl_.get();
  im->fd = fd;
  im->timeout_ms = timeout_ms;
  im->reader = std::thread([im] { im->reader_loop(); });
  return c;
}

PlanClient::PlanClient() : impl_(std::make_unique<Impl>()) {}

PlanClient::~PlanClient() { close(); }

PlanClient::PlanClient(PlanClient&& other) noexcept
    : impl_(std::move(other.impl_)) {
  other.impl_ = std::make_unique<Impl>();
}

PlanClient& PlanClient::operator=(PlanClient&& other) noexcept {
  if (this != &other) {
    close();
    impl_ = std::move(other.impl_);
    other.impl_ = std::make_unique<Impl>();
  }
  return *this;
}

bool PlanClient::connected() const { return impl_ && impl_->fd >= 0; }

std::string PlanClient::transport_error() const {
  if (!impl_) return "client not connected";
  const std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->dead ? impl_->dead_reason : std::string();
}

void PlanClient::close() {
  if (!impl_ || impl_->fd < 0) return;
  {
    const std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->closing = true;
  }
  // Wake the reader (poll sees the hangup, read sees EOF); it fails any
  // outstanding futures and exits, then the fd can be closed safely.
  ::shutdown(impl_->fd, SHUT_RDWR);
  if (impl_->reader.joinable()) impl_->reader.join();
  ::close(impl_->fd);
  impl_->fd = -1;
}

template <typename T>
std::future<T> PlanClient::submit_typed(
    wire::FrameType request, wire::FrameType expected_reply,
    std::vector<std::uint8_t> payload,
    T (*decode)(const std::vector<std::uint8_t>&)) {
  std::promise<Outcome> done;
  // Deferred: the reply is decoded — and a failure becomes RemoteError or
  // wire::WireError — on the thread that calls get().  The reader thread
  // only ever hands over values, so it never holds (or frees) an
  // exception object the caller is still reading.
  auto fut = std::async(
      std::launch::deferred,
      [decode](std::future<Outcome> outcome) -> T {
        Outcome o = outcome.get();
        if (!o.frame) throw wire::WireError(o.transport_error);
        if (o.frame->type == wire::FrameType::Error) {
          throw RemoteError(wire::decode_error(o.frame->payload));
        }
        return decode(o.frame->payload);
      },
      done.get_future());
  Impl* im = impl_.get();

  if (!im || im->fd < 0) {
    done.set_value(Outcome::failed("client not connected"));
    return fut;
  }

  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lk(im->mu);
    if (im->dead) {
      done.set_value(Outcome::failed(im->dead_reason));
      return fut;
    }
    id = im->next_id++;
    Impl::Pending p;
    p.expected = expected_reply;
    p.enqueued = Clock::now();
    p.done = std::move(done);
    im->pending.emplace(id, std::move(p));
  }
  try {
    const std::lock_guard<std::mutex> lk(im->wmu);
    wire::write_frame(im->fd, request, id, payload);
  } catch (const wire::WireError& e) {
    // The request never left: fail just this future (the reader owns the
    // shared-fate decision for replies already owed).  The entry may
    // already be gone if fail_all raced us — then it was completed.
    Impl::Pending orphan;
    bool mine = false;
    {
      const std::lock_guard<std::mutex> lk(im->mu);
      const auto it = im->pending.find(id);
      if (it != im->pending.end()) {
        orphan = std::move(it->second);
        im->pending.erase(it);
        mine = true;
      }
    }
    if (mine) orphan.done.set_value(Outcome::failed(e.what()));
  }
  return fut;
}

std::future<wire::SubmitProgramReply> PlanClient::submit_program_async(
    const PartitionedProgram& program, const Ddg& graph,
    const CompileOptions& copts) {
  return submit_typed(wire::FrameType::SubmitProgram,
                      wire::FrameType::SubmitProgramReply,
                      wire::encode_submit_program(program, graph, copts),
                      wire::decode_submit_program_reply);
}

wire::SubmitProgramReply PlanClient::submit_program(
    const PartitionedProgram& program, const Ddg& graph,
    const CompileOptions& copts) {
  return submit_program_async(program, graph, copts).get();
}

std::future<ExecutionResult> PlanClient::run_async(
    std::uint64_t program_id, std::int64_t iterations,
    const wire::RemoteRunOptions& opts) {
  wire::RunRequest req;
  req.program_id = program_id;
  req.iterations = iterations;
  req.opts = opts;
  return submit_typed(wire::FrameType::Run, wire::FrameType::RunReply,
                      wire::encode_run(req), wire::decode_run_reply);
}

ExecutionResult PlanClient::run(std::uint64_t program_id,
                                std::int64_t iterations,
                                const wire::RemoteRunOptions& opts) {
  return run_async(program_id, iterations, opts).get();
}

std::future<std::uint64_t> PlanClient::drop_program_async(
    std::uint64_t program_id) {
  return submit_typed(wire::FrameType::DropProgram,
                      wire::FrameType::DropProgramReply,
                      wire::encode_drop_program(program_id),
                      wire::decode_drop_program_reply);
}

void PlanClient::drop_program(std::uint64_t program_id) {
  (void)drop_program_async(program_id).get();
}

void PlanClient::negotiate() {
  (void)submit_typed(wire::FrameType::Ping, wire::FrameType::Pong, {},
                     decode_empty_reply)
      .get();
}

wire::StatsReply PlanClient::stats() { return stats_async().get(); }

std::future<wire::StatsReply> PlanClient::stats_async() {
  return submit_typed(wire::FrameType::Stats, wire::FrameType::StatsReply, {},
                      wire::decode_stats_reply);
}

void PlanClient::shutdown_server() {
  (void)submit_typed(wire::FrameType::Shutdown, wire::FrameType::ShutdownReply,
                     {}, decode_empty_reply)
      .get();
}

}  // namespace mimd
