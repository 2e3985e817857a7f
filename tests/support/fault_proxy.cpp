#include "support/fault_proxy.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "runtime/wire.hpp"

namespace mimd::test {

namespace {

constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultPlan scripted_plan(std::uint64_t seed, std::uint64_t conn) {
  const std::uint64_t r = mix64(seed ^ mix64(conn));
  FaultPlan plan;
  switch (r % 4) {
    case 0:  // clean pass-through
      break;
    case 1:  // refuse outright
      plan.refuse = true;
      break;
    case 2:  // truncate the request stream at a small offset: the 13-byte
             // frame header makes any cut below a few hundred bytes land
             // mid-frame for real programs
      plan.close_after_client_bytes = 1 + (r >> 8) % 256;
      break;
    default:  // truncate the reply stream
      plan.close_after_server_bytes = 1 + (r >> 8) % 256;
      break;
  }
  return plan;
}

/// One proxied connection: both fds and both pump threads.  `cut` makes
/// whichever pump hits its budget first take down the other direction
/// too — a mid-frame hard cut, not a graceful close.
struct FaultProxy::Conn {
  int client_fd = -1;
  int upstream_fd = -1;
  std::atomic<bool> cut{false};
  std::thread up;    // client -> upstream
  std::thread down;  // upstream -> client
};

FaultProxy::FaultProxy(std::string upstream) : upstream_(std::move(upstream)) {
  const auto [fd, port] = wire::listen_tcp("127.0.0.1", 0, 16);
  listen_fd_ = fd;
  port_ = port;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

FaultProxy::~FaultProxy() { stop(); }

std::string FaultProxy::endpoint() const {
  return "127.0.0.1:" + std::to_string(port_);
}

void FaultProxy::set_plan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lk(mu_);
  plan_ = plan;
}

void FaultProxy::pump(int from, int to, std::size_t budget, std::size_t stall,
                      int delay_ms, Conn* conn) {
  std::vector<char> buf(4096);
  std::size_t forwarded = 0;
  while (!conn->cut.load()) {
    const ssize_t n = ::recv(from, buf.data(), buf.size(), 0);
    if (n <= 0) break;
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    if (forwarded >= stall) continue;  // stalled: drain silently, stay open
    const std::size_t allow = std::min(
        {static_cast<std::size_t>(n), budget - forwarded, stall - forwarded});
    std::size_t sent = 0;
    while (sent < allow) {
      const ssize_t w =
          ::send(to, buf.data() + sent, allow - sent, MSG_NOSIGNAL);
      if (w <= 0) {
        conn->cut.store(true);
        break;
      }
      sent += static_cast<std::size_t>(w);
    }
    forwarded += sent;
    if (forwarded >= budget) {
      // Budget exhausted: hard-cut BOTH sockets so the peer sees EOF (or
      // ECONNRESET) mid-frame, exactly the fault under test.
      conn->cut.store(true);
      break;
    }
  }
  ::shutdown(conn->client_fd, SHUT_RDWR);
  ::shutdown(conn->upstream_fd, SHUT_RDWR);
}

void FaultProxy::accept_loop() {
  for (;;) {
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (stopping_.load()) return;
      continue;
    }
    connections_.fetch_add(1);
    FaultPlan plan;
    {
      std::lock_guard<std::mutex> lk(mu_);
      plan = plan_;
    }
    if (plan.refuse) {
      ::close(cfd);
      continue;
    }
    int ufd = -1;
    try {
      ufd = wire::connect_endpoint(wire::parse_endpoint(upstream_));
    } catch (const wire::WireError&) {
      ::close(cfd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->client_fd = cfd;
    conn->upstream_fd = ufd;
    Conn* c = conn.get();
    conn->up = std::thread([c, plan] {
      pump(c->client_fd, c->upstream_fd, plan.close_after_client_bytes,
           std::numeric_limits<std::size_t>::max(), plan.delay_ms, c);
    });
    conn->down = std::thread([c, plan] {
      pump(c->upstream_fd, c->client_fd, plan.close_after_server_bytes,
           plan.stall_after_server_bytes, plan.delay_ms, c);
    });
    std::lock_guard<std::mutex> lk(mu_);
    conns_.push_back(std::move(conn));
  }
}

void FaultProxy::stop() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    c->cut.store(true);
    ::shutdown(c->client_fd, SHUT_RDWR);
    ::shutdown(c->upstream_fd, SHUT_RDWR);
    if (c->up.joinable()) c->up.join();
    if (c->down.joinable()) c->down.join();
    ::close(c->client_fd);
    ::close(c->upstream_fd);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace mimd::test
