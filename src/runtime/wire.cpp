#include "runtime/wire.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

namespace mimd::wire {

// ---------------------------------------------------------------------------
// Primitives

void Encoder::str(const std::string& s) {
  if (s.size() > kMaxFramePayload) throw WireError("string too long to encode");
  std::uint8_t* out = extend(4 + s.size());
  store_le(out, static_cast<std::uint32_t>(s.size()));
  std::memcpy(out + 4, s.data(), s.size());
}

std::string Decoder::str() {
  const std::uint32_t n = u32();
  return std::string(reinterpret_cast<const char*>(block(n)), n);
}

std::uint32_t Decoder::count(std::size_t min_bytes_per_element) {
  const std::uint32_t n = u32();
  if (min_bytes_per_element > 0 &&
      static_cast<std::uint64_t>(n) * min_bytes_per_element > remaining()) {
    throw WireError("element count exceeds payload size");
  }
  return n;
}

void Decoder::expect_done() const {
  if (pos_ != size_) throw WireError("trailing bytes after payload");
}

// ---------------------------------------------------------------------------
// Structures
//
// The per-op and per-value arrays are fixed-width records: the encoder
// grows its buffer once per processor program or value row and the
// decoder checks one block per array (its count() guard already bounded
// it), so neither touches the buffer's bounds inside the loop.

namespace {

/// One op on the wire: u8 kind, u32 node, i64 iteration, u32 edge, i32
/// peer.
constexpr std::size_t kOpBytes = 21;
/// One edge on the wire: u32 src, u32 dst, i32 distance, i32 comm cost.
constexpr std::size_t kEdgeBytes = 16;

}  // namespace

void encode_ddg(Encoder& e, const Ddg& g) {
  e.u32(static_cast<std::uint32_t>(g.num_nodes()));
  for (const Node& n : g.nodes()) {
    e.str(n.name);
    e.i32(n.latency);
  }
  std::uint8_t* out = e.extend(4 + kEdgeBytes * g.num_edges());
  store_le(out, static_cast<std::uint32_t>(g.num_edges()));
  out += 4;
  for (const Edge& ed : g.edges()) {
    store_le(out, ed.src);
    store_le(out + 4, ed.dst);
    store_le(out + 8, static_cast<std::uint32_t>(ed.distance));
    store_le(out + 12, static_cast<std::uint32_t>(ed.comm_cost));
    out += kEdgeBytes;
  }
}

Ddg decode_ddg(Decoder& d) {
  Ddg g;
  const std::uint32_t nodes = d.count(5);  // 4-byte name length + latency
  for (std::uint32_t i = 0; i < nodes; ++i) {
    std::string name = d.str();
    const int latency = d.i32();
    // add_node enforces the graph's own invariants (unique, non-empty
    // names; latency >= 1) via MIMD_EXPECTS; surface those as wire errors
    // so a hostile payload reads as "bad message", not "broken contract".
    try {
      g.add_node(std::move(name), latency);
    } catch (const ContractViolation& e) {
      throw WireError(std::string("invalid graph node: ") + e.what());
    }
  }
  const std::uint32_t edges = d.count(kEdgeBytes);
  const std::uint8_t* in = d.block(kEdgeBytes * edges);
  for (std::uint32_t i = 0; i < edges; ++i, in += kEdgeBytes) {
    const NodeId src = load_le<std::uint32_t>(in);
    const NodeId dst = load_le<std::uint32_t>(in + 4);
    const auto distance = static_cast<int>(load_le<std::uint32_t>(in + 8));
    const auto comm_cost = static_cast<int>(load_le<std::uint32_t>(in + 12));
    if (src >= nodes || dst >= nodes) throw WireError("edge endpoint out of range");
    try {
      g.add_edge(src, dst, distance, comm_cost);
    } catch (const ContractViolation& e) {
      throw WireError(std::string("invalid graph edge: ") + e.what());
    }
  }
  return g;
}

void encode_program(Encoder& e, const PartitionedProgram& p) {
  e.i32(p.processors);
  e.u32(static_cast<std::uint32_t>(p.programs.size()));
  for (const ProcessorProgram& pp : p.programs) {
    std::uint8_t* out = e.extend(8 + kOpBytes * pp.ops.size());
    store_le(out, static_cast<std::uint32_t>(pp.proc));
    store_le(out + 4, static_cast<std::uint32_t>(pp.ops.size()));
    out += 8;
    for (const Op& op : pp.ops) {
      out[0] = static_cast<std::uint8_t>(op.kind);
      store_le(out + 1, op.inst.node);
      store_le(out + 5, static_cast<std::uint64_t>(op.inst.iter));
      store_le(out + 13, op.edge);
      store_le(out + 17, static_cast<std::uint32_t>(op.peer));
      out += kOpBytes;
    }
  }
}

PartitionedProgram decode_program(Decoder& d) {
  PartitionedProgram p;
  p.processors = d.i32();
  p.programs.resize(d.count(8));
  for (ProcessorProgram& pp : p.programs) {
    pp.proc = d.i32();
    const std::uint32_t nops = d.count(kOpBytes);
    const std::uint8_t* in = d.block(kOpBytes * nops);
    pp.ops.resize(nops);
    for (Op& op : pp.ops) {
      if (in[0] > static_cast<std::uint8_t>(Op::Kind::Receive)) {
        throw WireError("invalid op kind");
      }
      op.kind = static_cast<Op::Kind>(in[0]);
      op.inst.node = load_le<std::uint32_t>(in + 1);
      op.inst.iter = static_cast<std::int64_t>(load_le<std::uint64_t>(in + 5));
      op.edge = load_le<std::uint32_t>(in + 13);
      op.peer = static_cast<int>(load_le<std::uint32_t>(in + 17));
      in += kOpBytes;
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Messages

std::vector<std::uint8_t> encode_submit_program(const SubmitProgramRequest& m) {
  return encode_submit_program(m.program, m.graph, m.copts);
}

std::vector<std::uint8_t> encode_submit_program(
    const PartitionedProgram& program, const Ddg& graph,
    const CompileOptions& copts) {
  // Exact payload size: the layouts written by encode_program (i32 + u32,
  // then per program i32 + u32 + 21 bytes per op) and encode_ddg (u32,
  // per node a length-prefixed name + i32, u32, 16 bytes per edge), plus
  // the opt byte.
  std::size_t bytes = 8 + 4 + 4 + kEdgeBytes * graph.num_edges() + 1;
  for (const ProcessorProgram& pp : program.programs) {
    bytes += 8 + kOpBytes * pp.ops.size();
  }
  for (const Node& n : graph.nodes()) bytes += 8 + n.name.size();
  Encoder e;
  e.reserve(bytes);
  encode_program(e, program);
  encode_ddg(e, graph);
  e.u8(static_cast<std::uint8_t>(copts.opt));
  return e.take();
}

SubmitProgramRequest decode_submit_program(
    const std::vector<std::uint8_t>& payload) {
  Decoder d(payload);
  SubmitProgramRequest m;
  m.program = decode_program(d);
  m.graph = decode_ddg(d);
  const std::uint8_t opt = d.u8();
  if (opt > static_cast<std::uint8_t>(OptLevel::O1)) {
    throw WireError("invalid opt level");
  }
  m.copts.opt = static_cast<OptLevel>(opt);
  d.expect_done();
  return m;
}

std::vector<std::uint8_t> encode_submit_program_reply(
    const SubmitProgramReply& m) {
  Encoder e;
  e.u64(m.program_id);
  e.u32(m.threads);
  e.u32(m.channels);
  e.u32(m.slots);
  e.i64(m.iterations);
  return e.take();
}

SubmitProgramReply decode_submit_program_reply(
    const std::vector<std::uint8_t>& payload) {
  Decoder d(payload);
  SubmitProgramReply m;
  m.program_id = d.u64();
  m.threads = d.u32();
  m.channels = d.u32();
  m.slots = d.u32();
  m.iterations = d.i64();
  d.expect_done();
  return m;
}

std::vector<std::uint8_t> encode_run(const RunRequest& m) {
  Encoder e;
  e.u64(m.program_id);
  e.i64(m.iterations);
  e.u8(m.opts.pin_threads ? 1 : 0);
  e.i32(m.opts.work_per_cycle);
  return e.take();
}

RunRequest decode_run(const std::vector<std::uint8_t>& payload) {
  Decoder d(payload);
  RunRequest m;
  m.program_id = d.u64();
  m.iterations = d.i64();
  m.opts.pin_threads = d.u8() != 0;
  m.opts.work_per_cycle = d.i32();
  d.expect_done();
  return m;
}

std::vector<std::uint8_t> encode_run_reply(const ExecutionResult& m) {
  // The row count, per row its length and values, and the wall time,
  // written into one allocation of exactly the payload's size.
  const std::size_t n = m.values.row_length();
  Encoder e;
  e.reserve(4 + m.values.size() * (4 + 8 * n) + 8);
  e.u32(static_cast<std::uint32_t>(m.values.size()));
  for (std::size_t v = 0; v < m.values.size(); ++v) {
    std::uint8_t* out = e.extend(4 + 8 * n);
    store_le(out, static_cast<std::uint32_t>(n));
    out += 4;
    for (const double x : m.values[v]) {
      store_le(out, std::bit_cast<std::uint64_t>(x));
      out += 8;
    }
  }
  e.f64(m.wall_seconds);
  return e.take();
}

ExecutionResult decode_run_reply(const std::vector<std::uint8_t>& payload) {
  Decoder d(payload);
  // Every row must have the first row's length, and the payload must hold
  // them all: both are checked before the block is allocated.
  const std::uint32_t rows = d.count(4);
  const std::size_t n = rows == 0 ? 0 : d.count(8);
  const std::size_t stride = 4 + 8 * n;
  if (rows > (d.remaining() + 4) / stride) {
    throw WireError("row count times row length exceeds payload size");
  }
  const std::uint8_t* in = rows == 0 ? nullptr : d.block(rows * stride - 4);
  for (std::size_t v = 1; v < rows; ++v) {
    if (load_le<std::uint32_t>(in + v * stride - 4) != n) {
      throw WireError("result rows differ in length");
    }
  }
  ExecutionResult r{ResultBlock(rows, n)};
  for (std::size_t v = 0; v < rows; ++v, in += stride) {
    const std::span<double> row = r.values[v];
    for (std::size_t i = 0; i < n; ++i) {
      row[i] = std::bit_cast<double>(load_le<std::uint64_t>(in + 8 * i));
    }
  }
  r.wall_seconds = d.f64();
  d.expect_done();
  return r;
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReply& m) {
  Encoder e;
  e.reserve(27 * 8);  // the 27 u64s below; avoids a GCC 12 false -Warray-bounds
  e.u64(m.cache.hits);
  e.u64(m.cache.misses);
  e.u64(m.cache.evictions);
  e.u64(m.cache.entries);
  e.u64(m.cache.capacity);
  e.u64(m.pool_workers);
  e.u64(m.pool_gangs);
  e.u64(m.connections_accepted);
  e.u64(m.connections_active);
  e.u64(m.programs_registered);
  e.u64(m.runs_executed);
  e.u64(m.frame_quota_trips);
  e.u64(m.registry_quota_trips);
  e.u64(m.quota_disconnects);
  e.u64(m.accept_backoffs);
  e.u64(m.jit_enabled);
  e.u64(m.jit_compiles);
  e.u64(m.jit_failures);
  e.u64(m.jit_in_flight);
  e.u64(m.jit_native_runs);
  e.u64(m.jit_interpreted_runs);
  e.u64(m.jit_ineligible_runs);
  e.u64(m.jit_compile_estimate_us);
  e.u64(m.jit_deferred_runs);
  e.u64(m.one_thread_runs);
  e.u64(m.gang_runs);
  e.u64(m.jit_dropped_kernels);
  return e.take();
}

StatsReply decode_stats_reply(const std::vector<std::uint8_t>& payload) {
  Decoder d(payload);
  StatsReply m;
  m.cache.hits = d.u64();
  m.cache.misses = d.u64();
  m.cache.evictions = d.u64();
  m.cache.entries = static_cast<std::size_t>(d.u64());
  m.cache.capacity = static_cast<std::size_t>(d.u64());
  m.pool_workers = d.u64();
  m.pool_gangs = d.u64();
  m.connections_accepted = d.u64();
  m.connections_active = d.u64();
  m.programs_registered = d.u64();
  m.runs_executed = d.u64();
  m.frame_quota_trips = d.u64();
  m.registry_quota_trips = d.u64();
  m.quota_disconnects = d.u64();
  m.accept_backoffs = d.u64();
  m.jit_enabled = d.u64();
  m.jit_compiles = d.u64();
  m.jit_failures = d.u64();
  m.jit_in_flight = d.u64();
  m.jit_native_runs = d.u64();
  m.jit_interpreted_runs = d.u64();
  m.jit_ineligible_runs = d.u64();
  m.jit_compile_estimate_us = d.u64();
  m.jit_deferred_runs = d.u64();
  m.one_thread_runs = d.u64();
  m.gang_runs = d.u64();
  m.jit_dropped_kernels = d.u64();
  d.expect_done();
  return m;
}

std::vector<std::uint8_t> encode_error(const std::string& message) {
  Encoder e;
  e.str(message);
  return e.take();
}

std::string decode_error(const std::vector<std::uint8_t>& payload) {
  Decoder d(payload);
  std::string s = d.str();
  d.expect_done();
  return s;
}

std::vector<std::uint8_t> encode_drop_program(std::uint64_t program_id) {
  Encoder e;
  e.u64(program_id);
  return e.take();
}

std::uint64_t decode_drop_program(const std::vector<std::uint8_t>& payload) {
  Decoder d(payload);
  const std::uint64_t id = d.u64();
  d.expect_done();
  return id;
}

std::vector<std::uint8_t> encode_drop_program_reply(std::uint64_t program_id) {
  return encode_drop_program(program_id);
}

std::uint64_t decode_drop_program_reply(
    const std::vector<std::uint8_t>& payload) {
  return decode_drop_program(payload);
}

// ---------------------------------------------------------------------------
// Endpoints

namespace {

/// "host:port" -> Endpoint, validating the numeric port.  `allow_zero`
/// distinguishes the listen side (0 = ephemeral) from the connect side.
Endpoint parse_tcp_spec(const std::string& hp) {
  const std::size_t colon = hp.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == hp.size()) {
    throw WireError("TCP endpoint must be host:port: '" + hp + "'");
  }
  const std::string port_str = hp.substr(colon + 1);
  if (!std::all_of(port_str.begin(), port_str.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      })) {
    throw WireError("TCP port must be numeric: '" + hp + "'");
  }
  const unsigned long port = std::stoul(port_str);
  if (port > 65535) throw WireError("TCP port out of range: '" + hp + "'");
  Endpoint ep;
  ep.kind = Endpoint::Kind::Tcp;
  ep.host = hp.substr(0, colon);
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

/// True when a bare spec reads as host:port — numeric suffix after the
/// last ':' and no '/' anywhere (a filesystem path wins on ambiguity).
bool looks_like_tcp(const std::string& spec) {
  if (spec.find('/') != std::string::npos) return false;
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return false;
  }
  const std::string port = spec.substr(colon + 1);
  return std::all_of(port.begin(), port.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  if (spec.empty()) throw WireError("empty endpoint");
  if (spec.rfind("tcp:", 0) == 0) return parse_tcp_spec(spec.substr(4));
  if (spec.rfind("unix:", 0) == 0) {
    Endpoint ep;
    ep.path = spec.substr(5);
    if (ep.path.empty()) throw WireError("empty unix endpoint path");
    return ep;
  }
  if (looks_like_tcp(spec)) return parse_tcp_spec(spec);
  Endpoint ep;
  ep.path = spec;
  return ep;
}

std::string endpoint_to_string(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::Tcp) {
    return ep.host + ":" + std::to_string(ep.port);
  }
  return ep.path;
}

int connect_endpoint(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::Unix) {
    const sockaddr_un addr = make_unix_addr(ep.path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw WireError(std::string("socket() failed: ") + std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      throw WireError("connect(" + ep.path + ") failed: " + std::strerror(err));
    }
    return fd;
  }

  if (ep.port == 0) {
    throw WireError("cannot connect to port 0: '" + endpoint_to_string(ep) +
                    "'");
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(ep.host.c_str(),
                               std::to_string(ep.port).c_str(), &hints, &res);
  if (rc != 0) {
    throw WireError("cannot resolve " + endpoint_to_string(ep) + ": " +
                    ::gai_strerror(rc));
  }
  int fd = -1;
  int last_err = ECONNREFUSED;
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_err = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw WireError("connect(" + endpoint_to_string(ep) +
                    ") failed: " + std::strerror(last_err));
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::pair<int, std::uint16_t> listen_tcp(const std::string& host,
                                         std::uint16_t port, int backlog) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               std::to_string(port).c_str(), &hints, &res);
  if (rc != 0) {
    throw WireError("cannot resolve " + host + ":" + std::to_string(port) +
                    ": " + ::gai_strerror(rc));
  }
  int fd = -1;
  int last_err = EADDRNOTAVAIL;
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, backlog) == 0) {
      break;
    }
    last_err = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw WireError("listen(" + host + ":" + std::to_string(port) +
                    ") failed: " + std::strerror(last_err));
  }
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  std::uint16_t actual = port;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    if (bound.ss_family == AF_INET) {
      actual = ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      actual = ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  return {fd, actual};
}

// ---------------------------------------------------------------------------
// Framed I/O

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw WireError("socket path empty or too long: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

namespace {

void send_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("send failed: ") + std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Read exactly n bytes.  Returns false on EOF before the first byte;
/// throws on EOF mid-buffer or any error (EAGAIN/EWOULDBLOCK = SO_RCVTIMEO
/// expiry reads as a timeout).
bool recv_all(int fd, std::uint8_t* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, data + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireError("receive timed out");
      }
      throw WireError(std::string("recv failed: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0) return false;
      throw WireError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

namespace {

/// Little-endian header assembly shared by the fd writer and the
/// write-queue encoder — one place defines the byte layout.
void put_header(std::uint8_t* out, FrameType type, std::uint64_t request_id,
                std::uint32_t len) {
  store_le(out, len);
  out[4] = static_cast<std::uint8_t>(type);
  store_le(out + 5, request_id);
}

/// The payload length a header announces, before it is trusted.
std::uint32_t header_length(const std::uint8_t* h) {
  return load_le<std::uint32_t>(h);
}

/// Type and request id of a header whose length was already checked.
Frame header_frame(const std::uint8_t* h) {
  Frame f;
  f.type = static_cast<FrameType>(h[4]);
  f.request_id = load_le<std::uint64_t>(h + 5);
  return f;
}

}  // namespace

void write_frame(int fd, FrameType type, std::uint64_t request_id,
                 const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFramePayload) throw WireError("frame too large");
  std::uint8_t header[kHeaderBytes];
  put_header(header, type, request_id,
             static_cast<std::uint32_t>(payload.size()));
  send_all(fd, header, sizeof(header));
  if (!payload.empty()) send_all(fd, payload.data(), payload.size());
}

std::optional<Frame> read_frame(int fd) {
  std::uint8_t header[kHeaderBytes];
  if (!recv_all(fd, header, sizeof(header))) return std::nullopt;
  const std::uint32_t len = header_length(header);
  if (len > kMaxFramePayload) throw WireError("frame length exceeds limit");
  Frame f = header_frame(header);
  f.payload.resize(len);
  if (len > 0 && !recv_all(fd, f.payload.data(), len)) {
    throw WireError("connection closed mid-frame");
  }
  return f;
}

std::vector<std::uint8_t> encode_frame_bytes(
    FrameType type, std::uint64_t request_id,
    const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFramePayload) throw WireError("frame too large");
  std::vector<std::uint8_t> out(kHeaderBytes + payload.size());
  put_header(out.data(), type, request_id,
             static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), out.begin() + kHeaderBytes);
  return out;
}

void FrameBuffer::append(const std::uint8_t* data, std::size_t n) {
  // Compact the consumed prefix before it dominates the buffer — keeps
  // the buffer proportional to the unparsed remainder, not to the
  // connection's lifetime traffic.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameBuffer::next() {
  if (buffered() < kHeaderBytes) return std::nullopt;
  const std::uint8_t* h = buf_.data() + pos_;
  const std::uint32_t len = header_length(h);
  if (len > kMaxFramePayload) throw WireError("frame length exceeds limit");
  if (buffered() < kHeaderBytes + len) return std::nullopt;
  Frame f = header_frame(h);
  f.payload.assign(h + kHeaderBytes, h + kHeaderBytes + len);
  pos_ += kHeaderBytes + len;
  return f;
}

}  // namespace mimd::wire
