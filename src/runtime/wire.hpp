// Wire protocol for the plan-service daemon (mimdd) — length-prefixed
// binary frames over a connected stream socket (Unix domain or TCP; the
// framing is byte-identical over both families), carrying the exact structures
// the in-process plan service already consumes (PartitionedProgram, Ddg,
// CompileOptions) and produces (ExecutionResult, PlanCache::Stats).
//
// Framing: every frame, in both directions and from a connection's first
// byte, is
//
//     u32  payload length (little-endian, excludes the 13-byte header)
//     u8   FrameType
//     u64  request id (little-endian)
//     ...  payload (message-specific, see the encode_/decode_ pairs)
//
// so a reader always knows how many bytes to consume before it interprets
// anything — a malformed payload can fail to *decode* but can never
// desynchronize the stream.  The client picks request ids (monotonic, per
// connection); the server echoes a request's id on its reply — including
// Error replies — so replies may arrive in ANY order and a reader demuxes
// them by id.  Integers are fixed-width little-endian, stored and loaded
// one field at a time through a byte pointer (store_le / load_le: no
// struct aliasing, no host-endianness leak); doubles travel as their
// IEEE-754 bit pattern in a u64, so a value survives the round trip
// *bit-identically* — the differential suites compare daemon results
// against in-process and sequential execution with ==, not with a
// tolerance.
//
// There is exactly one framing and no version negotiation: client, server
// and every other peer ship from one source tree, and nothing on the wire
// is persisted.
//
// Division of labor: this header is pure serialization + framed I/O over
// an fd.  Connection lifecycle lives in plan_client.hpp / plan_server.hpp.
//
// Request/reply types:
//     SubmitProgram -> SubmitProgramReply   register a program, get an id
//     Run           -> RunReply             execute one registered program
//     Stats         -> StatsReply           cache/pool/server counters
//     Shutdown      -> ShutdownReply        ack, then the server drains
//     DropProgram   -> DropProgramReply     evict one registered id
//     Ping          -> Pong                 liveness probe
// Any request can instead yield Error (a human-readable message); the
// connection stays usable afterwards.
#pragma once

#include <sys/un.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/ddg.hpp"
#include "partition/compiled_program.hpp"
#include "partition/partitioned_loop.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan_cache.hpp"

namespace mimd::wire {

/// Thrown on framing/decoding violations: truncated buffers, oversize
/// frames, out-of-range ids, or I/O errors while reading/writing a frame.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

enum class FrameType : std::uint8_t {
  // Requests (client -> server).  3 and 67 are unassigned: like any
  // unknown type, a frame of either gets an Error reply.
  SubmitProgram = 1,
  Run = 2,
  Stats = 4,
  Shutdown = 5,
  DropProgram = 6,
  /// Liveness probe: empty payload, answered inline with Pong echoing the
  /// request id.  Lets an idle client detect a wedged server without a
  /// real request in flight.  Exempt from the frame-rate bucket:
  /// heartbeats must not eat into a tenant's quota.
  Ping = 9,
  // Replies (server -> client): request type + 64.
  SubmitProgramReply = 65,
  RunReply = 66,
  StatsReply = 68,
  ShutdownReply = 69,
  DropProgramReply = 70,
  Pong = 73,
  Error = 127,
};

/// Frame header size: u32 length + u8 type + u64 request id.
inline constexpr std::size_t kHeaderBytes = 13;

/// A parsed frame.
struct Frame {
  FrameType type = FrameType::Error;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Refuse frames larger than this (64 MiB): a corrupt length prefix must
/// not become a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

// ---------------------------------------------------------------------------
// Primitive encoding

/// Write `v` little-endian at `p`: one copy of the value on a
/// little-endian host, bytewise shifts on any other, the same bytes on
/// both.
template <class U>
inline void store_le(std::uint8_t* p, U v) {
  static_assert(std::is_unsigned_v<U>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

/// Read a little-endian `U` at `p`; the inverse of store_le.
template <class U>
[[nodiscard]] inline U load_le(const std::uint8_t* p) {
  static_assert(std::is_unsigned_v<U>);
  U v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v |= static_cast<U>(p[i]) << (8 * i);
    }
  }
  return v;
}

/// Append-only little-endian byte sink.  A block whose size is known
/// (a processor program's ops, a row of values) grows the buffer once
/// through extend() and is written through the returned pointer.
class Encoder {
 public:
  void u8(std::uint8_t v) { *extend(1) = v; }
  void u32(std::uint32_t v) { store_le(extend(4), v); }
  void u64(std::uint64_t v) { store_le(extend(8), v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern — bit-exact, NaN payloads and -0.0 included.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s);
  /// Capacity for `bytes` more bytes, so a payload whose size is known up
  /// front is written into one allocation.
  void reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }
  /// Grow by `bytes` and return where they start.  The pointer is valid
  /// until the next call that grows the buffer.
  [[nodiscard]] std::uint8_t* extend(std::size_t bytes) {
    const std::size_t at = buf_.size();
    buf_.resize(at + bytes);
    return buf_.data() + at;
  }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked cursor over a received payload.  Every read throws
/// WireError instead of walking past the end, so a truncated or hostile
/// payload is an exception, never undefined behavior.  A block whose
/// size a count() guard fixed is checked once, by block(), and its
/// fields are read with load_le.
class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Decoder(const std::vector<std::uint8_t>& payload)
      : Decoder(payload.data(), payload.size()) {}

  std::uint8_t u8() { return *block(1); }
  std::uint32_t u32() { return load_le<std::uint32_t>(block(4)); }
  std::uint64_t u64() { return load_le<std::uint64_t>(block(8)); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str();

  /// The next `bytes` bytes, checked once against the payload's end.
  [[nodiscard]] const std::uint8_t* block(std::size_t bytes) {
    if (bytes > remaining()) throw WireError("truncated payload");
    const std::uint8_t* p = data_ + pos_;
    pos_ += bytes;
    return p;
  }

  /// Guard for count-prefixed arrays: a claimed element count whose
  /// minimal encoding cannot fit in the remaining bytes is rejected
  /// before anything is allocated.
  std::uint32_t count(std::size_t min_bytes_per_element);

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  void expect_done() const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Structure encoding (shared by requests and replies)

void encode_ddg(Encoder& e, const Ddg& g);
[[nodiscard]] Ddg decode_ddg(Decoder& d);

void encode_program(Encoder& e, const PartitionedProgram& p);
[[nodiscard]] PartitionedProgram decode_program(Decoder& d);

// ---------------------------------------------------------------------------
// Messages

struct SubmitProgramRequest {
  PartitionedProgram program;
  Ddg graph;
  CompileOptions copts;
};

struct SubmitProgramReply {
  /// Connection-scoped handle for Run / DropProgram.
  std::uint64_t program_id = 0;
  std::uint32_t threads = 0;
  std::uint32_t channels = 0;
  std::uint32_t slots = 0;
  std::int64_t iterations = 0;
};

/// The remotely settable subset of RunOptions.  The pool is always the
/// server's shared pool.
struct RemoteRunOptions {
  bool pin_threads = false;
  int work_per_cycle = 0;
};

struct RunRequest {
  std::uint64_t program_id = 0;
  /// 0 = the program's own compiled iteration count; any other value
  /// must equal it (the server answers a mismatch with an Error frame).
  std::int64_t iterations = 0;
  RemoteRunOptions opts;
};

/// The one stats record: PlanServer::stats() fills it, and the Stats
/// frame encodes it as is (cache.jit_* travel as the jit_* fields below).
struct StatsReply {
  PlanCache::Stats cache;
  std::uint64_t pool_workers = 0;
  std::uint64_t pool_gangs = 0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t programs_registered = 0;
  std::uint64_t runs_executed = 0;
  // Hostile-tenant counters (PlanServer quotas): how often connections hit
  // the per-connection frame-rate / registry-size quotas, how many repeat
  // offenders were disconnected, and how often the accept loop had to back
  // off on fd exhaustion.  mimdc --fleet aggregates these across shards.
  std::uint64_t frame_quota_trips = 0;
  std::uint64_t registry_quota_trips = 0;
  std::uint64_t quota_disconnects = 0;
  std::uint64_t accept_backoffs = 0;
  // JIT counters (PR 7), appended so client and server — which ship
  // together — stay in lockstep.  jit_enabled is 0/1: configured on AND
  // the toolchain probe succeeded.  native/interpreted split counts only
  // runs executed while JIT was live, so --jit=off reports all zeros.
  std::uint64_t jit_enabled = 0;
  std::uint64_t jit_compiles = 0;
  std::uint64_t jit_failures = 0;
  std::uint64_t jit_in_flight = 0;
  std::uint64_t jit_native_runs = 0;
  std::uint64_t jit_interpreted_runs = 0;
  /// Runs that had a published kernel but still went interpreted (request
  /// shape outside what the kernel implements).
  std::uint64_t jit_ineligible_runs = 0;
  /// Why warm traffic is not native yet: the engine's expected compile
  /// time (µs), and the eligible runs served interpreted because their
  /// entry's runs had not yet taken that long in total.
  std::uint64_t jit_compile_estimate_us = 0;
  std::uint64_t jit_deferred_runs = 0;
  /// Which tier ran each interpreted run (runtime/executor.hpp, run_tier):
  /// the handler's own thread, or a gang of pool workers.  Native runs,
  /// always a gang, are jit_native_runs.
  std::uint64_t one_thread_runs = 0;
  std::uint64_t gang_runs = 0;
  /// Published kernels dropped because their native runs did not beat
  /// the entry's interpreted runs (PlanCache::record_native_run).
  std::uint64_t jit_dropped_kernels = 0;
};

[[nodiscard]] std::vector<std::uint8_t> encode_submit_program(
    const SubmitProgramRequest& m);
/// The same payload, encoded straight from the caller's program and graph
/// (PlanClient::submit_program_async) instead of from copies of them.
[[nodiscard]] std::vector<std::uint8_t> encode_submit_program(
    const PartitionedProgram& program, const Ddg& graph,
    const CompileOptions& copts);
[[nodiscard]] SubmitProgramRequest decode_submit_program(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_submit_program_reply(
    const SubmitProgramReply& m);
[[nodiscard]] SubmitProgramReply decode_submit_program_reply(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_run(const RunRequest& m);
[[nodiscard]] RunRequest decode_run(const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_run_reply(
    const ExecutionResult& m);
[[nodiscard]] ExecutionResult decode_run_reply(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_stats_reply(
    const StatsReply& m);
[[nodiscard]] StatsReply decode_stats_reply(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_error(
    const std::string& message);
[[nodiscard]] std::string decode_error(
    const std::vector<std::uint8_t>& payload);

/// DropProgram evicts one registered id from the connection's registry
/// (the reply echoes the id).  Dropping an unknown id is an Error frame,
/// not a disconnect.
[[nodiscard]] std::vector<std::uint8_t> encode_drop_program(
    std::uint64_t program_id);
[[nodiscard]] std::uint64_t decode_drop_program(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_drop_program_reply(
    std::uint64_t program_id);
[[nodiscard]] std::uint64_t decode_drop_program_reply(
    const std::vector<std::uint8_t>& payload);

// ---------------------------------------------------------------------------
// Endpoints: one string names a server over either socket family
//
// The daemon listens on a Unix path, a TCP host:port, or both; clients,
// the shard router, and the CLI tools all take endpoint *strings* so a
// shards file can mix families freely.  Grammar:
//
//     unix:<path>        explicit Unix-domain path
//     tcp:<host>:<port>  explicit TCP
//     <host>:<port>      bare TCP shorthand (numeric port, no '/')
//     <path>             anything else is a Unix-domain path
//
// Port 0 is valid for *listening* (the kernel picks an ephemeral port,
// reported back via PlanServer::tcp_port) and rejected for connecting.

struct Endpoint {
  enum class Kind : std::uint8_t { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;         ///< Unix only
  std::string host;         ///< TCP only
  std::uint16_t port = 0;   ///< TCP only; 0 = ephemeral (listen side)
};

/// Parse the grammar above.  Throws WireError on an empty spec, a
/// malformed tcp: form, or an out-of-range port.
[[nodiscard]] Endpoint parse_endpoint(const std::string& spec);

/// Render back to the bare form parse_endpoint accepts round-trip.
[[nodiscard]] std::string endpoint_to_string(const Endpoint& ep);

/// Connect a stream socket to `ep` (TCP gets TCP_NODELAY — frames are
/// small and latency-bound, so Nagle would hold each one behind a
/// delayed ACK).  Returns the connected fd; throws WireError.
[[nodiscard]] int connect_endpoint(const Endpoint& ep);

/// Bind + listen on host:port (port 0 = kernel-assigned) with
/// SO_REUSEADDR.  Returns {listening fd, actual port}.  Throws WireError.
[[nodiscard]] std::pair<int, std::uint16_t> listen_tcp(
    const std::string& host, std::uint16_t port, int backlog);

// ---------------------------------------------------------------------------
// Framed I/O over a connected socket fd

/// Fill an AF_UNIX address for `path`, throwing WireError when the path
/// is empty or exceeds sun_path.  The one place the limit is enforced —
/// PlanServer::start (bind) and PlanClient::connect share it.
[[nodiscard]] sockaddr_un make_unix_addr(const std::string& path);

/// Write one frame, handling partial writes and EINTR; MSG_NOSIGNAL keeps
/// a dead peer an exception (WireError), not a SIGPIPE.
void write_frame(int fd, FrameType type, std::uint64_t request_id,
                 const std::vector<std::uint8_t>& payload);

/// Read one frame.  Returns nullopt on clean EOF *between* frames; throws
/// WireError on EOF mid-frame, an oversize length prefix, a receive
/// timeout (SO_RCVTIMEO), or any other I/O error.
[[nodiscard]] std::optional<Frame> read_frame(int fd);

/// Serialize one frame — header and payload — into a contiguous byte
/// blob.  This is the write-queue form: the epoll server enqueues these
/// and flushes them with nonblocking sends, so a frame must exist as
/// bytes independent of any fd.
[[nodiscard]] std::vector<std::uint8_t> encode_frame_bytes(
    FrameType type, std::uint64_t request_id,
    const std::vector<std::uint8_t>& payload);

/// Incremental frame reassembly for nonblocking reads: append whatever
/// recv produced, then pop complete frames until next() returns nullopt
/// (= a partial frame is buffered, feed more bytes).
///
/// Throws WireError from next() on an oversize length prefix; the caller
/// drops the connection (a desynchronized stream cannot be resynced).
class FrameBuffer {
 public:
  void append(const std::uint8_t* data, std::size_t n);
  [[nodiscard]] std::optional<Frame> next();

  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< parse cursor; consumed prefix compacted lazily
};

}  // namespace mimd::wire
