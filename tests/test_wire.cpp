// Wire-protocol round-trips and hostile-input hardening.  Every message
// the daemon speaks must survive encode -> decode bit-identically (the
// differential suites compare doubles with ==), and every truncated or
// corrupted payload must raise WireError — never crash, never read out of
// bounds (the ASan+UBSan CI job runs this suite for exactly that).  The
// WireDifferential tests hold the codec to the bytewise one it replaced
// (tests/support/reference_wire.hpp), byte for byte and verdict for
// verdict.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <random>
#include <thread>

#include "runtime/wire.hpp"
#include "support/loop_gen.hpp"
#include "support/reference_wire.hpp"

namespace mimd {
namespace {

using wire::Decoder;
using wire::Encoder;
using wire::FrameType;
using wire::WireError;

Ddg sample_graph() {
  Ddg g;
  g.add_node("A#1", 2);  // unroller-style name: must survive verbatim
  g.add_node("B", 1);
  g.add_node("C", 3);
  g.add_edge(0u, 1u, 0, 5);
  g.add_edge(1u, 2u, 0);
  g.add_edge(2u, 0u, 1);
  return g;
}

PartitionedProgram sample_program() {
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[0].ops.push_back(
      Op{Op::Kind::Compute, Inst{0u, 0}, 0u, -1});
  p.programs[0].ops.push_back(Op{Op::Kind::Send, Inst{0u, 0}, 0u, 1});
  p.programs[1].proc = 1;
  p.programs[1].ops.push_back(Op{Op::Kind::Receive, Inst{0u, 0}, 0u, 0});
  p.programs[1].ops.push_back(
      Op{Op::Kind::Compute, Inst{1u, 7}, 2u, -1});
  return p;
}

TEST(Wire, PrimitiveRoundTrip) {
  Encoder e;
  e.u8(0xAB);
  e.u32(0xDEADBEEFu);
  e.u64(0x0123456789ABCDEFull);
  e.i64(-42);
  e.f64(-0.0);
  e.str(std::string("hello \n\0 world", 14));  // embedded NUL survives
  Decoder d(e.bytes().data(), e.bytes().size());
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.i64(), -42);
  const double z = d.f64();
  EXPECT_EQ(z, 0.0);
  EXPECT_TRUE(std::signbit(z));  // -0.0 preserved bit-exactly
  EXPECT_EQ(d.str(), std::string("hello \n\0 world", 14));
  d.expect_done();
}

TEST(Wire, DoublesTravelBitExactly) {
  // NaN payloads and denormals must survive: the oracle is operator==,
  // and a NaN that came back as a *different* NaN would break nothing
  // today but would silently weaken the bitwise guarantee.
  const std::uint64_t nan_bits = 0x7FF8DEADBEEF0001ull;
  double weird_nan = 0.0;
  std::memcpy(&weird_nan, &nan_bits, sizeof(weird_nan));
  Encoder e;
  e.f64(weird_nan);
  e.f64(5e-324);  // smallest denormal
  Decoder d(e.bytes().data(), e.bytes().size());
  const double back = d.f64();
  std::uint64_t back_bits = 0;
  std::memcpy(&back_bits, &back, sizeof(back_bits));
  EXPECT_EQ(back_bits, nan_bits);
  EXPECT_EQ(d.f64(), 5e-324);
}

TEST(Wire, SubmitProgramRoundTrip) {
  wire::SubmitProgramRequest req;
  req.program = sample_program();
  req.graph = sample_graph();
  req.copts.opt = OptLevel::O1;
  const auto payload = wire::encode_submit_program(req);
  const wire::SubmitProgramRequest back = wire::decode_submit_program(payload);
  EXPECT_EQ(back.program, req.program);
  EXPECT_EQ(back.copts, req.copts);
  EXPECT_EQ(back.copts.opt, OptLevel::O1);
  ASSERT_EQ(back.graph.num_nodes(), req.graph.num_nodes());
  ASSERT_EQ(back.graph.num_edges(), req.graph.num_edges());
  for (NodeId v = 0; v < back.graph.num_nodes(); ++v) {
    EXPECT_EQ(back.graph.node(v).name, req.graph.node(v).name);
    EXPECT_EQ(back.graph.node(v).latency, req.graph.node(v).latency);
  }
  for (EdgeId ed = 0; ed < back.graph.num_edges(); ++ed) {
    EXPECT_EQ(back.graph.edge(ed).src, req.graph.edge(ed).src);
    EXPECT_EQ(back.graph.edge(ed).dst, req.graph.edge(ed).dst);
    EXPECT_EQ(back.graph.edge(ed).distance, req.graph.edge(ed).distance);
    EXPECT_EQ(back.graph.edge(ed).comm_cost, req.graph.edge(ed).comm_cost);
  }
}

TEST(Wire, GeneratedProgramRoundTripsExactly) {
  // The real payload shape: a loop_gen program, as the fuzz suite and
  // mimdc --connect submit it.
  const testsupport::GeneratedLoop gl = testsupport::generate_loop(11);
  wire::SubmitProgramRequest req;
  req.program = gl.program;
  req.graph = gl.graph;
  const auto payload = wire::encode_submit_program(req);
  const wire::SubmitProgramRequest back = wire::decode_submit_program(payload);
  EXPECT_EQ(back.program, gl.program);
  EXPECT_TRUE(structurally_equivalent(back.graph, gl.graph));
}

TEST(Wire, SubmitPayloadIsEncodedFromTheCallersDataInOneAllocation) {
  // The client encodes straight from its program and graph, into a
  // buffer reserved at the payload's exact size.
  const testsupport::GeneratedLoop gl = testsupport::generate_loop(12);
  CompileOptions copts;
  copts.opt = OptLevel::O1;
  const auto payload =
      wire::encode_submit_program(gl.program, gl.graph, copts);
  EXPECT_EQ(payload.capacity(), payload.size());
  EXPECT_EQ(payload,
            wire::encode_submit_program({gl.program, gl.graph, copts}));
  const wire::SubmitProgramRequest back = wire::decode_submit_program(payload);
  EXPECT_EQ(back.program, gl.program);
  EXPECT_EQ(back.copts, copts);
  EXPECT_TRUE(structurally_equivalent(back.graph, gl.graph));
}

TEST(Wire, RunAndBatchRoundTrip) {
  wire::RunRequest run;
  run.program_id = 99;
  run.iterations = 1234;
  run.opts.pin_threads = true;
  run.opts.work_per_cycle = 7;
  const wire::RunRequest run_back = wire::decode_run(wire::encode_run(run));
  EXPECT_EQ(run_back.program_id, 99u);
  EXPECT_EQ(run_back.iterations, 1234);
  EXPECT_TRUE(run_back.opts.pin_threads);
  EXPECT_EQ(run_back.opts.work_per_cycle, 7);
}

TEST(Wire, ResultAndStatsRoundTrip) {
  ExecutionResult r{ResultBlock(3, 2)};
  r.values[0][0] = 1.0;
  r.values[0][1] = 2.5;
  r.values[1][0] = -3.75;
  r.values[2][1] = 0.0625;
  r.wall_seconds = 0.125;
  const ExecutionResult r_back =
      wire::decode_run_reply(wire::encode_run_reply(r));
  EXPECT_EQ(r_back.values, r.values);
  EXPECT_EQ(r_back.wall_seconds, 0.125);

  wire::StatsReply s;
  s.cache.hits = 10;
  s.cache.misses = 3;
  s.cache.evictions = 1;
  s.cache.entries = 2;
  s.cache.capacity = 64;
  s.pool_workers = 8;
  s.pool_gangs = 55;
  s.connections_accepted = 7;
  s.connections_active = 2;
  s.programs_registered = 12;
  s.runs_executed = 40;
  s.frame_quota_trips = 5;
  s.registry_quota_trips = 4;
  s.quota_disconnects = 3;
  s.accept_backoffs = 2;
  s.jit_enabled = 1;
  s.jit_compiles = 9;
  s.jit_failures = 1;
  s.jit_in_flight = 2;
  s.jit_native_runs = 30;
  s.jit_interpreted_runs = 11;
  s.jit_ineligible_runs = 6;
  s.jit_compile_estimate_us = 98765;
  s.jit_deferred_runs = 4;
  s.one_thread_runs = 21;
  s.gang_runs = 13;
  s.jit_dropped_kernels = 3;
  const wire::StatsReply s_back =
      wire::decode_stats_reply(wire::encode_stats_reply(s));
  EXPECT_EQ(s_back.cache.hits, 10u);
  EXPECT_EQ(s_back.cache.misses, 3u);
  EXPECT_EQ(s_back.cache.capacity, 64u);
  EXPECT_EQ(s_back.pool_gangs, 55u);
  EXPECT_EQ(s_back.runs_executed, 40u);
  EXPECT_EQ(s_back.frame_quota_trips, 5u);
  EXPECT_EQ(s_back.registry_quota_trips, 4u);
  EXPECT_EQ(s_back.quota_disconnects, 3u);
  EXPECT_EQ(s_back.accept_backoffs, 2u);
  EXPECT_EQ(s_back.jit_enabled, 1u);
  EXPECT_EQ(s_back.jit_compiles, 9u);
  EXPECT_EQ(s_back.jit_failures, 1u);
  EXPECT_EQ(s_back.jit_in_flight, 2u);
  EXPECT_EQ(s_back.jit_native_runs, 30u);
  EXPECT_EQ(s_back.jit_interpreted_runs, 11u);
  EXPECT_EQ(s_back.jit_ineligible_runs, 6u);
  EXPECT_EQ(s_back.jit_compile_estimate_us, 98765u);
  EXPECT_EQ(s_back.jit_deferred_runs, 4u);
  EXPECT_EQ(s_back.one_thread_runs, 21u);
  EXPECT_EQ(s_back.gang_runs, 13u);
  EXPECT_EQ(s_back.jit_dropped_kernels, 3u);
  // Each field is a fixed 8 bytes, appended in declaration order.
  EXPECT_EQ(wire::encode_stats_reply(s).size(), 27u * 8u);
}

TEST(Wire, ErrorRoundTrip) {
  const auto payload = wire::encode_error("no such program id 5");
  EXPECT_EQ(wire::decode_error(payload), "no such program id 5");
}

TEST(Wire, EveryTruncatedPrefixThrowsInsteadOfCrashing) {
  // The sharpest decoder property: for a valid payload, EVERY strict
  // prefix must throw WireError — a single silent success would mean an
  // unchecked read.  (Trailing-byte detection is expect_done's job,
  // checked separately below.)
  wire::SubmitProgramRequest req;
  req.program = sample_program();
  req.graph = sample_graph();
  const auto payload = wire::encode_submit_program(req);
  ASSERT_GT(payload.size(), 10u);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(payload.begin(),
                                           payload.begin() + cut);
    EXPECT_THROW((void)wire::decode_submit_program(prefix), WireError)
        << "prefix length " << cut;
  }
}

TEST(Wire, TrailingBytesAreRejected) {
  auto payload = wire::encode_run(wire::RunRequest{});
  payload.push_back(0);
  EXPECT_THROW((void)wire::decode_run(payload), WireError);
}

TEST(Wire, HostileCountsAndEnumsAreRejected) {
  {
    // The count guard is exact: six 21-byte elements fit in 126 bytes,
    // and one byte less is rejected by the guard itself — before any
    // element is read.
    Encoder e;
    e.u32(6);
    for (int i = 0; i < 6 * 21; ++i) e.u8(0);
    Decoder fits(e.bytes());
    EXPECT_EQ(fits.count(21), 6u);
    Decoder one_short(e.bytes().data(), e.bytes().size() - 1);
    EXPECT_THROW((void)one_short.count(21), WireError);
  }
  {
    // A node count far beyond the payload must be rejected before any
    // allocation happens.
    Encoder e;
    e.u32(0xFFFFFFFFu);
    EXPECT_THROW((void)wire::decode_submit_program(e.bytes()), WireError);
  }
  {
    // Edge endpoints out of range.
    Encoder e;
    wire::encode_program(e, sample_program());
    e.u32(1);  // one node
    e.str("A");
    e.i32(1);
    e.u32(1);   // one edge
    e.u32(7);   // src out of range
    e.u32(0);
    e.i32(0);
    e.i32(-1);
    e.u8(0);  // opt level
    EXPECT_THROW((void)wire::decode_submit_program(e.bytes()), WireError);
  }
  {
    // Invalid opt level: the trailing byte of an otherwise valid
    // submit-program payload.
    wire::SubmitProgramRequest req;
    req.program = sample_program();
    req.graph = sample_graph();
    auto payload = wire::encode_submit_program(req);
    payload.back() = 7;
    EXPECT_THROW((void)wire::decode_submit_program(payload), WireError);
  }
  {
    // Graph-invariant violations (duplicate names, zero latency) surface
    // as WireError, not as a ContractViolation escaping the decoder.
    Encoder e;
    wire::encode_program(e, sample_program());
    e.u32(2);
    e.str("A");
    e.i32(1);
    e.str("A");  // duplicate name
    e.i32(1);
    e.u32(0);
    e.u8(0);
    EXPECT_THROW((void)wire::decode_submit_program(e.bytes()), WireError);
  }
}

TEST(Wire, RandomGarbagePayloadsNeverCrashTheDecoders) {
  // Fuzz-lite, deterministic: every decoder fed random bytes must either
  // succeed (vacuously fine) or throw WireError — any other behavior
  // (crash, OOB read, foreign exception) fails the test or trips ASan.
  std::mt19937_64 rng(0xF00DF00Dull);
  for (int round = 0; round < 256; ++round) {
    std::vector<std::uint8_t> junk(rng() % 160);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    const auto poke = [&](auto&& decode) {
      try {
        (void)decode(junk);
      } catch (const WireError&) {
        // expected for nearly all inputs
      }
    };
    poke([](const auto& p) { return wire::decode_submit_program(p); });
    poke([](const auto& p) { return wire::decode_submit_program_reply(p); });
    poke([](const auto& p) { return wire::decode_run(p); });
    poke([](const auto& p) { return wire::decode_run_reply(p); });
    poke([](const auto& p) { return wire::decode_stats_reply(p); });
    poke([](const auto& p) { return wire::decode_error(p); });
  }
}

TEST(Wire, FramedIoRoundTripsOverASocketpair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const auto payload = wire::encode_error("ping");
  wire::write_frame(fds[0], FrameType::Error, 1, payload);
  wire::write_frame(fds[0], FrameType::Stats, 2, {});
  const auto f1 = wire::read_frame(fds[1]);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, FrameType::Error);
  EXPECT_EQ(wire::decode_error(f1->payload), "ping");
  const auto f2 = wire::read_frame(fds[1]);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, FrameType::Stats);
  EXPECT_TRUE(f2->payload.empty());
  // Clean EOF between frames reads as nullopt...
  ::close(fds[0]);
  EXPECT_FALSE(wire::read_frame(fds[1]).has_value());
  ::close(fds[1]);
}

TEST(Wire, EofMidFrameAndOversizeLengthThrow) {
  {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Header promising 100 bytes, then EOF.
    const std::uint8_t partial[wire::kHeaderBytes] = {
        100, 0, 0, 0, static_cast<std::uint8_t>(2), 1, 0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(::send(fds[0], partial, sizeof(partial), 0),
              static_cast<ssize_t>(sizeof(partial)));
    ::close(fds[0]);
    EXPECT_THROW((void)wire::read_frame(fds[1]), WireError);
    ::close(fds[1]);
  }
  {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Length prefix beyond kMaxFramePayload: rejected before allocating.
    const std::uint8_t huge[wire::kHeaderBytes] = {0xFF, 0xFF, 0xFF, 0xFF, 1};
    ASSERT_EQ(::send(fds[0], huge, sizeof(huge), 0),
              static_cast<ssize_t>(sizeof(huge)));
    EXPECT_THROW((void)wire::read_frame(fds[1]), WireError);
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

TEST(Wire, EndpointGrammar) {
  // Explicit prefixes.
  wire::Endpoint ep = wire::parse_endpoint("unix:/run/mimdd.sock");
  EXPECT_EQ(ep.kind, wire::Endpoint::Kind::Unix);
  EXPECT_EQ(ep.path, "/run/mimdd.sock");
  ep = wire::parse_endpoint("tcp:localhost:7070");
  EXPECT_EQ(ep.kind, wire::Endpoint::Kind::Tcp);
  EXPECT_EQ(ep.host, "localhost");
  EXPECT_EQ(ep.port, 7070);

  // Bare TCP shorthand: numeric port, no '/'.
  ep = wire::parse_endpoint("127.0.0.1:0");
  EXPECT_EQ(ep.kind, wire::Endpoint::Kind::Tcp);
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 0);

  // Anything with a '/' — or without a numeric suffix — is a Unix path,
  // so every pre-TCP caller keeps meaning what it meant.
  ep = wire::parse_endpoint("/tmp/with:colon.sock");
  EXPECT_EQ(ep.kind, wire::Endpoint::Kind::Unix);
  EXPECT_EQ(ep.path, "/tmp/with:colon.sock");
  ep = wire::parse_endpoint("relative.sock");
  EXPECT_EQ(ep.kind, wire::Endpoint::Kind::Unix);

  // Round trip through endpoint_to_string.
  for (const char* spec :
       {"/tmp/a.sock", "127.0.0.1:7070", "localhost:0"}) {
    const wire::Endpoint e1 = wire::parse_endpoint(spec);
    const wire::Endpoint e2 = wire::parse_endpoint(wire::endpoint_to_string(e1));
    EXPECT_EQ(e1.kind, e2.kind);
    EXPECT_EQ(e1.path, e2.path);
    EXPECT_EQ(e1.host, e2.host);
    EXPECT_EQ(e1.port, e2.port);
  }

  EXPECT_THROW((void)wire::parse_endpoint(""), WireError);
  EXPECT_THROW((void)wire::parse_endpoint("tcp:nohost"), WireError);
  EXPECT_THROW((void)wire::parse_endpoint("tcp:h:99999"), WireError);
  EXPECT_THROW((void)wire::parse_endpoint("tcp:h:not_a_port"), WireError);
}

TEST(Wire, TcpListenConnectRoundTrip) {
  // Ephemeral listen, connect, one frame each way — the same framing
  // code, now over AF_INET.
  const auto [lfd, port] = wire::listen_tcp("127.0.0.1", 0, 4);
  ASSERT_GE(lfd, 0);
  ASSERT_NE(port, 0);
  wire::Endpoint ep;
  ep.kind = wire::Endpoint::Kind::Tcp;
  ep.host = "127.0.0.1";
  ep.port = port;
  const int cfd = wire::connect_endpoint(ep);
  ASSERT_GE(cfd, 0);
  const int sfd = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(sfd, 0);
  wire::write_frame(cfd, FrameType::Error, 1, wire::encode_error("over tcp"));
  const auto f = wire::read_frame(sfd);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(wire::decode_error(f->payload), "over tcp");
  // Connecting to port 0 is rejected client-side.
  ep.port = 0;
  EXPECT_THROW((void)wire::connect_endpoint(ep), WireError);
  ::close(cfd);
  ::close(sfd);
  ::close(lfd);
}

TEST(Wire, DropProgramRoundTrip) {
  EXPECT_EQ(wire::decode_drop_program(wire::encode_drop_program(0xDEADull)),
            0xDEADull);
  EXPECT_EQ(wire::decode_drop_program_reply(
                wire::encode_drop_program_reply(0xBEEFull)),
            0xBEEFull);

  // Same strict-prefix property the other messages hold.
  const auto dp = wire::encode_drop_program(1);
  for (std::size_t cut = 0; cut < dp.size(); ++cut) {
    EXPECT_THROW((void)wire::decode_drop_program(std::vector<std::uint8_t>(
                     dp.begin(), dp.begin() + cut)),
                 WireError);
  }
  auto trailing = dp;
  trailing.push_back(0);  // trailing bytes rejected
  EXPECT_THROW((void)wire::decode_drop_program(trailing), WireError);
}

TEST(Wire, V2FramesCarryRequestIdsInAnyOrder) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Replies written out of submission order — the point of request ids.
  wire::write_frame(fds[0], FrameType::Error, 9, wire::encode_error("b"));
  wire::write_frame(fds[0], FrameType::Error, 2, wire::encode_error("a"));
  wire::write_frame(fds[0], FrameType::StatsReply, 0xFFFFFFFFFFFFFFFFull, {});
  const auto f1 = wire::read_frame(fds[1]);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->request_id, 9u);
  EXPECT_EQ(wire::decode_error(f1->payload), "b");
  const auto f2 = wire::read_frame(fds[1]);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->request_id, 2u);
  const auto f3 = wire::read_frame(fds[1]);
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(f3->request_id, 0xFFFFFFFFFFFFFFFFull);  // u64 survives whole
  ::close(fds[0]);
  EXPECT_FALSE(wire::read_frame(fds[1]).has_value());  // clean EOF
  ::close(fds[1]);
}

TEST(Wire, EncodeFrameBytesMatchesTheStreamingWriters) {
  // The epoll server's write queue holds encode_frame_bytes blobs; they
  // must be byte-identical to what write_frame puts on a socket, or a
  // queued reply would desynchronize the stream.
  const auto payload = wire::encode_error("x");
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::write_frame(fds[0], FrameType::Error, 42, payload);
  const auto blob = wire::encode_frame_bytes(FrameType::Error, 42, payload);
  ASSERT_EQ(blob.size(), wire::kHeaderBytes + payload.size());
  std::vector<std::uint8_t> streamed(blob.size() + 8);
  const ssize_t n = ::recv(fds[1], streamed.data(), streamed.size(), 0);
  ASSERT_EQ(static_cast<std::size_t>(n), blob.size());
  streamed.resize(blob.size());
  EXPECT_EQ(streamed, blob);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Wire, FrameBufferReassemblesAcrossArbitrarySplits) {
  // Three frames fed one byte at a time.  This is the nonblocking read
  // path's core property: split points never matter.
  std::vector<std::uint8_t> stream;
  const auto append = [&stream](const std::vector<std::uint8_t>& b) {
    stream.insert(stream.end(), b.begin(), b.end());
  };
  append(wire::encode_frame_bytes(FrameType::Ping, 6, {}));
  append(wire::encode_frame_bytes(FrameType::Run, 7,
                                  wire::encode_run(wire::RunRequest{})));
  append(wire::encode_frame_bytes(FrameType::Stats, 8, {}));

  wire::FrameBuffer fb;
  std::vector<wire::Frame> got;
  for (const std::uint8_t byte : stream) {
    fb.append(&byte, 1);
    while (auto f = fb.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].type, FrameType::Ping);
  EXPECT_EQ(got[0].request_id, 6u);
  EXPECT_EQ(got[1].type, FrameType::Run);
  EXPECT_EQ(got[1].request_id, 7u);
  EXPECT_EQ(wire::decode_run(got[1].payload).program_id, 0u);
  EXPECT_EQ(got[2].type, FrameType::Stats);
  EXPECT_EQ(got[2].request_id, 8u);
  EXPECT_EQ(fb.buffered(), 0u);
}

TEST(Wire, FrameBufferRejectsHostileHeadersInBothVersions) {
  {
    // Oversize length prefix: throws before any allocation.
    wire::FrameBuffer fb;
    const std::uint8_t huge[wire::kHeaderBytes] = {0xFF, 0xFF, 0xFF, 0xFF, 1};
    fb.append(huge, sizeof(huge));
    EXPECT_THROW((void)fb.next(), WireError);
  }
  // Deterministic garbage rounds: next() either yields frames or throws
  // WireError — nothing else, no OOB reads (ASan job).
  std::mt19937_64 rng(0xBADC0DEull);
  for (int round = 0; round < 256; ++round) {
    wire::FrameBuffer fb;
    std::vector<std::uint8_t> junk(rng() % 64);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    try {
      fb.append(junk.data(), junk.size());
      while (fb.next().has_value()) {
      }
    } catch (const WireError&) {
      // desynchronized stream — the caller drops the connection
    }
  }
}

TEST(Wire, RandomGarbageNeverCrashesTheV2Decoders) {
  // The DropProgram decoders join the fuzz-lite rotation from
  // RandomGarbagePayloadsNeverCrashTheDecoders.
  std::mt19937_64 rng(0xC0FFEEull);
  for (int round = 0; round < 256; ++round) {
    std::vector<std::uint8_t> junk(rng() % 64);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    const auto poke = [&](auto&& decode) {
      try {
        (void)decode(junk);
      } catch (const WireError&) {
      }
    };
    poke([](const auto& p) { return wire::decode_drop_program(p); });
    poke([](const auto& p) { return wire::decode_drop_program_reply(p); });
  }
}

TEST(Wire, LargeFrameSurvivesPartialSocketWrites) {
  // A frame bigger than any socket buffer exercises the send/recv loops'
  // partial-transfer handling; reader runs concurrently so the writer
  // cannot deadlock on a full buffer.
  ExecutionResult big{ResultBlock(64, 4096)};
  std::mt19937_64 rng(7);
  for (std::size_t v = 0; v < big.values.size(); ++v) {
    for (double& x : big.values[v]) x = static_cast<double>(rng()) / 3.0;
  }
  const auto payload = wire::encode_run_reply(big);
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer(
      [&] { wire::write_frame(fds[0], FrameType::RunReply, 1, payload); });
  const auto frame = wire::read_frame(fds[1]);
  writer.join();
  ASSERT_TRUE(frame.has_value());
  const ExecutionResult back = wire::decode_run_reply(frame->payload);
  EXPECT_EQ(back.values, big.values);
  ::close(fds[0]);
  ::close(fds[1]);
}

/// Why decode_run_reply refused `payload` ("accepted" if it did not).
std::string reply_refusal(const std::vector<std::uint8_t>& payload) {
  try {
    (void)wire::decode_run_reply(payload);
  } catch (const WireError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(Wire, RunReplyWithRowsOfDifferentLengthsIsRefusedBeforeAllocating) {
  // Three values, then two: the payload holds both rows, and the 2 x 3
  // block the first row implies fits in it, so only the length check can
  // refuse it — and it runs before the block is allocated.
  Encoder e;
  e.u32(2);
  e.u32(3);
  for (int i = 0; i < 3; ++i) e.f64(1.0);
  e.u32(2);
  for (int i = 0; i < 2; ++i) e.f64(2.0);
  e.f64(0.5);
  EXPECT_EQ(reply_refusal(e.bytes()), "result rows differ in length");
}

TEST(Wire, RunReplyLargerThanItsPayloadIsRefusedBeforeAllocating) {
  // 2^19 rows of 2^18 values (a 1 TiB block) in a 2 MiB payload that
  // holds the first row: the row count and the first row's length each
  // pass their own count() guard, their product does not.
  Encoder e;
  e.u32(1u << 19);
  e.u32(1u << 18);
  for (std::uint32_t i = 0; i < (1u << 18); ++i) e.f64(0.0);
  e.f64(0.0);
  EXPECT_EQ(reply_refusal(e.bytes()),
            "row count times row length exceeds payload size");
}

// ---- WireDifferential: the codec against the frozen bytewise one ----

namespace ref = testsupport::reference_wire;

struct SubmitCase {
  std::string tag;
  PartitionedProgram program;
  Ddg graph;
  CompileOptions copts;
};

/// loop_gen programs `first`..`last` (odd seeds at O1, even ones off).
std::vector<SubmitCase> generated_cases(std::uint64_t first,
                                        std::uint64_t last) {
  std::vector<SubmitCase> cases;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    testsupport::GeneratedLoop gl = testsupport::generate_loop(seed);
    CompileOptions copts;
    copts.opt = seed % 2 == 1 ? OptLevel::O1 : OptLevel::Off;
    cases.push_back({gl.tag, std::move(gl.program), std::move(gl.graph), copts});
  }
  return cases;
}

/// Names, latencies and edges: everything decode_ddg reads.
bool same_graph(const Ddg& a, const Ddg& b) {
  if (!structurally_equivalent(a, b)) return false;
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a.node(v).name != b.node(v).name) return false;
  }
  return true;
}

bool same_request(const wire::SubmitProgramRequest& a,
                  const wire::SubmitProgramRequest& b) {
  return a.program == b.program && same_graph(a.graph, b.graph) &&
         a.copts == b.copts;
}

/// Bit-pattern equality: NaNs compare by payload, -0.0 differs from 0.0.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The reference codec's rows of a block: what its encoder writes.
ref::Rows rows_of(const ExecutionResult& r) {
  ref::Rows rows;
  for (std::size_t v = 0; v < r.values.size(); ++v) {
    rows.values.emplace_back(r.values[v].begin(), r.values[v].end());
  }
  rows.wall_seconds = r.wall_seconds;
  return rows;
}

bool same_result(const ref::Rows& a, const ref::Rows& b) {
  return std::equal(a.values.begin(), a.values.end(), b.values.begin(),
                    b.values.end(),
                    [](const std::vector<double>& x,
                       const std::vector<double>& y) {
                      return std::equal(x.begin(), x.end(), y.begin(),
                                        y.end(), same_bits);
                    }) &&
         same_bits(a.wall_seconds, b.wall_seconds);
}

/// A result whose rows mix random bit patterns with the values a bytewise
/// codec is most likely to mangle: NaNs with payloads (quiet and
/// signalling, both signs), -0.0, denormals and infinities.  Its rows all
/// have one length, as every result's do.
ExecutionResult special_result(std::mt19937_64& rng) {
  static constexpr std::uint64_t kSpecial[] = {
      0x7FF8DEADBEEF0001ull,  // quiet NaN with a payload
      0xFFF0000000000001ull,  // negative signalling NaN
      0x8000000000000000ull,  // -0.0
      0x0000000000000001ull,  // smallest denormal
      0x800FFFFFFFFFFFFFull,  // largest negative denormal
      0x7FF0000000000000ull,  // +inf
      0xFFF0000000000000ull,  // -inf
      0x0000000000000000ull};
  const auto draw = [&rng] {
    return std::bit_cast<double>(
        rng() % 3 == 0 ? kSpecial[rng() % std::size(kSpecial)] : rng());
  };
  const std::size_t rows = rng() % 6;
  ExecutionResult r{ResultBlock(rows, rng() % 40)};
  for (std::size_t v = 0; v < rows; ++v) {
    for (double& x : r.values[v]) x = draw();
  }
  r.wall_seconds = draw();
  return r;
}

/// What a decoder made of a payload: the decoded value, or nullopt when
/// it threw WireError.  Any other exception escapes and fails the test.
template <class Decode>
auto verdict(Decode&& decode, const std::vector<std::uint8_t>& payload)
    -> std::optional<decltype(decode(payload))> {
  try {
    return decode(payload);
  } catch (const WireError&) {
    return std::nullopt;
  }
}

/// Expects both decoders to accept `payload` or both to reject it, and,
/// when they accept, to read equal values.  Returns whether ours accepted.
bool expect_same_submit_verdict(const std::vector<std::uint8_t>& payload,
                                const std::string& what) {
  const auto ours = verdict(
      [](const auto& p) { return wire::decode_submit_program(p); }, payload);
  const auto theirs = verdict(
      [](const auto& p) { return ref::decode_submit_program(p); }, payload);
  EXPECT_EQ(ours.has_value(), theirs.has_value()) << what;
  if (ours && theirs) {
    EXPECT_TRUE(same_request(*ours, *theirs)) << what;
  }
  return ours.has_value();
}

/// A reply's verdicts differ only where the reference reads rows of
/// different lengths, which no block holds: wherever the reference accepts
/// a payload, ours accepts it exactly when every row has the same length,
/// and then reads the same bits; wherever the reference rejects it, so
/// does ours.
bool expect_same_reply_verdict(const std::vector<std::uint8_t>& payload,
                               const std::string& what) {
  const auto ours = verdict(
      [](const auto& p) { return wire::decode_run_reply(p); }, payload);
  const auto theirs = verdict(
      [](const auto& p) { return ref::decode_run_reply(p); }, payload);
  const bool rectangular =
      theirs && std::all_of(theirs->values.begin(), theirs->values.end(),
                            [&](const std::vector<double>& row) {
                              return row.size() ==
                                     theirs->values.front().size();
                            });
  EXPECT_EQ(ours.has_value(), rectangular) << what;
  if (ours && theirs) {
    EXPECT_TRUE(same_result(rows_of(*ours), *theirs)) << what;
  }
  return ours.has_value();
}

TEST(WireDifferential, SubmitPayloadsMatchTheBytewiseCodec) {
  // 500 loop_gen programs plus the six hot structures as mixed-n submits
  // them, from 16 to 2048 iterations.
  std::vector<SubmitCase> cases = generated_cases(1, 500);
  for (auto& [name, g] : testsupport::hot_structures()) {
    for (const std::int64_t n : {16, 181, 2048}) {
      testsupport::HotProgram hp = testsupport::hot_program(g, 2, n);
      cases.push_back({name + "_n" + std::to_string(n), std::move(hp.program),
                       std::move(hp.graph), CompileOptions{}});
    }
  }
  for (const SubmitCase& c : cases) {
    const auto ours = wire::encode_submit_program(c.program, c.graph, c.copts);
    ASSERT_EQ(ours, ref::encode_submit_program(c.program, c.graph, c.copts))
        << c.tag;
    const wire::SubmitProgramRequest back = wire::decode_submit_program(ours);
    EXPECT_TRUE(same_request(back, ref::decode_submit_program(ours))) << c.tag;
    EXPECT_TRUE(same_request(back, {c.program, c.graph, c.copts})) << c.tag;
  }
}

TEST(WireDifferential, RunReplyPayloadsMatchTheBytewiseCodec) {
  std::mt19937_64 rng(0x5EED0025ull);
  for (int i = 0; i < 500; ++i) {
    const ExecutionResult r = special_result(rng);
    const auto ours = wire::encode_run_reply(r);
    ASSERT_EQ(ours, ref::encode_run_reply(rows_of(r))) << "result " << i;
    EXPECT_EQ(ours.capacity(), ours.size()) << "result " << i;
    const ExecutionResult back = wire::decode_run_reply(ours);
    EXPECT_TRUE(same_result(rows_of(back), ref::decode_run_reply(ours)))
        << "result " << i;
    EXPECT_TRUE(same_result(rows_of(back), rows_of(r))) << "result " << i;
    EXPECT_TRUE(expect_same_reply_verdict(ours, "result " + std::to_string(i)));
    // The same rows with one a value shorter: the reference reads them,
    // and ours refuses them.
    if (r.values.size() >= 2 && r.values.row_length() >= 1) {
      ref::Rows ragged = rows_of(r);
      ragged.values[rng() % ragged.values.size()].pop_back();
      EXPECT_FALSE(expect_same_reply_verdict(
          ref::encode_run_reply(ragged), "ragged result " + std::to_string(i)));
    }
  }
}

TEST(WireDifferential, EveryStrictPrefixGetsTheSameVerdict) {
  for (const SubmitCase& c : generated_cases(1, 4)) {
    const auto payload =
        wire::encode_submit_program(c.program, c.graph, c.copts);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(expect_same_submit_verdict(
          {payload.begin(), payload.begin() + static_cast<std::ptrdiff_t>(cut)},
          c.tag + " prefix " + std::to_string(cut)));
    }
  }
  std::mt19937_64 rng(0x9EF1Cull);
  for (int i = 0; i < 8; ++i) {
    const auto payload = wire::encode_run_reply(special_result(rng));
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(expect_same_reply_verdict(
          {payload.begin(), payload.begin() + static_cast<std::ptrdiff_t>(cut)},
          "result " + std::to_string(i) + " prefix " + std::to_string(cut)));
    }
  }
}

TEST(WireDifferential, SingleByteMutationsGetTheSameVerdict) {
  // 12,000 payloads one byte away from a valid one: a count, a kind, a
  // name byte, an edge endpoint or the opt level now says something else.
  std::vector<std::vector<std::uint8_t>> submits;
  for (const SubmitCase& c : generated_cases(1, 40)) {
    submits.push_back(wire::encode_submit_program(c.program, c.graph, c.copts));
  }
  std::mt19937_64 rng(0x3117A7Eull);
  std::vector<std::vector<std::uint8_t>> replies;
  for (int i = 0; i < 20; ++i) {
    replies.push_back(wire::encode_run_reply(special_result(rng)));
  }
  int accepted = 0;
  for (int i = 0; i < 12000; ++i) {
    const bool submit = i % 3 != 0;
    const auto& pool = submit ? submits : replies;
    std::vector<std::uint8_t> payload = pool[rng() % pool.size()];
    const std::size_t at = rng() % payload.size();
    payload[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    const std::string what = "mutation " + std::to_string(i) + " at byte " +
                             std::to_string(at);
    accepted += submit ? expect_same_submit_verdict(payload, what)
                       : expect_same_reply_verdict(payload, what);
  }
  // Both verdicts occur: most mutated values still decode, a mutated
  // count, kind or opt level does not.
  EXPECT_GT(accepted, 1000);
  EXPECT_LT(accepted, 11000);
}

}  // namespace
}  // namespace mimd
