#include "support/reference_wire.hpp"

#include <cstring>
#include <utility>

namespace mimd::testsupport::reference_wire {

using wire::WireError;

void Encoder::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void Encoder::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Encoder::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Encoder::str(const std::string& s) {
  if (s.size() > wire::kMaxFramePayload) {
    throw WireError("string too long to encode");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint8_t Decoder::u8() {
  if (pos_ + 1 > size_) throw WireError("truncated payload (u8)");
  return data_[pos_++];
}

std::uint32_t Decoder::u32() {
  if (pos_ + 4 > size_) throw WireError("truncated payload (u32)");
  std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                    static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                    static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
                    static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
  pos_ += 4;
  return v;
}

std::uint64_t Decoder::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | hi << 32;
}

double Decoder::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Decoder::str() {
  const std::uint32_t n = u32();
  if (pos_ + n > size_) throw WireError("truncated payload (string)");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
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

void encode_ddg(Encoder& e, const Ddg& g) {
  e.u32(static_cast<std::uint32_t>(g.num_nodes()));
  for (const Node& n : g.nodes()) {
    e.str(n.name);
    e.i32(n.latency);
  }
  e.u32(static_cast<std::uint32_t>(g.num_edges()));
  for (const Edge& ed : g.edges()) {
    e.u32(ed.src);
    e.u32(ed.dst);
    e.i32(ed.distance);
    e.i32(ed.comm_cost);
  }
}

Ddg decode_ddg(Decoder& d) {
  Ddg g;
  const std::uint32_t nodes = d.count(5);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    std::string name = d.str();
    const int latency = d.i32();
    try {
      g.add_node(std::move(name), latency);
    } catch (const ContractViolation& e) {
      throw WireError(std::string("invalid graph node: ") + e.what());
    }
  }
  const std::uint32_t edges = d.count(16);
  for (std::uint32_t i = 0; i < edges; ++i) {
    const NodeId src = d.u32();
    const NodeId dst = d.u32();
    const int distance = d.i32();
    const int comm_cost = d.i32();
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
    e.i32(pp.proc);
    e.u32(static_cast<std::uint32_t>(pp.ops.size()));
    for (const Op& op : pp.ops) {
      e.u8(static_cast<std::uint8_t>(op.kind));
      e.u32(op.inst.node);
      e.i64(op.inst.iter);
      e.u32(op.edge);
      e.i32(op.peer);
    }
  }
}

PartitionedProgram decode_program(Decoder& d) {
  PartitionedProgram p;
  p.processors = d.i32();
  const std::uint32_t nprogs = d.count(8);
  p.programs.reserve(nprogs);
  for (std::uint32_t i = 0; i < nprogs; ++i) {
    ProcessorProgram pp;
    pp.proc = d.i32();
    const std::uint32_t nops = d.count(21);
    pp.ops.reserve(nops);
    for (std::uint32_t j = 0; j < nops; ++j) {
      Op op;
      const std::uint8_t kind = d.u8();
      if (kind > static_cast<std::uint8_t>(Op::Kind::Receive)) {
        throw WireError("invalid op kind");
      }
      op.kind = static_cast<Op::Kind>(kind);
      op.inst.node = d.u32();
      op.inst.iter = d.i64();
      op.edge = d.u32();
      op.peer = d.i32();
      pp.ops.push_back(op);
    }
    p.programs.push_back(std::move(pp));
  }
  return p;
}

void encode_result(Encoder& e, const Rows& r) {
  e.u32(static_cast<std::uint32_t>(r.values.size()));
  for (const std::vector<double>& vs : r.values) {
    e.u32(static_cast<std::uint32_t>(vs.size()));
    for (const double v : vs) e.f64(v);
  }
  e.f64(r.wall_seconds);
}

Rows decode_result(Decoder& d) {
  Rows r;
  const std::uint32_t nodes = d.count(4);
  r.values.resize(nodes);
  for (std::uint32_t v = 0; v < nodes; ++v) {
    const std::uint32_t n = d.count(8);
    r.values[v].reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) r.values[v].push_back(d.f64());
  }
  r.wall_seconds = d.f64();
  return r;
}

std::vector<std::uint8_t> encode_submit_program(
    const PartitionedProgram& program, const Ddg& graph,
    const CompileOptions& copts) {
  Encoder e;
  encode_program(e, program);
  encode_ddg(e, graph);
  e.u8(static_cast<std::uint8_t>(copts.opt));
  return e.take();
}

wire::SubmitProgramRequest decode_submit_program(
    const std::vector<std::uint8_t>& payload) {
  Decoder d(payload);
  wire::SubmitProgramRequest m;
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

std::vector<std::uint8_t> encode_run_reply(const Rows& m) {
  Encoder e;
  encode_result(e, m);
  return e.take();
}

Rows decode_run_reply(const std::vector<std::uint8_t>& payload) {
  Decoder d(payload);
  Rows r = decode_result(d);
  d.expect_done();
  return r;
}

}  // namespace mimd::testsupport::reference_wire
