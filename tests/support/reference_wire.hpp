// A frozen copy of the bytewise wire codec the raw-pointer one in
// runtime/wire.cpp replaced: an encoder that appends one byte at a time,
// a decoder that bounds-checks every field, and the SubmitProgram and
// RunReply payloads built from them.  It is the oracle of the
// WireDifferential suite (tests/test_wire.cpp): both codecs must write
// the same bytes, read back equal structures, and accept or reject the
// same truncated and mutated payloads.  Kept verbatim; do not speed it up.
// A RunReply is read into and written from the reference's own rows
// (Rows below), each of its own length: the runtime's ResultBlock cannot
// hold rows that differ, and the differential must see such payloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/ddg.hpp"
#include "partition/compiled_program.hpp"
#include "partition/partitioned_loop.hpp"
#include "runtime/executor.hpp"
#include "runtime/wire.hpp"

namespace mimd::testsupport::reference_wire {

/// Append-only little-endian byte sink, one push_back per byte.
class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Cursor that checks the remaining length before every field and throws
/// wire::WireError past the end.
class Decoder {
 public:
  explicit Decoder(const std::vector<std::uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  std::uint32_t count(std::size_t min_bytes_per_element);
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  void expect_done() const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// A RunReply as the bytewise codec reads it: one row per node, each of
/// its own length.
struct Rows {
  std::vector<std::vector<double>> values;
  double wall_seconds = 0.0;
};

void encode_ddg(Encoder& e, const Ddg& g);
[[nodiscard]] Ddg decode_ddg(Decoder& d);
void encode_program(Encoder& e, const PartitionedProgram& p);
[[nodiscard]] PartitionedProgram decode_program(Decoder& d);
void encode_result(Encoder& e, const Rows& r);
[[nodiscard]] Rows decode_result(Decoder& d);

[[nodiscard]] std::vector<std::uint8_t> encode_submit_program(
    const PartitionedProgram& program, const Ddg& graph,
    const CompileOptions& copts);
[[nodiscard]] wire::SubmitProgramRequest decode_submit_program(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_run_reply(const Rows& m);
[[nodiscard]] Rows decode_run_reply(const std::vector<std::uint8_t>& payload);

}  // namespace mimd::testsupport::reference_wire
