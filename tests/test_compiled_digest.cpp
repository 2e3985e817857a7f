// Pins compile_program's output field for field: a 64-bit digest of every
// CompiledProgram field (channels, per-thread ops, operands, num_slots,
// num_slots_ssa, iterations) for the six hot structures the end-to-end
// benchmark serves (perfbench: fig7, cytron86, elliptic, LL18, LL6, LL20)
// at p=2 and three of its trip counts, plus 50 loop_gen programs.
//
// The expected values were recorded from the std::map-based compiler
// that preceded the flat-table one.  Structural hashes, the JIT's emitted
// C and every result are functions of these fields, so a rewrite that
// reproduces every digest changes none of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/parallelizer.hpp"
#include "partition/compiled_program.hpp"
#include "support/loop_gen.hpp"
#include "support/reference_validator.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"

namespace mimd {
namespace {

/// FNV-1a over the fixed-width little-endian image of each field.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::uint64_t digest(const CompiledProgram& cp) {
  Digest d;
  d.add_signed(cp.processors);
  d.add_signed(cp.iterations);
  d.add(cp.channels.size());
  for (const ChannelDesc& c : cp.channels) {
    d.add(c.edge);
    d.add_signed(c.src_proc);
    d.add_signed(c.dst_proc);
    d.add_signed(c.messages);
  }
  d.add(cp.threads.size());
  for (const CompiledThread& t : cp.threads) {
    d.add_signed(t.proc);
    d.add(t.num_slots);
    d.add(t.num_slots_ssa);
    d.add(t.ops.size());
    for (const CompiledOp& op : t.ops) {
      d.add(static_cast<std::uint64_t>(op.kind));
      d.add(op.node);
      d.add_signed(op.iter);
      d.add(op.slot);
      d.add(op.chan);
      d.add(op.first_operand);
      d.add(op.num_operands);
    }
    d.add(t.operands.size());
    for (const OperandRef& r : t.operands) {
      d.add(static_cast<std::uint64_t>(r.kind));
      d.add(r.index);
      d.add_signed(r.iter);
      d.add_double(r.initial);
    }
  }
  return d.value();
}

struct Input {
  std::string tag;
  CompiledProgram compiled;
};

std::vector<Input> inputs() {
  using namespace workloads;
  const std::vector<std::pair<std::string, Ddg>> hot = {
      {"fig7", fig7_loop()},
      {"cytron86", cytron86_loop()},
      {"elliptic", elliptic_filter_loop()},
      {"LL18", livermore18_loop()},
      {"LL6", ll6_linear_recurrence()},
      {"LL20", ll20_discrete_ordinates()}};
  std::vector<Input> out;
  for (const auto& [name, g] : hot) {
    for (const std::int64_t n : {16, 196, 2048}) {
      ParallelizeOptions popts;
      popts.machine = Machine{2, 1};
      popts.iterations = n;
      popts.emit_code = false;
      const ParallelizeResult r = parallelize(g, popts);
      out.push_back({name + "_n" + std::to_string(n),
                     compile_program(r.program, r.normalized.graph)});
    }
  }
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const testsupport::GeneratedLoop gl = testsupport::generate_loop(seed);
    out.push_back({gl.tag, compile_program(gl.program, gl.graph)});
  }
  return out;
}

/// One digest over every well-formed mutant of loop_gen programs 1..30
/// (200 drawn per program): hand-built shapes lowering never emits —
/// reordered, forwarded and duplicated messages — some of which take the
/// unfused fallback.  "Well-formed" is the reference validator's verdict,
/// so the set does not depend on the validator under test.
struct MutantDigest {
  std::uint64_t value = 0;
  int compiled = 0;
  int unfused = 0;  ///< compiled with at least one standalone Receive op
};

MutantDigest mutant_digest() {
  Digest d;
  MutantDigest out;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const testsupport::GeneratedLoop gl = testsupport::generate_loop(seed);
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL);
    for (int m = 0; m < 200; ++m) {
      const PartitionedProgram p =
          testsupport::mutated_program(gl.program, rng);
      if (testsupport::reference_program_violation(p, gl.graph)) continue;
      const CompiledProgram cp = compile_program(p, gl.graph);
      d.add(digest(cp));
      ++out.compiled;
      if (cp.count(CompiledOp::Kind::Receive) > 0) ++out.unfused;
    }
  }
  out.value = d.value();
  return out;
}

// Recorded from the map-based compiler: mutant_digest().
constexpr std::uint64_t kMutantDigest = 0x966503a7eb16db07ULL;
constexpr int kMutantsCompiled = 185;
constexpr int kMutantsUnfused = 8;

// Recorded from the map-based compiler, in inputs() order.
constexpr std::uint64_t kExpected[] = {
    0xdf7efc7c01e0b377ULL,  // fig7_n16
    0xf025500aed9215ddULL,  // fig7_n196
    0xefe78040f5d46e6bULL,  // fig7_n2048
    0xba0df388833fa9ebULL,  // cytron86_n16
    0x56f096c8e43994d8ULL,  // cytron86_n196
    0x3a1d7dcc6a47c1b7ULL,  // cytron86_n2048
    0xf43c73f32cc272fdULL,  // elliptic_n16
    0x050e7419979f2fb5ULL,  // elliptic_n196
    0x40a4615afbb63848ULL,  // elliptic_n2048
    0x97e188e50cf3a42cULL,  // LL18_n16
    0xc346ac1ccd34a8deULL,  // LL18_n196
    0x9be5cba26451e5b1ULL,  // LL18_n2048
    0x6abf147996138d46ULL,  // LL6_n16
    0x126755975dbf099bULL,  // LL6_n196
    0x07feb49135561a6bULL,  // LL6_n2048
    0x6fc696a544cb9a41ULL,  // LL20_n16
    0x07a4f69cd660784dULL,  // LL20_n196
    0xb02048ef545712f5ULL,  // LL20_n2048
    0x27e6f3484cbe5877ULL,  // rand1_p3k3
    0xa4712cf1e470b545ULL,  // rand2_p2k2
    0xecffa7ad66bef2b2ULL,  // rand3_p4k3
    0xf18376e339b039e8ULL,  // rand4_p2k1
    0x4ae75577c6465b72ULL,  // rand5_p4k3f
    0xe090ec143646ed18ULL,  // rand6_p3k3
    0x147cab3a33734bfbULL,  // rand7_p2k2
    0xed8f89988b265ec2ULL,  // rand8_p2k3
    0xde05ebf90720af6cULL,  // rand9_p2k2f
    0x2a066b77acd659a1ULL,  // rand10_p4k1
    0xaf281f34daefbdc2ULL,  // rand11_p2k2
    0xcb7681fecb676d0dULL,  // rand12_p2k3
    0xf55b604b5c4f0beaULL,  // rand13_p2k2
    0xfa9a044a856dbcdeULL,  // rand14_p2k2
    0x1d8b93806c191d5dULL,  // rand15_p4k3
    0xd7f3c90ce3fe7476ULL,  // rand16_p4k1f
    0x0faa57d4c81e1178ULL,  // rand17_p4k2
    0x410d6b31664417a8ULL,  // rand18_p3k1
    0x8d668b1ca46557d8ULL,  // rand19_p3k2f
    0x6b03956a7ff40c5cULL,  // rand20_p4k1
    0x77836b249c7a4323ULL,  // rand21_p2k2
    0x3a5ef8525554492aULL,  // rand22_p3k3
    0x9fe198d24ca72a4cULL,  // rand23_p4k3f
    0xc1b0340e9f8bf90aULL,  // rand24_p2k2
    0x9d741ca1e04cde90ULL,  // rand25_p4k3
    0xe49ab4507fc278f5ULL,  // rand26_p2k3
    0x88464c924ceb71c5ULL,  // rand27_p4k2
    0x5d96e7feb23f6524ULL,  // rand28_p4k2
    0xe53fe1d443137bb5ULL,  // rand29_p2k3f
    0xf1894686773614f6ULL,  // rand30_p4k2
    0x99a582e8b536cc69ULL,  // rand31_p2k1f
    0x41c79c280a935be1ULL,  // rand32_p4k1
    0x3f1d64f4e27475e6ULL,  // rand33_p3k2
    0x733955a10cdde8e9ULL,  // rand34_p3k1
    0x62ec2ba3458ce344ULL,  // rand35_p4k2
    0x315a09ffb8c0ad26ULL,  // rand36_p2k2
    0x0ad196575eb60fb2ULL,  // rand37_p4k3
    0xa2ceca552d658147ULL,  // rand38_p3k1
    0x11faa18fa12442f5ULL,  // rand39_p3k2
    0x3a45b9d0be99e6acULL,  // rand40_p2k3f
    0xef966476095243eeULL,  // rand41_p3k3
    0x47baac379bc316a8ULL,  // rand42_p2k3
    0x78f49306a3a0cc3aULL,  // rand43_p4k1
    0xd77cc0ad407408bcULL,  // rand44_p4k3
    0xef10fcd2441e7dedULL,  // rand45_p4k1
    0x94f21972292ddcdfULL,  // rand46_p4k2f
    0x6348e89489e525ccULL,  // rand47_p4k2
    0x8857b9bfbba7d935ULL,  // rand48_p2k1f
    0x8d704cd092bd182aULL,  // rand49_p2k2
    0x87de1d800e7b9471ULL,  // rand50_p3k2
};

TEST(CompiledDigest, EveryFieldMatchesTheMapBasedCompiler) {
  const std::vector<Input> in = inputs();
  ASSERT_EQ(in.size(), std::size(kExpected));
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(digest(in[i].compiled), kExpected[i]) << in[i].tag;
  }
}

TEST(CompiledDigest, WellFormedMutantsMatchTheMapBasedCompiler) {
  const MutantDigest got = mutant_digest();
  EXPECT_EQ(got.compiled, kMutantsCompiled);
  EXPECT_EQ(got.unfused, kMutantsUnfused);
  EXPECT_GT(got.unfused, 0);  // the fallback is exercised
  EXPECT_EQ(got.value, kMutantDigest);
}

}  // namespace
}  // namespace mimd
