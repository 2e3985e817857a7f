// Pins compile_program's output field for field: a 64-bit digest of every
// CompiledProgram field (channels, per-thread ops, operands, num_slots,
// num_slots_ssa, iterations) for the six hot structures the end-to-end
// benchmark serves (perfbench: fig7, cytron86, elliptic, LL18, LL6, LL20)
// at p=2 and three of its trip counts, plus 50 loop_gen programs.
//
// The expected values were recorded from the compiler that preceded the
// single check-and-compile walk, on its unfused path (every receive a
// Receive op into a slot), which that compiler had reached through the
// flat-table rewrite of a std::map-based one with identical digests.  An
// operand is digested as its kind and slot, or its kind and the bits of
// its pre-loop value, so the record did not depend on how either compiler
// stored an operand.  Structural hashes, the JIT's emitted C and every
// result are functions of these fields, so a rewrite that reproduces
// every digest changes none of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/parallelizer.hpp"
#include "partition/compiled_program.hpp"
#include "runtime/kernels.hpp"
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
      if (r.kind == OperandRef::Kind::LocalSlot) {
        d.add(0);
        d.add(r.index);
      } else {
        d.add(1);
        d.add_double(initial_value(r.index));
      }
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
/// reordered, forwarded and duplicated messages, consumers reading a
/// channel out of its order.  "Well-formed" is the reference validator's
/// verdict, so the set does not depend on the validator under test.
struct MutantDigest {
  std::uint64_t value = 0;
  int compiled = 0;
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
    }
  }
  out.value = d.value();
  return out;
}

// Recorded from the preceding compiler's unfused path: mutant_digest().
constexpr std::uint64_t kMutantDigest = 0xfb8680247f3fc728ULL;
constexpr int kMutantsCompiled = 185;

// Recorded from the preceding compiler's unfused path, in inputs() order.
constexpr std::uint64_t kExpected[] = {
    0xf25d9f61e5eae184ULL,  // fig7_n16
    0x9f21cfa9441a3fc6ULL,  // fig7_n196
    0x55a6d8cd55a1c868ULL,  // fig7_n2048
    0x85965b18d618f27aULL,  // cytron86_n16
    0xf7216023be9fe24dULL,  // cytron86_n196
    0x9174e0a6ca409a76ULL,  // cytron86_n2048
    0x31092d9df01fc007ULL,  // elliptic_n16
    0x6d3de8bd1bae0ac8ULL,  // elliptic_n196
    0xfb85b6f632af3d70ULL,  // elliptic_n2048
    0x36207a1b38062e37ULL,  // LL18_n16
    0x64a94410741ef258ULL,  // LL18_n196
    0xac6e184919fcca97ULL,  // LL18_n2048
    0xeb05fa295d40ac60ULL,  // LL6_n16
    0x5f0dcda071a2f235ULL,  // LL6_n196
    0x3ae8c64a0b092109ULL,  // LL6_n2048
    0x4d2c157046ff8935ULL,  // LL20_n16
    0x83dd35563d47e345ULL,  // LL20_n196
    0x6c2ff97bdc65b86cULL,  // LL20_n2048
    0x54f0938ef2d8e10bULL,  // rand1_p3k3
    0x285df5df6fbf18f9ULL,  // rand2_p2k2
    0x6c287736acc66b90ULL,  // rand3_p4k3
    0x95ef854ab1971622ULL,  // rand4_p2k1
    0x56ba70af27ae0710ULL,  // rand5_p4k3f
    0x8503c70863598467ULL,  // rand6_p3k3
    0x93f2e8070d59178dULL,  // rand7_p2k2
    0xacf8e6eb7d224804ULL,  // rand8_p2k3
    0x5c8c5f7cd57506c0ULL,  // rand9_p2k2f
    0x887449831e6204a6ULL,  // rand10_p4k1
    0x608431831cc7de01ULL,  // rand11_p2k2
    0xd58c1d273d204cf9ULL,  // rand12_p2k3
    0x2d2beb143e1b7501ULL,  // rand13_p2k2
    0x69664b14d7517e0dULL,  // rand14_p2k2
    0xb4e6ca3495ce8cd5ULL,  // rand15_p4k3
    0xb20bc4b368a9f8e7ULL,  // rand16_p4k1f
    0x1ee4e2bfff312c50ULL,  // rand17_p4k2
    0x12c41907cf11cb0eULL,  // rand18_p3k1
    0x5920d6e45ad2af87ULL,  // rand19_p3k2f
    0x8e06146732dbef00ULL,  // rand20_p4k1
    0x531fa612bf9603cbULL,  // rand21_p2k2
    0xafd22c66d54d2993ULL,  // rand22_p3k3
    0xc452653ab5f80fcdULL,  // rand23_p4k3f
    0x62b2d15cb276b918ULL,  // rand24_p2k2
    0x5678da2154ad9ee0ULL,  // rand25_p4k3
    0x80257aed8c93b685ULL,  // rand26_p2k3
    0x33e445980e378665ULL,  // rand27_p4k2
    0x16f6512383b9d9a7ULL,  // rand28_p4k2
    0x44951603c3a19913ULL,  // rand29_p2k3f
    0x0d5b88f1ddf0dc57ULL,  // rand30_p4k2
    0xf19137618bf8ba22ULL,  // rand31_p2k1f
    0x22263a9920347d1aULL,  // rand32_p4k1
    0x102219cf8e487a76ULL,  // rand33_p3k2
    0xc05b88051f7d4390ULL,  // rand34_p3k1
    0xafe29cf4ce5ba82fULL,  // rand35_p4k2
    0xa07ef5da94323e99ULL,  // rand36_p2k2
    0xae2296c5af01bde8ULL,  // rand37_p4k3
    0xcb54d3490408c1d7ULL,  // rand38_p3k1
    0x5814125c7ab277b4ULL,  // rand39_p3k2
    0x5363610a8001139dULL,  // rand40_p2k3f
    0xeae44d077a3785fbULL,  // rand41_p3k3
    0x490ae5d49657b30eULL,  // rand42_p2k3
    0x438d08994201be5cULL,  // rand43_p4k1
    0xe8abc508ca8d8ff0ULL,  // rand44_p4k3
    0x6fab4d82842a6e62ULL,  // rand45_p4k1
    0x137dd01d63e9a459ULL,  // rand46_p4k2f
    0x88f5c92044e183acULL,  // rand47_p4k2
    0x625e67e9dcc85a82ULL,  // rand48_p2k1f
    0xdeba31d185f3e30aULL,  // rand49_p2k2
    0x4fde8e75aac1b6b3ULL,  // rand50_p3k2
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
  EXPECT_EQ(got.value, kMutantDigest);
}

}  // namespace
}  // namespace mimd
