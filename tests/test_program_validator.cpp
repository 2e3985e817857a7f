// find_program_violation against the map-based reference validator
// (tests/support/reference_validator.hpp): seeded mutations of loop_gen
// programs must get the same verdict and the same message from both.
// Processor-id edits come from their own seeded pass, so mutated_program's
// stream (shared with the compiled digests) stays as it is.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "partition/partitioned_loop.hpp"
#include "support/loop_gen.hpp"
#include "support/reference_validator.hpp"

namespace mimd {
namespace {

using testsupport::GeneratedLoop;

/// The verdict class, so the suite can prove every check was reached.
std::string verdict_class(const std::optional<std::string>& v) {
  if (!v) return "well-formed";
  for (const char* needle :
       {"share this processor id", "negative iteration",
        "duplicates the instance", "before operand", "before it is computed",
        "multisets differ", "FIFO", "deadlock"}) {
    if (v->find(needle) != std::string::npos) return needle;
  }
  return "other: " + *v;
}

TEST(ValidatorDifferential, MutatedLoopGenProgramsGetTheReferenceVerdict) {
  constexpr int kPrograms = 40;
  constexpr int kMutantsPerProgram = 60;
  std::map<std::string, int> classes;
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
    const GeneratedLoop gl = testsupport::generate_loop(seed);
    ASSERT_EQ(find_program_violation(gl.program, gl.graph),
              testsupport::reference_program_violation(gl.program, gl.graph));
    std::mt19937_64 rng(seed * 0x2545F4914F6CDD1DULL);
    for (int m = 0; m < kMutantsPerProgram; ++m) {
      const PartitionedProgram p =
          testsupport::mutated_program(gl.program, rng);
      const auto got = find_program_violation(p, gl.graph);
      const auto want = testsupport::reference_program_violation(p, gl.graph);
      ASSERT_EQ(got, want) << gl.tag << " mutant " << m;
      ++classes[verdict_class(got)];
      ++compared;
    }
  }
  EXPECT_GE(compared, 2000);
  for (const char* c :
       {"well-formed", "negative iteration", "duplicates the instance",
        "before operand", "before it is computed", "multisets differ",
        "FIFO"}) {
    EXPECT_GT(classes[c], 0) << "no mutant reached: " << c;
  }
  for (const auto& [c, n] : classes) {
    EXPECT_EQ(c.rfind("other", 0), std::string::npos) << c;
  }
}

TEST(ValidatorDifferential, ProcessorIdEditsGetTheReferenceVerdict) {
  // Each mutant is a loop_gen program, half of them mutated further, with
  // one processor-id edit: a program takes another's id, a program is
  // listed twice, or two programs swap ids (no id shared, so the per-op
  // and message rules decide).  The shared-id rule runs before any op.
  constexpr int kPrograms = 40;
  constexpr int kMutantsPerProgram = 12;
  std::map<std::string, int> classes;
  int shared = 0;
  for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
    const GeneratedLoop gl = testsupport::generate_loop(seed);
    std::mt19937_64 rng(seed * 0x94D049BB133111EBULL);
    for (int m = 0; m < kMutantsPerProgram; ++m) {
      PartitionedProgram p = rng() % 2 == 0
                                 ? testsupport::mutated_program(gl.program, rng)
                                 : gl.program;
      ASSERT_GE(p.programs.size(), 2u);
      const std::size_t a = rng() % p.programs.size();
      const std::size_t b = (a + 1 + rng() % (p.programs.size() - 1)) %
                            p.programs.size();
      switch (m % 3) {
        case 0:
          p.programs[b].proc = p.programs[a].proc;
          ++shared;
          break;
        case 1:
          p.programs.push_back(p.programs[a]);
          ++shared;
          break;
        default:
          std::swap(p.programs[a].proc, p.programs[b].proc);
          break;
      }
      const auto got = find_program_violation(p, gl.graph);
      const auto want = testsupport::reference_program_violation(p, gl.graph);
      ASSERT_EQ(got, want) << gl.tag << " mutant " << m;
      ++classes[verdict_class(got)];
    }
  }
  EXPECT_EQ(classes["share this processor id"], shared);
  EXPECT_GT(classes["multisets differ"], 0);
  for (const auto& [c, n] : classes) {
    EXPECT_EQ(c.rfind("other", 0), std::string::npos) << c;
  }
}

TEST(ValidatorDifferential, CrossWaitAndCircularForwardMutantsGetTheReferenceVerdict) {
  // The two shapes of deadlock the first rules all pass: a receive
  // hoisted ahead of the sends its peer waits for, and two processors
  // forwarding one value in a circle.  Every circular forward deadlocks;
  // a hoisted receive deadlocks only when its peer was waiting on it.  A
  // program with no message (a Fold fallback) takes neither edit.
  constexpr int kPrograms = 40;
  constexpr int kMutantsPerProgram = 20;
  std::map<std::string, int> cross_wait, circular;
  int forwarded = 0;
  for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
    const GeneratedLoop gl = testsupport::generate_loop(seed);
    std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ULL);
    for (int m = 0; m < kMutantsPerProgram; ++m) {
      const bool hoist = m % 2 == 0;
      const PartitionedProgram p =
          hoist ? testsupport::cross_wait_mutant(gl.program, rng)
                : testsupport::circular_forward_mutant(gl.program, rng);
      const auto got = find_program_violation(p, gl.graph);
      const auto want = testsupport::reference_program_violation(p, gl.graph);
      ASSERT_EQ(got, want) << gl.tag << " mutant " << m;
      ++(hoist ? cross_wait : circular)[verdict_class(got)];
      if (!hoist && !(p == gl.program)) ++forwarded;
    }
  }
  EXPECT_GT(cross_wait["deadlock"], 0);
  EXPECT_GT(cross_wait["well-formed"], 0);
  EXPECT_GT(forwarded, kPrograms * kMutantsPerProgram / 4);
  EXPECT_EQ(circular["deadlock"], forwarded);
}

}  // namespace
}  // namespace mimd
