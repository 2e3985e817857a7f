// find_program_violation against the map-based reference validator
// (tests/support/reference_validator.hpp): seeded mutations of loop_gen
// programs must get the same verdict and the same message from both.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
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
       {"negative iteration", "duplicates the instance", "before operand",
        "before it is computed", "multisets differ", "FIFO"}) {
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

}  // namespace
}  // namespace mimd
