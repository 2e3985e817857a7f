// The reference validator: find_program_violation as it was written on
// std::map before the flat-table rewrite, kept verbatim apart from the
// rejections added since — negative iterations and duplicate compute
// instances (with the rewrite), processor programs sharing an id (with
// the single check-and-compile walk, partition/compiled_program.cpp), and
// deadlock (rule 4: passes over the processors with unbounded channels,
// as the paper's asynchronous machine runs them, not the compiled ready
// queue).
//
// The differential suite (tests/test_program_validator.cpp) runs mutated
// loop_gen programs through both and requires the same verdict and the
// same message, so a rewrite keeps every check, the first-violation order
// and the message text.
#pragma once

#include <optional>
#include <string>

#include "graph/ddg.hpp"
#include "partition/partitioned_loop.hpp"

namespace mimd::testsupport {

std::optional<std::string> reference_program_violation(
    const PartitionedProgram& p, const Ddg& g);

}  // namespace mimd::testsupport
