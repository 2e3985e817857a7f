#include "partition/partitioned_loop.hpp"

namespace mimd {

std::size_t PartitionedProgram::total_ops() const {
  std::size_t n = 0;
  for (const ProcessorProgram& p : programs) n += p.ops.size();
  return n;
}

std::size_t PartitionedProgram::count(Op::Kind k) const {
  std::size_t n = 0;
  for (const ProcessorProgram& p : programs) {
    for (const Op& op : p.ops) {
      if (op.kind == k) ++n;
    }
  }
  return n;
}

// find_program_violation is compile_program's own walk, defined next to it
// in compiled_program.cpp.

}  // namespace mimd
