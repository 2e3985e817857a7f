// The reference schedule path: Cyclic-sched, materialize, prefix_schedule
// and lower as they were before the schedule tables became dense
// (schedule/schedule.cpp, schedule/cyclic_sched.cpp, schedule/pattern.cpp,
// partition/lowering.cpp), kept verbatim apart from their names.
//
//  * reference_cyclic_sched keeps the node-per-instance hash maps, the
//    std::set ready queue and the ostringstream checkpoint signature, and
//    always detects in full (no `until`, no `min_processors`: the
//    reference scheduler never cuts a run short);
//  * reference_materialize and reference_prefix_schedule copy every
//    placement and sort them by (start, proc, inst);
//  * reference_lower copies and sorts the schedule's placements the same
//    way before emitting each one's ops.
//
// The prefix differential (tests/test_prefix_differential.cpp) compares
// the library's outputs against these: placements in order, patterns and
// lowered programs, op for op.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/ddg.hpp"
#include "partition/partitioned_loop.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/machine.hpp"
#include "schedule/pattern.hpp"
#include "schedule/schedule.hpp"

namespace mimd::testsupport {

CyclicSchedResult reference_cyclic_sched(const Ddg& g, const Machine& m,
                                         const CyclicSchedOptions& opts = {});

Schedule reference_prefix_schedule(std::vector<Placement> placements,
                                   int processors, std::int64_t n);

Schedule reference_materialize(const Pattern& pat, int processors,
                               std::int64_t n);

PartitionedProgram reference_lower(const Schedule& sched, const Ddg& g);

}  // namespace mimd::testsupport
