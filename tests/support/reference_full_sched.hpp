// The reference scheduler: full_sched as it was before it learned to
// schedule only the requested prefix (schedule/full_sched.cpp), kept
// verbatim apart from its name.  Every non-DOALL path detects the
// pattern in full and materializes it: the SeparateProcessors path runs
// the Cyclic subgraph to its pattern before deciding whether the flow
// pools fit, and Fold runs the whole graph to its pattern.  Detection and
// materialization go through the frozen copies in
// tests/support/reference_schedule.hpp (hash-map Cyclic-sched, sort-based
// materialize), not through the library's dense-table versions.
//
// The prefix differential (tests/test_prefix_differential.cpp) runs both
// on the same inputs and requires the same placements in the same order,
// the same processor counts and steady_ii, and the same pattern — or, when
// the new result stopped at n without one, that steady_state_pattern
// returns the reference's pattern.
#pragma once

#include <cstdint>

#include "graph/ddg.hpp"
#include "schedule/full_sched.hpp"
#include "schedule/machine.hpp"

namespace mimd::testsupport {

FullSchedResult reference_full_sched(const Ddg& g, const Machine& m,
                                     std::int64_t iterations,
                                     const FullSchedOptions& opts = {});

}  // namespace mimd::testsupport
