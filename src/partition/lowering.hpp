// Lowering: from a (combined, finite-N) Schedule to the per-processor
// PartitionedProgram with explicit sends and receives — the step the
// paper's Figures 7(e)/10 perform by hand ("synchronization code
// inserted").
//
// Placement rules:
//  * ops appear on their processor in start-time order — the order the
//    schedule appended that processor's placements in, so lower() walks
//    the placements as they are, without sorting them;
//  * a Send is inserted immediately after the producing Compute, one per
//    cross-processor consumer instance present in the schedule;
//  * a Receive is inserted immediately before the consuming Compute, one
//    per cross-processor operand.
#pragma once

#include "graph/ddg.hpp"
#include "partition/partitioned_loop.hpp"
#include "schedule/schedule.hpp"

namespace mimd {

PartitionedProgram lower(const Schedule& sched, const Ddg& g);

}  // namespace mimd
