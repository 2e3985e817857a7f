// The public facade: one call from "loop as a DDG" to "partitioned MIMD
// program".  Runs the paper's complete pipeline:
//
//   normalize distances (unwinding, [MuSi87])
//     -> classify (Flow-in / Cyclic / Flow-out, Figure 2)
//     -> Cyclic-sched with pattern detection (Figure 4, Theorem 1)
//     -> Flow-in-/Flow-out-sched or the Section-3 folding heuristic
//     -> materialize N iterations, lower to per-processor programs with
//        SEND/RECEIVE, emit paper-style pseudo-code.
//
// See examples/quickstart.cpp for the 20-line tour.
#pragma once

#include <string>

#include "graph/unwind.hpp"
#include "partition/partitioned_loop.hpp"
#include "schedule/full_sched.hpp"

namespace mimd {

struct ParallelizeOptions {
  Machine machine;
  /// Trip count of the original loop to materialize.
  std::int64_t iterations = 64;
  FullSchedOptions schedule;
  /// Emit the PARBEGIN pseudo-code rendering (costs a string build, and
  /// pattern detection when the schedule stopped at n without one; the
  /// result's sched.pattern is then filled in).
  bool emit_code = true;
};

struct ParallelizeResult {
  /// Distance-normalized loop (factor 1 when already normalized).  All
  /// schedule/pattern node ids refer to this graph.
  Unrolled normalized;
  /// Iterations of the normalized loop (= ceil(iterations / factor)).
  std::int64_t normalized_iterations = 0;
  FullSchedResult sched;
  PartitionedProgram program;
  std::string parbegin_code;
  /// Steady-state cycles per *original* iteration.
  double cycles_per_iteration = 0.0;
  /// Asymptotic percentage parallelism vs sequential execution.
  double percentage_parallelism = 0.0;
};

ParallelizeResult parallelize(const Ddg& loop, const ParallelizeOptions& opts);

}  // namespace mimd
