// The rewrite-pass interface: a Pass rewrites a Loop in place.  A pass
// that needs the dependence analysis (IR + DDG) computes it itself, on
// the loop as it stands when the pass runs, and only once it knows it
// will read it (opt/dce), so no pass observes a stale graph and no pass
// pays for one it does not read.
//
// Contract (PASSES.md has the per-pass legality arguments):
//   * input is if-converted (assign-only) — asserted by the pipeline;
//   * the pass must preserve the observable value streams of
//     opt/eval.hpp bit-for-bit;
//   * run() returns the number of rewrites applied; 0 means the pass is
//     at a fixed point for this loop, which is what terminates the
//     pipeline's fixed-point iteration.
#pragma once

#include <string>
#include <string_view>

#include "ir/loop.hpp"

namespace mimd::opt {

class Pass {
 public:
  virtual ~Pass() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Rewrites `loop` in place.  Returns the number of rewrites applied.
  virtual int run(ir::Loop& loop) = 0;
};

/// Per-pass accounting across all fixed-point rounds.
struct PassStats {
  std::string name;
  int rewrites = 0;    ///< total rewrites (fission: strands emitted)
  int rounds_run = 0;  ///< invocations before the pipeline converged
};

}  // namespace mimd::opt
