// The pass pipeline: the one entry point the front end calls between
// if-conversion and dependence analysis / partitioning.
//
// Scalar passes (fold-constants -> strength-reduce -> dce) run in order,
// round-robin, until a full round applies zero rewrites (fixed point) or
// 8 rounds have run.  Only the passes that read dependences analyze them
// (dce, on the loop it is handed, and fission), so no pass sees a stale
// DDG and the folding passes cost no analysis.  Fission runs once at the end
// — it changes the program's shape (1 loop -> N strands), so it can't
// participate in the round-robin.  Every O1 caller gets the strands; one
// that needs a single loop (`mimdc --c`, which emits one artifact per
// source) refuses a source that splits.
//
// OptLevel::Off returns the input untouched with empty stats: `--opt=off`
// must reproduce pre-mid-end behavior bit-for-bit.
#pragma once

#include <string>
#include <vector>

#include "ir/loop.hpp"
#include "opt/opt_level.hpp"
#include "opt/pass.hpp"

namespace mimd::opt {

struct OptOptions {
  OptLevel level = OptLevel::O1;
};

struct PipelineResult {
  /// The rewritten program: one loop normally, N independent strands
  /// when fission split it.  Always non-empty.
  std::vector<ir::Loop> loops;
  std::vector<PassStats> stats;
  int rounds = 0;
  bool reached_fixed_point = true;
};

PipelineResult optimize(const ir::Loop& loop, const OptOptions& opts = {});

/// Human-readable per-pass stats for `mimdc --dump-passes`.
std::string format_stats(const PipelineResult& result);

}  // namespace mimd::opt
