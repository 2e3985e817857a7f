// Experiment runners that regenerate the paper's evaluation artifacts.
//
// `compare_on` produces one Figure-style comparison row (our algorithm vs
// DOACROSS on a given loop); `run_table1` regenerates Table 1: 25 random
// loops executed on the simulated multiprocessor with communication jitter
// mm in {1, 3, 5}.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "graph/ddg.hpp"
#include "schedule/full_sched.hpp"
#include "sim/machine_sim.hpp"

namespace mimd {

struct FigureComparison {
  double ii_ours = 0.0;        ///< steady cycles per original iteration, ours
  double ii_doacross = 0.0;    ///< steady cycles/iteration, DOACROSS
  double sp_ours = 0.0;        ///< asymptotic percentage parallelism
  double sp_doacross = 0.0;    ///< ditto, clamped at 0 on degeneration
  bool doacross_degenerated = false;
  /// True when the greedy schedule would be *slower* than sequential
  /// execution (possible when k approaches the body latency: the greedy
  /// commits to parallelism before the communication bill arrives) and a
  /// real compiler would emit the sequential loop; sp_ours is clamped to
  /// 0 in that case, ii_ours keeps the raw value for inspection.
  bool ours_degenerated = false;
  /// Full result for rendering / codegen; carries a pattern unless the
  /// loop is DOALL (detected on demand when the schedule stopped at n).
  /// It schedules the loop actually partitioned: the unwound one when
  /// the input's distances exceed 1 (graph/unwind.hpp).
  FullSchedResult ours;
};

/// Compile-time comparison (no run-time jitter), as in the paper's
/// Section 3 examples.  `g` may carry any dependence distance: ours runs
/// on the distance-normalized loop over ceil(iterations / factor)
/// unwound iterations, exactly as parallelize() does, DOACROSS on `g`
/// itself; both II figures are per original iteration.
FigureComparison compare_on(const Ddg& g, const Machine& m,
                            std::int64_t iterations,
                            const FullSchedOptions& opts = {});

struct Table1Config {
  int loops = 25;
  std::uint64_t first_seed = 1;
  Machine machine{/*processors=*/8, /*comm_estimate=*/3};
  std::vector<int> mms{1, 3, 5};
  std::int64_t iterations = 100;
  JitterMode jitter = JitterMode::WorstCase;
};

struct Table1Row {
  int loop = 0;                      ///< 0-based loop index, as in the paper
  std::map<int, double> sp_ours;     ///< mm -> percentage parallelism
  std::map<int, double> sp_doacross;
};

struct Table1Result {
  std::vector<Table1Row> rows;
  std::map<int, double> avg_ours;      ///< Table 1(b) first row
  std::map<int, double> avg_doacross;  ///< Table 1(b) second row
  std::map<int, double> factor;        ///< "factor of speed-up over DOACROSS"
};

Table1Result run_table1(const Table1Config& cfg = {});

}  // namespace mimd
