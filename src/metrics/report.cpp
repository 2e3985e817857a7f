#include "metrics/report.hpp"

#include <algorithm>

#include "baseline/doacross.hpp"
#include "baseline/sequential.hpp"
#include "graph/unwind.hpp"
#include "metrics/metrics.hpp"
#include "partition/lowering.hpp"
#include "schedule/component_sched.hpp"
#include "schedule/cyclic_sched.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {

FigureComparison compare_on(const Ddg& g, const Machine& m,
                            std::int64_t iterations,
                            const FullSchedOptions& opts) {
  FigureComparison cmp;
  // Our scheduler needs distances in {0, 1}: schedule the unwound loop
  // (an exact copy when g is already normalized), as parallelize() does,
  // and report per original iteration.
  const Unrolled u = normalize_distances(g);
  cmp.ours = full_sched(u.graph, m, (iterations + u.factor - 1) / u.factor,
                        opts);
  if (!cmp.ours.pattern.has_value() && !cmp.ours.classification.is_doall()) {
    // A run cut at n carries no pattern; callers render it.
    cmp.ours.pattern = steady_state_pattern(u.graph, m, opts.cyclic);
  }
  cmp.ii_ours = cmp.ours.steady_ii / static_cast<double>(u.factor);
  cmp.sp_ours =
      percentage_parallelism_asymptotic(g.body_latency(), cmp.ii_ours);
  if (cmp.sp_ours < 0.0) {
    cmp.ours_degenerated = true;
    cmp.sp_ours = 0.0;
  }

  // DOACROSS accepts any distance: it runs on the original loop.
  const DoacrossResult doa = doacross(g, m, iterations);
  cmp.ii_doacross = doa.steady_ii;
  cmp.doacross_degenerated = doa.degenerated_to_sequential;
  cmp.sp_doacross =
      doa.degenerated_to_sequential
          ? 0.0
          : std::max(0.0, percentage_parallelism_asymptotic(g.body_latency(),
                                                            doa.steady_ii));
  return cmp;
}

namespace {

/// Simulated percentage parallelism of a compile-time schedule under
/// run-time communication jitter.
double simulated_sp(const Schedule& sched, const Ddg& g,
                    const Table1Config& cfg, int mm, std::uint64_t seed) {
  const PartitionedProgram prog = lower(sched, g);
  SimOptions so;
  so.machine = cfg.machine;
  so.mm = mm;
  so.jitter = cfg.jitter;
  so.seed = seed;
  const SimResult r = simulate(prog, g, so);
  return percentage_parallelism(sequential_time(g, cfg.iterations),
                                r.makespan);
}

}  // namespace

Table1Result run_table1(const Table1Config& cfg) {
  Table1Result out;
  for (int loop = 0; loop < cfg.loops; ++loop) {
    const std::uint64_t seed = cfg.first_seed + static_cast<std::uint64_t>(loop);
    const Ddg g = workloads::random_cyclic_loop(seed);

    // Our algorithm: detect the pattern at the estimated k (independently
    // per connected component, Section 2.1), materialize, lower to
    // per-processor programs.
    const ComponentSchedResult ours = component_cyclic_sched(g, cfg.machine);
    const Schedule ours_sched =
        materialize(ours, cfg.machine.processors, cfg.iterations);

    // DOACROSSS: same machine, same horizon.  A loop whose skew eats the
    // parallelism is emitted sequentially (Sp = 0 for every mm).
    const DoacrossResult doa = doacross(g, cfg.machine, cfg.iterations);

    Table1Row row;
    row.loop = loop;
    for (const int mm : cfg.mms) {
      row.sp_ours[mm] = simulated_sp(ours_sched, g, cfg, mm, seed);
      row.sp_doacross[mm] =
          doa.degenerated_to_sequential
              ? 0.0
              : std::max(0.0, simulated_sp(doa.schedule, g, cfg, mm, seed));
    }
    out.rows.push_back(std::move(row));
  }

  for (const int mm : cfg.mms) {
    double so = 0.0, sd = 0.0;
    for (const Table1Row& row : out.rows) {
      so += row.sp_ours.at(mm);
      sd += row.sp_doacross.at(mm);
    }
    out.avg_ours[mm] = so / static_cast<double>(out.rows.size());
    out.avg_doacross[mm] = sd / static_cast<double>(out.rows.size());
    out.factor[mm] = out.avg_doacross[mm] > 0.0
                         ? out.avg_ours[mm] / out.avg_doacross[mm]
                         : 0.0;
  }
  return out;
}

}  // namespace mimd
