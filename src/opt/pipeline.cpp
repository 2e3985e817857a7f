#include "opt/pipeline.hpp"

#include <array>
#include <iomanip>
#include <sstream>

#include "opt/dce.hpp"
#include "opt/fission.hpp"
#include "opt/fold_constants.hpp"
#include "opt/strength_reduce.hpp"

namespace mimd::opt {

namespace {

/// Round-robin rounds before the pipeline gives up on a fixed point.
constexpr int kMaxRounds = 8;

}  // namespace

PipelineResult optimize(const ir::Loop& loop, const OptOptions& opts) {
  PipelineResult res;
  if (opts.level == OptLevel::Off) {
    res.loops = {loop};
    return res;
  }
  MIMD_EXPECTS(!loop.has_control_flow());  // if_convert first

  FoldConstants fold;
  StrengthReduce strength;
  DeadCodeElim dce;
  const std::array<Pass*, 3> passes{&fold, &strength, &dce};
  for (Pass* p : passes) res.stats.push_back(PassStats{std::string(p->name())});

  ir::Loop cur = loop;
  res.reached_fixed_point = false;
  for (res.rounds = 0; res.rounds < kMaxRounds; ++res.rounds) {
    int round_rewrites = 0;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const int n = passes[i]->run(cur);
      res.stats[i].rewrites += n;
      res.stats[i].rounds_run += 1;
      round_rewrites += n;
    }
    if (round_rewrites == 0) {
      res.reached_fixed_point = true;
      break;
    }
  }

  res.stats.push_back(PassStats{"fission"});
  res.loops = fission(cur);
  if (res.loops.size() > 1) {
    res.stats.back().rewrites = static_cast<int>(res.loops.size());
  }
  res.stats.back().rounds_run = 1;
  return res;
}

std::string format_stats(const PipelineResult& result) {
  std::ostringstream out;
  out << "opt: " << result.rounds << " round"
      << (result.rounds == 1 ? "" : "s")
      << (result.reached_fixed_point ? " to fixed point" : " (round limit)")
      << ", " << result.loops.size() << " strand"
      << (result.loops.size() == 1 ? "" : "s") << '\n';
  for (const PassStats& s : result.stats) {
    out << "  " << std::left << std::setw(16) << s.name << ' ' << s.rewrites
        << (s.name == "fission"
                ? (s.rewrites > 0 ? " strands" : " (not split)")
                : (s.name == "dce" ? " statements removed" : " rewrites"))
        << '\n';
  }
  return out.str();
}

}  // namespace mimd::opt
