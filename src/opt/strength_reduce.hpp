// Strength reduction: identity rewrites that trade expensive operators
// for cheap ones without changing a single result bit.
//
//   x * 2 -> x + x         (exact: both are the rounded value of 2x;
//                           applied only when x contains no */÷, since
//                           the default latency model charges
//                           1 + #muldiv and duplicating a subtree would
//                           double-count its multiplies)
//   2 * x -> x + x         (same)
//   x / c -> x * (1/c)     (c a finite power of two with finite 1/c:
//                           both sides are the rounded value of x·2^-k,
//                           so the rewrite is bit-exact; latency-neutral
//                           in the cost model, kept as canonicalization)
//
// The first rewrite is the one with a measurable scheduling win: under
// the 1 + #muldiv latency model it drops a node's latency, which lowers
// the recurrence-constrained MII when the node sits on a critical
// cycle (bench/bench_opt_passes.cpp measures exactly this on fig7).
#pragma once

#include "opt/pass.hpp"

namespace mimd::opt {

class StrengthReduce final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "strength-reduce";
  }
  int run(ir::Loop& loop) override;
};

}  // namespace mimd::opt
