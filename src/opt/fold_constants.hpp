// Constant folding + algebraic simplification over ir/expr trees.
//
// Folds operator applications whose operands are all constants, using
// the same double semantics as the reference evaluator (opt/eval.hpp
// apply_* — shared on purpose: that identity is the bit-exactness
// argument).  Also applies the algebraic identities that are exact
// under IEEE-754:
//     x * 1 -> x     1 * x -> x     x / 1 -> x
//     x - 0 -> x     -(-x) -> x     select(const, a, b) -> a | b
// Rewrites that are NOT exact are deliberately absent — x + 0 (breaks
// for x = -0.0), x * 0 (NaN/inf/-0), x - x (NaN/inf) — see
// docs/PASSES.md for the counterexamples.
#pragma once

#include "opt/pass.hpp"

namespace mimd::opt {

class FoldConstants final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "fold-constants";
  }
  int run(ir::Loop& loop) override;
};

}  // namespace mimd::opt
