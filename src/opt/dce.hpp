// Dead-code elimination via DDG liveness.
//
// Only runs when the loop declares observable arrays (`out A, B` before
// the `for` header): with no declaration everything is observable and
// the pass is a conservative no-op, so every pre-existing `.loop`
// program is untouched.  Live statements are every definition of an
// output array, transitively closed over DDG in-edges (the producers
// dependence analysis says each live statement reads).  Everything else
// is removed.  The pass analyzes the loop's dependences itself, and only
// when it has an output defined to start from.
//
// Legality: removing a dead statement never changes how a surviving
// read resolves.  A statement is dead only if no live statement has a
// dependence edge from it — and since dependence analysis resolves each
// read to the textually-last definition of the array (before the
// reader, or in the whole body for carried reads), a definition that
// some surviving read resolves to always has an edge to that reader and
// is therefore live.  So the reaching-definition maps restricted to
// surviving statements are unchanged, and with them every surviving
// value stream (opt/eval.hpp).
#pragma once

#include "opt/pass.hpp"

namespace mimd::opt {

class DeadCodeElim final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "dce"; }
  int run(ir::Loop& loop) override;
};

}  // namespace mimd::opt
