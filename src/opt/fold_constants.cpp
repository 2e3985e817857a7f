#include "opt/fold_constants.hpp"

#include <bit>
#include <cstdint>

#include "opt/eval.hpp"

namespace mimd::opt {

namespace {

// Bit-pattern compare: 0.0 == -0.0 under operator==, but x - (-0.0) -> x
// is wrong for x = -0.0 (it yields +0.0), so the zero identity must only
// match the positive zero bit pattern.
bool is_const(const ir::ExprPtr& e, double v) {
  return e->kind == ir::Expr::Kind::Const &&
         std::bit_cast<std::uint64_t>(e->value) == std::bit_cast<std::uint64_t>(v);
}

ir::ExprPtr rewrite(const ir::ExprPtr& e, int& n) {
  using Kind = ir::Expr::Kind;
  if (e->args.empty()) return e;

  // Children first, rebuilding only when something changed (ExprPtr is
  // an immutable shared tree — untouched subtrees are shared).
  std::vector<ir::ExprPtr> kids;
  kids.reserve(e->args.size());
  bool changed = false;
  for (const ir::ExprPtr& a : e->args) {
    kids.push_back(rewrite(a, n));
    changed = changed || kids.back() != a;
  }
  ir::ExprPtr cur = e;
  if (changed) {
    switch (e->kind) {
      case Kind::Unary:
        cur = ir::unary(e->name, kids[0]);
        break;
      case Kind::Binary:
        cur = ir::binary(e->name, kids[0], kids[1]);
        break;
      case Kind::Select:
        cur = ir::select(kids[0], kids[1], kids[2]);
        break;
      default:
        MIMD_UNREACHABLE("leaf with arguments");
    }
  }

  if (cur->kind == Kind::Unary) {
    const ir::ExprPtr& a = cur->args[0];
    if (a->kind == Kind::Const) {
      ++n;
      return ir::constant(apply_unary(cur->name, a->value));
    }
    // -(-x) -> x: exact (negation only flips the sign bit).
    if (cur->name == "-" && a->kind == Kind::Unary && a->name == "-") {
      ++n;
      return a->args[0];
    }
    return cur;
  }

  if (cur->kind == Kind::Binary) {
    const ir::ExprPtr& l = cur->args[0];
    const ir::ExprPtr& r = cur->args[1];
    if (l->kind == Kind::Const && r->kind == Kind::Const) {
      ++n;
      return ir::constant(apply_binary(cur->name, l->value, r->value));
    }
    // Exact identities only; see the header for the rejected ones.
    if (cur->name == "*" && is_const(r, 1.0)) { ++n; return l; }
    if (cur->name == "*" && is_const(l, 1.0)) { ++n; return r; }
    if (cur->name == "/" && is_const(r, 1.0)) { ++n; return l; }
    if (cur->name == "-" && is_const(r, 0.0)) { ++n; return l; }
    return cur;
  }

  if (cur->kind == Kind::Select && cur->args[0]->kind == Kind::Const) {
    ++n;
    return apply_select(cur->args[0]->value, 1.0, 0.0) != 0.0 ? cur->args[1]
                                                              : cur->args[2];
  }
  return cur;
}

}  // namespace

int FoldConstants::run(ir::Loop& loop) {
  int n = 0;
  for (ir::Stmt& s : loop.body) s.rhs = rewrite(s.rhs, n);
  return n;
}

}  // namespace mimd::opt
