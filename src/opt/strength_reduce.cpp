#include "opt/strength_reduce.hpp"

#include <cmath>

namespace mimd::opt {

namespace {

int muldiv_count(const ir::Expr& e) {
  int n = (e.kind == ir::Expr::Kind::Binary && (e.name == "*" || e.name == "/"))
              ? 1
              : 0;
  for (const ir::ExprPtr& a : e.args) n += muldiv_count(*a);
  return n;
}

bool is_const(const ir::ExprPtr& e, double v) {
  return e->kind == ir::Expr::Kind::Const && e->value == v;
}

// |c| = 2^k, c and 1/c both finite: x/c and x*(1/c) then both compute
// the correctly-rounded value of x·2^-k and are bit-identical.
bool exact_reciprocal(double c) {
  if (!std::isfinite(c) || c == 0.0 || !std::isfinite(1.0 / c)) return false;
  int exp = 0;
  return std::frexp(std::fabs(c), &exp) == 0.5;
}

ir::ExprPtr rewrite(const ir::ExprPtr& e, int& n) {
  using Kind = ir::Expr::Kind;
  if (e->args.empty()) return e;

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
  if (cur->kind != Kind::Binary) return cur;

  const ir::ExprPtr& l = cur->args[0];
  const ir::ExprPtr& r = cur->args[1];
  if (cur->name == "*") {
    // x*2 -> x+x, profitable only when x is multiply-free (the shared
    // subtree would otherwise be charged twice by the latency model).
    if (is_const(r, 2.0) && muldiv_count(*l) == 0) {
      ++n;
      return ir::binary("+", l, l);
    }
    if (is_const(l, 2.0) && muldiv_count(*r) == 0) {
      ++n;
      return ir::binary("+", r, r);
    }
    return cur;
  }
  if (cur->name == "/" && r->kind == Kind::Const &&
      exact_reciprocal(r->value) && r->value != 1.0) {
    ++n;
    return ir::binary("*", l, ir::constant(1.0 / r->value));
  }
  return cur;
}

}  // namespace

int StrengthReduce::run(ir::Loop& loop) {
  int n = 0;
  for (ir::Stmt& s : loop.body) s.rhs = rewrite(s.rhs, n);
  return n;
}

}  // namespace mimd::opt
