// The correctness oracle every reply goes through: the library's own
// values_match against a sequential reference run on the *normalized*
// graph at its normalized iteration count, plus a bit-pattern comparison
// (values_match compares with IEEE ==, which cannot tell -0.0 from 0.0).
#pragma once

#include <cstdint>
#include <string>

#include "runtime/executor.hpp"

namespace perfbench {

/// True iff `reply` agrees with `reference` on every (node, iteration < n)
/// value, bit for bit.
[[nodiscard]] bool reply_matches(const mimd::ExecutionResult& reply,
                                 const mimd::ExecutionResult& reference,
                                 std::int64_t n);

struct SelfTest {
  bool passed = false;
  int flips_detected = 0;
  int flips_tried = 0;
  std::string detail;
};

/// Proves the oracle can fail: `reply` (a correct reply) must match, and
/// every copy of it with one bit flipped — a low mantissa bit, a high
/// exponent bit and the sign bit, at the first and last checked value —
/// must be reported as a mismatch.
[[nodiscard]] SelfTest oracle_self_test(const mimd::ExecutionResult& reply,
                                        const mimd::ExecutionResult& reference,
                                        std::int64_t n);

}  // namespace perfbench
