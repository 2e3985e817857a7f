#include "oracle.hpp"

#include <bit>

namespace perfbench {

bool reply_matches(const mimd::ExecutionResult& reply,
                   const mimd::ExecutionResult& reference, std::int64_t n) {
  if (!mimd::values_match(reply, reference, n)) return false;
  // values_match has checked the shapes; now compare bit patterns.
  for (std::size_t v = 0; v < reply.values.size(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(i);
      if (std::bit_cast<std::uint64_t>(reply.values[v][k]) !=
          std::bit_cast<std::uint64_t>(reference.values[v][k])) {
        return false;
      }
    }
  }
  return true;
}

SelfTest oracle_self_test(const mimd::ExecutionResult& reply,
                          const mimd::ExecutionResult& reference,
                          std::int64_t n) {
  SelfTest t;
  if (reply.values.empty() || n < 1) {
    t.detail = "no values to flip";
    return t;
  }
  if (!reply_matches(reply, reference, n)) {
    t.detail = "the untouched reply was reported as a mismatch";
    return t;
  }
  const std::size_t last_v = reply.values.size() - 1;
  const auto last_i = static_cast<std::size_t>(n - 1);
  const std::pair<std::size_t, std::size_t> cells[] = {{0, 0},
                                                       {last_v, last_i}};
  for (const auto& [v, i] : cells) {
    for (const int bit : {0, 62, 63}) {
      mimd::ExecutionResult flipped = reply;
      double& x = flipped.values[v][i];
      x = std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                                (std::uint64_t{1} << bit));
      ++t.flips_tried;
      if (!reply_matches(flipped, reference, n)) ++t.flips_detected;
    }
  }
  t.passed = t.flips_detected == t.flips_tried;
  t.detail = std::to_string(t.flips_detected) + "/" +
             std::to_string(t.flips_tried) + " one-bit flips detected";
  return t;
}

}  // namespace perfbench
