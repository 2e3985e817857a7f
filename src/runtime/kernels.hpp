// Numeric semantics for loop nodes, so partitioned schedules can be
// *executed* (not just simulated) and their results validated against
// sequential execution.
//
// The default "synthetic" kernel gives every DDG a deterministic meaning:
//   value(v, i) = combine(latency-scaled seed of v, i, operand values in
//                         in-edge order)
// Because operands are always folded in the graph's fixed in-edge order,
// any correct execution order — sequential, simulated, threaded — produces
// bit-identical results; a race or a mis-routed message changes them.
//
// `work` adds a tunable amount of real floating-point work per latency
// cycle so thread-level speedups are measurable on real hardware.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/ddg.hpp"

namespace mimd {

struct KernelOptions {
  /// Iterations of the inner flop loop per latency cycle (coarsens grain).
  int work_per_cycle = 0;
};

/// Deterministic synthetic node function shared by all executors.
double synthetic_value(const Ddg& g, NodeId v, std::int64_t iter,
                       const std::vector<double>& operands,
                       const KernelOptions& opts);

/// A run's values: one zero-filled, row-major nodes x n block, where
/// values[v][i] is node v's value at iteration i — the layout of the
/// paper's transformed loop (Fig. 7(e)) and of a native kernel's R
/// (partition/c_codegen.hpp), so every tier writes its values in place.
/// Rows are spans: under _GLIBCXX_ASSERTIONS an index past a row's end is
/// caught even though it stays inside the allocation.
class ResultBlock {
 public:
  ResultBlock() = default;
  ResultBlock(std::size_t rows, std::int64_t n)
      : rows_(rows), row_length_(static_cast<std::size_t>(n)),
        cells_(rows * row_length_) {}

  [[nodiscard]] std::size_t size() const { return rows_; }
  [[nodiscard]] bool empty() const { return rows_ == 0; }
  [[nodiscard]] std::size_t row_length() const { return row_length_; }
  [[nodiscard]] std::span<double> operator[](std::size_t v) {
    return std::span(cells_).subspan(v * row_length_, row_length_);
  }
  [[nodiscard]] std::span<const double> operator[](std::size_t v) const {
    return std::span(cells_).subspan(v * row_length_, row_length_);
  }
  /// Row v starts at data() + v * row_length().
  [[nodiscard]] double* data() { return cells_.data(); }
  friend bool operator==(const ResultBlock&, const ResultBlock&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t row_length_ = 0;
  std::vector<double> cells_;
};

/// Reference executor: run `n` iterations sequentially; out[v][i] is the
/// value of node v at iteration i.  Initial values (iteration < 0) are
/// defined as 0.5 * (node id + 1).
ResultBlock run_sequential(const Ddg& g, std::int64_t n,
                           const KernelOptions& opts = {});

/// Initial (pre-loop) value of a node, used for operands that reach back
/// before iteration 0.
double initial_value(NodeId v);

}  // namespace mimd
