// In-memory spans recorded around the benchmark's own calls into each
// layer of the library.  One span per layer call: name, start, end,
// parent span and request id.  Spans stay in memory until the run ends;
// a layer's self time is its span's duration minus its children's.
//
// A disabled Tracer records nothing and reads no clock, so the untimed
// request path and the traced one execute the same library calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  /// "<layer>.<call>", a string literal.
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in Tracer::spans(), or -1.
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  /// Units of work the call did (iterations executed), or 0.
  double work = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Exceptions raised inside spans, keyed by layer ("ir", "plan_client").
  [[nodiscard]] const std::map<std::string, std::uint64_t>& errors() const {
    return errors_;
  }

  void set_request(std::uint64_t id) { request_ = id; }

  /// A span open for the lifetime of the object; nested Scopes become its
  /// children.  An exception leaving the scope counts against the layer.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Work done by the call, for per-unit figures (ns per iteration).
    void set_work(double work);

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
    int uncaught_ = 0;
  };

  /// A span whose interval the caller measured itself (pipelined
  /// requests, where start and end happen in different loop turns).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request);

 private:
  void count_error(const std::string& layer);

  bool enabled_;
  std::vector<Span> spans_;
  std::map<std::string, std::uint64_t> errors_;
  std::int32_t open_ = -1;
  std::uint64_t request_ = 0;
};

/// Durations (µs) of every span named `name`, or per-unit-of-work figures
/// (ns per unit) when `per_work` is set.
std::vector<double> span_values(const Tracer& t, const char* name,
                                bool per_work);

/// Self time (µs) of every span named `name`: duration minus the time
/// covered by its direct children.
std::vector<double> self_times_us(const Tracer& t, const char* name);

}  // namespace perfbench
