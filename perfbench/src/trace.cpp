#include "trace.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

Tracer::Scope::Scope(Tracer& t, const char* name)
    : tracer_(t), uncaught_(std::uncaught_exceptions()) {
  if (!t.enabled_) return;
  index_ = static_cast<std::int32_t>(t.spans_.size());
  saved_parent_ = t.open_;
  t.spans_.push_back(Span{name, now_ns(), 0, t.open_, t.request_, 0.0});
  t.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = tracer_.spans_[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  tracer_.open_ = saved_parent_;
  if (std::uncaught_exceptions() > uncaught_) {
    const char* dot = std::strchr(s.name, '.');
    tracer_.count_error(dot ? std::string(s.name, dot) : std::string(s.name));
  }
}

void Tracer::Scope::set_work(double work) {
  if (index_ >= 0) tracer_.spans_[static_cast<std::size_t>(index_)].work = work;
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request) {
  if (!enabled_) return;
  spans_.push_back(Span{name, start_ns, end_ns, open_, request, 0.0});
}

void Tracer::count_error(const std::string& layer) {
  if (enabled_) ++errors_[layer];
}

std::vector<double> span_values(const Tracer& t, const char* name,
                                bool per_work) {
  std::vector<double> out;
  for (const Span& s : t.spans()) {
    if (std::strcmp(s.name, name) != 0) continue;
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    if (!per_work) {
      out.push_back(ns / 1e3);
    } else if (s.work > 0.0) {
      out.push_back(ns / s.work);
    }
  }
  return out;
}

std::vector<double> self_times_us(const Tracer& t, const char* name) {
  const std::vector<Span>& spans = t.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    const std::int64_t self =
        spans[i].end_ns - spans[i].start_ns - child_ns[i];
    out.push_back(static_cast<double>(std::max<std::int64_t>(self, 0)) / 1e3);
  }
  return out;
}

}  // namespace perfbench
