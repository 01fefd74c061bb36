// In-memory span recorder for the certificate-job benchmark.
//
// A span is one timed call into an engine layer: name, start, end and the
// span that was open when it began. Spans stay in memory for the whole
// half-job and are serialised once at its end, so recording costs two clock
// reads and a vector push per call. A layer's self time is its span's
// duration minus the time its child spans cover; the self times of every
// span under a root therefore add up to the root's duration exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace certbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Opens a span as a child of the innermost open span; closes on scope
  /// exit (also when the traced call throws). A null tracer records
  /// nothing, so untraced runs share the traced code path at no cost.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ == nullptr) return;
      id_ = static_cast<int>(tracer_->spans_.size());
      tracer_->spans_.push_back({name, tracer_->open_, now_ns(), 0});
      tracer_->open_ = id_;
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      Span& s = tracer_->spans_[static_cast<std::size_t>(id_)];
      s.end_ns = now_ns();
      tracer_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Self time per span name, in milliseconds, summed over all its spans.
inline std::map<std::string, double> self_ms_by_name(
    const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                   1e6;
  }
  return out;
}

/// Total (inclusive) time per span name, in milliseconds.
inline std::map<std::string, double> total_ms_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return out;
}

}  // namespace certbench
