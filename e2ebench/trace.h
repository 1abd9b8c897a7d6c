#ifndef GRALMATCH_E2EBENCH_TRACE_H_
#define GRALMATCH_E2EBENCH_TRACE_H_

/// \file trace.h
/// Spans recorded from the benchmark's own files around calls into the
/// program's public API. The program itself carries no tracing: a span is
/// the wall-clock interval of one call as the caller sees it.
///
/// Every timed call goes through Tracer::Time, traced or not, so the traced
/// and the untraced pass run the same code; with tracing off Time only
/// reads the clock twice.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

struct SpanRecord {
  std::string name;
  /// Seconds since the tracer's epoch.
  double start = 0.0;
  double end = 0.0;
  /// Index of the parent span in Tracer::spans(), or -1 for a root.
  int64_t parent = -1;
  /// Spans of one pass share this identifier (0 = set-up).
  uint64_t trace_id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Identifier stamped on the spans that follow.
  void set_trace_id(uint64_t id) { trace_id_ = id; }

  /// Run `fn`, record a span named `name` around it (when enabled) as a
  /// child of the innermost open span, and return its duration in seconds.
  template <typename Fn>
  double Time(const char* name, Fn&& fn) {
    const int64_t index = Open(name);
    const auto start = Clock::now();
    std::forward<Fn>(fn)();
    const auto end = Clock::now();
    Close(index, start, end);
    return std::chrono::duration<double>(end - start).count();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of every span: its duration minus its children's.
  std::vector<double> SelfSeconds() const;

  /// Sum of the self times of the spans of `trace_id` named `name` (and,
  /// when `parent` is non-empty, whose parent is named `parent`).
  double SumSelf(uint64_t trace_id, const std::string& name,
                 const std::string& parent = "") const;

  /// Durations of those spans, in recording order.
  std::vector<double> Durations(uint64_t trace_id, const std::string& name,
                                const std::string& parent = "") const;

  /// All spans as a JSON array (one object per span).
  std::string ToJson() const;

 private:
  using Clock = std::chrono::steady_clock;

  int64_t Open(const char* name);
  void Close(int64_t index, Clock::time_point start, Clock::time_point end);
  bool Matches(const SpanRecord& span, uint64_t trace_id,
               const std::string& name, const std::string& parent) const;

  bool enabled_;
  uint64_t trace_id_ = 0;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;
};

}  // namespace e2ebench

#endif  // GRALMATCH_E2EBENCH_TRACE_H_
