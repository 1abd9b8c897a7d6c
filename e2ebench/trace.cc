#include "trace.h"

#include <cstdio>

namespace e2ebench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int64_t Tracer::Open(const char* name) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.trace_id = trace_id_;
  spans_.push_back(std::move(span));
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::Close(int64_t index, Clock::time_point start,
                   Clock::time_point end) {
  if (index < 0) return;
  SpanRecord& span = spans_[static_cast<size_t>(index)];
  span.start = std::chrono::duration<double>(start - epoch_).count();
  span.end = std::chrono::duration<double>(end - epoch_).count();
  open_.pop_back();
}

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  // One thread records every span, so a span's children are disjoint in
  // time and their durations add up to the covered part of its interval.
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end - span.start;
    }
  }
  return self;
}

bool Tracer::Matches(const SpanRecord& span, uint64_t trace_id,
                     const std::string& name,
                     const std::string& parent) const {
  if (span.trace_id != trace_id || span.name != name) return false;
  if (parent.empty()) return true;
  return span.parent >= 0 &&
         spans_[static_cast<size_t>(span.parent)].name == parent;
}

double Tracer::SumSelf(uint64_t trace_id, const std::string& name,
                       const std::string& parent) const {
  const std::vector<double> self = SelfSeconds();
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (Matches(spans_[i], trace_id, name, parent)) total += self[i];
  }
  return total;
}

std::vector<double> Tracer::Durations(uint64_t trace_id,
                                      const std::string& name,
                                      const std::string& parent) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (Matches(span, trace_id, name, parent)) {
      out.push_back(span.end - span.start);
    }
  }
  return out;
}

std::string Tracer::ToJson() const {
  std::string out = "[\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"name\": \"%s\", \"trace_id\": %llu, "
                  "\"parent\": %lld, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                  i, s.name.c_str(),
                  static_cast<unsigned long long>(s.trace_id),
                  static_cast<long long>(s.parent), s.start, s.end,
                  i + 1 < spans_.size() ? "," : "");
    out += line;
  }
  out += "]\n";
  return out;
}

}  // namespace e2ebench
