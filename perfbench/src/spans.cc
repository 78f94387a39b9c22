#include "spans.h"

#include <cstdio>

namespace perfbench {

std::vector<double> SpanRecorder::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = Seconds(static_cast<int>(i));
  }
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    self[static_cast<size_t>(span.parent)] -=
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return self;
}

double SpanRecorder::Seconds(int index) const {
  const Span& span = spans_[static_cast<size_t>(index)];
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::TotalsByName()
    const {
  const std::vector<double> self = SelfTimes();
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = totals[spans_[i].name];
    ++t.count;
    t.total_s += Seconds(static_cast<int>(i));
    t.self_s += self[i];
  }
  return totals;
}

double SelfSeconds(const std::map<std::string, SpanRecorder::Totals>& totals,
                   const std::string& prefix) {
  double sum = 0;
  for (const auto& [name, t] : totals) {
    if (name.rfind(prefix, 0) == 0) sum += t.self_s;
  }
  return sum;
}

std::string SpanRecorder::ToChromeJson(size_t max_spans) const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"otherData\":{\"spans_recorded\":%zu,\"spans_written\":%zu}}\n",
                spans_.size(), spans_.size() < max_spans ? spans_.size()
                                                         : max_spans);
  out += buf;
  return out;
}

}  // namespace perfbench
