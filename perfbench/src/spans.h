#ifndef DCAPE_PERFBENCH_SPANS_H_
#define DCAPE_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for one thread. A span is a name, a start, an
/// end and the span that was open when it began (its parent). Spans are
/// written out only after the traced run ends.
///
/// Span names are "<layer>.<call>", where <layer> is the src/ module
/// whose public function the span times
/// ("state.PartitionGroup::ProbeAndInsert"); the roots are "run" and
/// "replay".
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  /// Opens a span under the currently open one and returns its index.
  /// `name` must outlive the recorder (a string literal).
  int Begin(const char* name) {
    spans_.push_back(Span{name, current_, NowNs(), -1});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  /// Closes span `index`, which must be the innermost open span.
  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(index)].parent;
  }

  /// Closes the span when it leaves scope.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name)
        : recorder_(recorder), index_(recorder->Begin(name)) {}
    ~Scope() { recorder_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  /// Per span name: summed duration and summed self time (duration minus
  /// the part covered by direct children; spans nest strictly on one
  /// thread, so children never overlap each other), in seconds.
  struct Totals {
    int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Totals> TotalsByName() const;
  /// Duration of span `index`, in seconds.
  double Seconds(int index) const;

  /// Chrome trace_event JSON of the first `max_spans` spans (complete
  /// events on one lane, each with its parent index).
  std::string ToChromeJson(size_t max_spans) const;
  size_t size() const { return spans_.size(); }

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    const char* name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  std::vector<double> SelfTimes() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Summed self time of the spans in `totals` whose name starts with
/// `prefix`.
double SelfSeconds(const std::map<std::string, SpanRecorder::Totals>& totals,
                   const std::string& prefix);

}  // namespace perfbench

#endif  // DCAPE_PERFBENCH_SPANS_H_
