#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced runs. Spans are recorded by the
// benchmark around its own calls into the library's public functions;
// nothing inside the library is instrumented. A disabled tracer records
// nothing, so the untraced (end-to-end) runs pay one branch per span.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  // steady clock, relative to the tracer's origin
  int64_t end_ns = 0;
  int parent = -1;       // index into Tracer::spans(), -1 for a root
};

/// Aggregate of every span with one name.
struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  /// Duration minus the part of the interval its child spans cover.
  double self_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int Begin(const std::string& name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name count, total duration and self time (single-threaded
  /// nesting: every span is begun and ended on the benchmark's thread).
  std::map<std::string, SpanTotals> Totals() const;

  /// Sum of the durations of spans named `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  int64_t Count(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds), which
  /// Perfetto and chrome://tracing open offline.
  std::string ChromeTraceJson() const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span. `tracer` may be null (no span).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
