// Spans for the traced run. The benchmark records them with the program's
// own obs::Tracer over an obs::CollectingSink: it opens a span around each
// call it makes into a layer's public function, tags it with the request id
// (annotation "request"), and exports the spans with obs::WriteTraceJsonl
// when the run ends. A layer's self time is its span's duration minus the
// part covered by its child spans.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

namespace obs = silkroute::obs;

/// Self time in ms summed per span name, over the spans whose root span is
/// named `root`.
std::map<std::string, double> SelfMsByName(const std::vector<obs::Span>& spans,
                                           std::string_view root);

/// Writes `spans` to `path` as JSON lines (obs::WriteTraceJsonl); reports
/// an I/O error on standard error.
void WriteTrace(const std::string& path, const std::vector<obs::Span>& spans);

/// Opens a span (a child of `parent`, or a root when `parent` is null; none
/// on a disabled tracer) on construction and ends it on destruction or
/// Stop(). When `measure_peak`
/// is set, free heap is returned to the kernel and the process RSS
/// high-water mark is reset on entry; peak_mb() then reports how far it
/// rose above the RSS at entry — the layer's own peak memory.
class ScopedSpan {
 public:
  ScopedSpan(obs::Tracer* tracer, obs::SpanHandle* parent,
             std::string_view name, uint64_t request,
             bool measure_peak = false);
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span; returns its duration in ms. Idempotent.
  double Stop();
  obs::SpanHandle* handle() { return &span_; }
  double peak_mb() const { return peak_mb_; }

 private:
  obs::SpanHandle span_;
  bool measure_peak_;
  bool open_ = true;
  double start_s_;
  double rss_at_entry_mb_ = 0;
  double elapsed_ms_ = 0;
  double peak_mb_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
