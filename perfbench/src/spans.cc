#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "obs/export.h"
#include "util.h"

namespace perfbench {

std::map<std::string, double> SelfMsByName(const std::vector<obs::Span>& spans,
                                           std::string_view root) {
  // Span ids are hierarchical ("1.2.3"): a span's root is its first
  // component.
  auto root_id = [](const std::string& id) {
    return id.substr(0, id.find('.'));
  };
  std::unordered_map<std::string, std::string> root_names;
  // Children's intervals per parent id, merged below so overlapping
  // children are not subtracted twice.
  std::unordered_map<std::string, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const obs::Span& s : spans) {
    if (s.parent_id.empty()) root_names[s.id] = s.name;
    else children[s.parent_id].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self;
  for (const obs::Span& s : spans) {
    auto r = root_names.find(root_id(s.id));
    if (r == root_names.end() || r->second != root) continue;
    uint64_t covered = 0;
    auto kids = children.find(s.id);
    if (kids != children.end()) {
      std::sort(kids->second.begin(), kids->second.end());
      uint64_t cur_start = 0, cur_end = 0;
      bool open = false;
      for (const auto& [start, end] : kids->second) {
        if (!open || start > cur_end) {
          if (open) covered += cur_end - cur_start;
          cur_start = start;
          cur_end = end;
          open = true;
        } else {
          cur_end = std::max(cur_end, end);
        }
      }
      if (open) covered += cur_end - cur_start;
    }
    self[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

void WriteTrace(const std::string& path, const std::vector<obs::Span>& spans) {
  std::ofstream out(path);
  obs::WriteTraceJsonl(out, spans);
  if (!out) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

ScopedSpan::ScopedSpan(obs::Tracer* tracer, obs::SpanHandle* parent,
                       std::string_view name, uint64_t request,
                       bool measure_peak)
    : measure_peak_(measure_peak) {
  if (measure_peak_) {
    ResetPeakRss();
    rss_at_entry_mb_ = CurrentRssMb();
  }
  span_ = obs::Tracer::Child(tracer, parent, name);
  span_.AnnotateCount("request", request);
  start_s_ = NowSeconds();
}

double ScopedSpan::Stop() {
  if (!open_) return elapsed_ms_;
  open_ = false;
  elapsed_ms_ = MsSince(start_s_);
  span_.End();
  if (measure_peak_) peak_mb_ = std::max(0.0, PeakRssMb() - rss_at_entry_mb_);
  return elapsed_ms_;
}

}  // namespace perfbench
