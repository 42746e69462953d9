#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "tpch/generator.h"

namespace perfbench {

std::unique_ptr<silkroute::Database> MakeTpch(double scale, uint64_t seed,
                                              std::vector<double>* generate_s) {
  double start = NowSeconds();
  auto db = std::make_unique<silkroute::Database>();
  silkroute::tpch::TpchConfig config;
  config.scale_factor = scale;
  config.seed = seed;
  silkroute::Status s = silkroute::tpch::GenerateTpch(config, db.get());
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: TPC-H generation failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  generate_s->push_back(NowSeconds() - start);
  return db;
}

double MedianSetUpSeconds(const std::function<void()>& tear_down,
                          const std::function<void()>& set_up) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < 40 && (times.size() < 5 || total < 3.0)) {
    tear_down();
    double start = NowSeconds();
    set_up();
    times.push_back(NowSeconds() - start);
    total += times.back();
  }
  return Median(times);
}

uint64_t Reference::Hash(std::string_view rxl) {
  silkroute::core::PublishOptions options;
  options.strategy = silkroute::core::PlanStrategy::kUnified;
  options.strict = true;
  std::ostringstream out;
  auto result = publisher_.Publish(rxl, options, &out);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: reference publish failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return HashBytes(out.view());
}

void EmitEndToEnd(const Phase& phase, double setup_s, Report* report) {
  report->attempted = phase.attempted;
  report->failed = phase.failed;
  report->correct = phase.failed == 0 && phase.completed() > 0;
  double completed = static_cast<double>(phase.completed());
  report->Set("setup_s", setup_s, "s");
  report->Set("throughput_rps", phase.throughput_rps(), "1/s");
  report->Set("latency_p50_ms", Median(phase.latencies_ms), "ms");
  report->Set("latency_p99_ms", Percentile(phase.latencies_ms, 99), "ms");
  report->Set("peak_rss_mb", phase.peak_rss_mb, "MB");
  report->Set("cpu_ms_per_publish",
              completed > 0 ? phase.cpu_ms / completed : 0, "ms");
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetric kLayerMetrics[] = {
    {"tpch.generate_s", "s"},
    {"engine.analyze_ms", "ms"},
    {"rxl.parse_ms", "ms"},
    {"silkroute.view_tree_ms", "ms"},
    {"silkroute.genplan_ms", "ms"},
    {"silkroute.genplan_oracle_requests", "count"},
    {"silkroute.sqlgen_ms", "ms"},
    {"sql.parse_ms", "ms"},
    {"engine.exec_ms", "ms"},
    {"engine.rows_scanned", "count"},
    {"engine.rows_joined", "count"},
    {"engine.rows_sorted", "count"},
    {"engine.hash_joins", "count"},
    {"engine.nested_loop_joins", "count"},
    {"engine.keys_encoded", "count"},
    {"engine.bytes_encoded", "B"},
    {"engine.morsels_dispatched", "count"},
    {"engine.parallel_fallbacks", "count"},
    {"engine.exec_peak_mb", "MB"},
    {"engine.bind_ms", "ms"},
    {"engine.wire_bytes", "B"},
    {"engine.bind_peak_mb", "MB"},
    {"engine.decode_ms", "ms"},
    {"engine.cache_hit_ratio", "ratio"},
    {"engine.cache_evictions", "count"},
    {"engine.cache_resident_bytes", "B"},
    {"silkroute.tag_ms", "ms"},
    {"silkroute.tagger_rows_consumed", "count"},
    {"silkroute.tagger_peak_buffered_tuples", "count"},
    {"silkroute.tag_peak_mb", "MB"},
    {"xml.bytes", "B"},
    {"xml.flushes", "count"},
    {"service.queue_wait_ms", "ms"},
    {"service.shed", "count"},
    {"service.peak_pending_requests", "count"},
    {"service.peak_in_flight_queries", "count"},
    {"service.unattributed_ms", "ms"},
    {"net.remote_exec_ms", "ms"},
    {"net.overhead_ms", "ms"},
    {"net.serialize_ms", "ms"},
    {"net.deserialize_ms", "ms"},
    {"net.requests_sent", "count"},
    {"net.reconnects", "count"},
    {"net.decode_errors", "count"},
    {"ledger.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

}  // namespace

void EmitLayers(const LayerValues& values, const Phase& untraced,
                const Phase& traced, Report* report) {
  report->attempted = untraced.attempted + traced.attempted;
  report->failed = untraced.failed + traced.failed;
  report->correct = report->failed == 0 && untraced.completed() > 0 &&
                    traced.completed() > 0;
  LayerValues all = values;
  double untraced_rps = untraced.throughput_rps();
  all["trace.overhead"] =
      untraced_rps > 0 ? 1.0 - traced.throughput_rps() / untraced_rps : 0;
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = all.find(m.name);
    report->Set(m.name, it == all.end() ? 0.0 : it->second, m.unit);
  }
}

}  // namespace perfbench
