// serve_cached_greedy: four closed-loop clients call
// PublishingService::Publish (four workers, one shared ResultCache, default
// greedy planning) at TPC-H scale 0.025. Requests alternate between Query 1
// and Query 2. Every 100th request is preceded by a one-row append to Nation
// or Region, applied only once in-flight requests have drained (Table is not
// a concurrent structure). The appends invalidate cached documents, so the
// next publishes run cold; the reference documents are recomputed at each
// write point, outside the timed window.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "engine/result_cache.h"
#include "engine/stats.h"
#include "obs/trace.h"
#include "pipeline.h"
#include "service/publishing_service.h"
#include "silkroute/queries.h"
#include "spans.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

using silkroute::Database;

constexpr double kScale = 0.025;
constexpr int kClients = 4;
constexpr size_t kWorkers = 4;
/// A write precedes every kWriteEvery-th request.
constexpr uint64_t kWriteEvery = 100;

std::string_view ViewRxl(int view) {
  return view == 0 ? core::Query1Rxl() : core::Query2Rxl();
}

/// One set-up: the data, the shared cache and the service over them
/// (destroyed in reverse order).
struct System {
  std::unique_ptr<Database> db;
  std::unique_ptr<engine::ResultCache> cache;
  std::unique_ptr<silkroute::service::PublishingService> service;
};

std::unique_ptr<silkroute::service::PublishingService> MakeService(
    System* sys, silkroute::obs::Tracer* tracer) {
  silkroute::service::ServiceOptions options;
  options.workers = kWorkers;
  options.result_cache = sys->cache.get();
  options.tracer = tracer;
  return std::make_unique<silkroute::service::PublishingService>(
      sys->db.get(), options);
}

/// Publishes both views once; exits on failure.
void Prime(silkroute::service::PublishingService* service) {
  for (int view = 0; view < 2; ++view) {
    silkroute::service::ServiceRequest request;
    request.rxl = std::string(ViewRxl(view));
    auto response = service->Publish(std::move(request));
    if (!response.status.ok()) {
      std::fprintf(stderr, "perfbench: priming publish failed: %s\n",
                   response.status.ToString().c_str());
      std::exit(1);
    }
  }
}

std::unique_ptr<System> SetUp(uint64_t seed, std::vector<double>* generate_s) {
  auto sys = std::make_unique<System>();
  sys->db = MakeTpch(kScale, seed, generate_s);
  sys->cache = std::make_unique<engine::ResultCache>(
      engine::ResultCache::Options());
  sys->service = MakeService(sys.get(), nullptr);
  Prime(sys->service.get());
  return sys;
}

/// Per-request figures the traced run adds up.
struct ResponseTotals {
  double queue_wait_ms = 0;
  double wire_bytes = 0;
  double xml_bytes = 0;
  double xml_flushes = 0;
  double tagger_rows = 0;
  /// Planning time the benchmark measured for the request's view at the
  /// current table versions.
  double planning_ms = 0;

  void Add(const ResponseTotals& o) {
    queue_wait_ms += o.queue_wait_ms;
    wire_bytes += o.wire_bytes;
    xml_bytes += o.xml_bytes;
    xml_flushes += o.xml_flushes;
    tagger_rows += o.tagger_rows;
    planning_ms += o.planning_ms;
  }
};

/// The request schedule and the write points, both drawn from the seed,
/// plus the reference hashes at the current table versions.
class Schedule {
 public:
  Schedule(uint64_t seed, Database* db)
      : rng_(seed), db_(db), reference_(db) {
    view_offset_ = static_cast<int>(rng_() % 2);
    Refresh();
  }

  int ViewOf(uint64_t request) const {
    return static_cast<int>((request + view_offset_) % 2);
  }
  uint64_t expected(int view) const { return expected_[view]; }

  /// Appends one row to Nation or Region, then recomputes the references.
  void Write() {
    silkroute::Status s;
    if (rng_() % 2 == 0) {
      int64_t key = 25 + nations_added_++;
      s = db_->Insert("Nation",
                      silkroute::Tuple{silkroute::Value::Int64(key),
                                       silkroute::Value::String(
                                           "NATION" + std::to_string(key)),
                                       silkroute::Value::Int64(
                                           static_cast<int64_t>(rng_() % 5))});
    } else {
      int64_t key = 5 + regions_added_++;
      s = db_->Insert("Region",
                      silkroute::Tuple{silkroute::Value::Int64(key),
                                       silkroute::Value::String(
                                           "REGION" + std::to_string(key))});
    }
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: write failed: %s\n",
                   s.ToString().c_str());
      std::exit(1);
    }
    Refresh();
  }

 private:
  /// Both views at once: the reference publisher is thread-compatible for
  /// concurrent publishes, and this keeps the write pauses short.
  void Refresh() {
    std::thread other([this] { expected_[1] = reference_.Hash(ViewRxl(1)); });
    expected_[0] = reference_.Hash(ViewRxl(0));
    other.join();
  }

  std::mt19937_64 rng_;
  Database* db_;
  Reference reference_;
  int view_offset_ = 0;
  int64_t nations_added_ = 0;
  int64_t regions_added_ = 0;
  uint64_t expected_[2] = {0, 0};
};

/// Runs batches of kWriteEvery requests from kClients closed-loop clients
/// until `seconds` of batch time have passed. Between batches (drained):
/// the write, the reference refresh and `between_batches`; none of it is
/// timed.
Phase Serve(silkroute::service::PublishingService* service, double seconds,
            uint64_t* next_request, Schedule* schedule,
            const std::function<void()>& between_batches,
            const double* planning_ms, ResponseTotals* totals) {
  Phase phase;
  std::mutex mu;
  while (phase.attempted == 0 || phase.wall_s < seconds) {
    if (*next_request > 0 && *next_request % kWriteEvery == 0) {
      schedule->Write();
    }
    if (between_batches) between_batches();
    const uint64_t begin = *next_request;
    const uint64_t end = begin + kWriteEvery;
    std::atomic<uint64_t> cursor{begin};

    ResetPeakRss();
    double cpu_start = ProcessCpuMs();
    double start = NowSeconds();
    auto client = [&] {
      std::vector<double> latencies;
      ResponseTotals local;
      uint64_t failed = 0;
      for (uint64_t i = cursor++; i < end; i = cursor++) {
        int view = schedule->ViewOf(i);
        silkroute::service::ServiceRequest request;
        request.rxl = std::string(ViewRxl(view));
        double t0 = NowSeconds();
        silkroute::service::ServiceResponse response =
            service->Publish(std::move(request));
        double latency_ms = MsSince(t0);
        if (!response.status.ok() || response.result.metrics.timed_out) {
          std::fprintf(stderr, "perfbench: request failed: %s\n",
                       response.status.ok()
                           ? "timed out"
                           : response.status.ToString().c_str());
          ++failed;
          continue;
        }
        if (HashBytes(response.xml) != schedule->expected(view)) {
          std::fprintf(stderr, "perfbench: document differs from reference\n");
          ++failed;
          continue;
        }
        latencies.push_back(latency_ms);
        const core::PlanMetrics& m = response.result.metrics;
        for (const core::ComponentOutcome& c : m.components) {
          local.queue_wait_ms += c.queue_wait_ms;
        }
        local.wire_bytes += static_cast<double>(m.wire_bytes);
        local.xml_bytes += static_cast<double>(m.xml_bytes);
        local.xml_flushes += static_cast<double>(m.xml_flushes);
        local.tagger_rows += static_cast<double>(m.tagger.rows_consumed);
        if (planning_ms != nullptr) local.planning_ms += planning_ms[view];
      }
      std::lock_guard<std::mutex> lock(mu);
      phase.latencies_ms.insert(phase.latencies_ms.end(), latencies.begin(),
                                latencies.end());
      phase.failed += failed;
      totals->Add(local);
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
    phase.wall_s += NowSeconds() - start;
    phase.cpu_ms += ProcessCpuMs() - cpu_start;
    phase.peak_rss_mb = std::max(phase.peak_rss_mb, PeakRssMb());
    phase.attempted += end - begin;
    *next_request = end;
  }
  return phase;
}

}  // namespace

Report RunServeCachedGreedy(const RunArgs& args) {
  std::vector<double> generate_s;
  std::unique_ptr<System> sys;
  const double setup_s = MedianSetUpSeconds(
      [&] { sys.reset(); }, [&] { sys = SetUp(args.seed, &generate_s); });
  Schedule schedule(args.seed, sys->db.get());
  uint64_t next_request = 0;
  ResponseTotals ignored;

  Report report;
  if (!args.trace) {
    Phase phase = Serve(sys->service.get(), args.seconds, &next_request,
                        &schedule, nullptr, nullptr, &ignored);
    EmitEndToEnd(phase, setup_s, &report);
    return report;
  }

  // Traced run: half on the untraced service, half on a second service over
  // the same data and cache with the program's own tracer on.
  Phase untraced = Serve(sys->service.get(), args.seconds / 2, &next_request,
                         &schedule, nullptr, nullptr, &ignored);
  silkroute::obs::CollectingSink sink;
  silkroute::obs::Tracer tracer(&sink);
  auto traced_service = MakeService(sys.get(), &tracer);
  engine::ResultCache::Stats cache_before = sys->cache->stats();

  // Planning is timed once per view and table-version state, from outside,
  // under "plan_probe" roots: the work the service does before the
  // publisher's "plan" span opens. The SQL parse of each component, which
  // the service runs inside that span and only on a cache miss, is timed
  // under separate "parse_probe" roots.
  LayerCounters counters;
  double planning_ms[2] = {0, 0};
  uint64_t probes = 0;
  auto probe_planning = [&] {
    for (int view = 0; view < 2; ++view) {
      PipelineOptions pipeline;
      pipeline.db = sys->db.get();
      pipeline.rxl = ViewRxl(view);
      pipeline.strategy = core::PlanStrategy::kGreedy;
      pipeline.oracle = traced_service->publisher()->estimator();
      ScopedSpan root(&tracer, nullptr, "plan_probe", ++probes);
      auto planned =
          TracedPlan(pipeline, &tracer, root.handle(), probes, &counters);
      if (!planned.ok()) {
        std::fprintf(stderr, "perfbench: planning probe failed: %s\n",
                     planned.status().ToString().c_str());
        std::exit(1);
      }
      planning_ms[view] = root.Stop();
      ScopedSpan parse_root(&tracer, nullptr, "parse_probe", probes);
      for (const core::StreamSpec& spec : planned.value().specs) {
        ScopedSpan span(&tracer, parse_root.handle(), "sql.parse", probes);
        if (!silkroute::sql::ParseQuery(spec.sql).ok()) std::exit(1);
      }
    }
  };
  ResponseTotals totals;
  Phase traced = Serve(traced_service.get(), args.seconds / 2, &next_request,
                       &schedule, probe_planning, planning_ms, &totals);

  std::vector<silkroute::obs::Span> spans = sink.spans();
  double plan_span_ms = 0, query_ms = 0, bind_ms = 0, tag_ms = 0;
  for (const silkroute::obs::Span& s : spans) {
    if (s.name == "plan") plan_span_ms += s.duration_ms();
    if (s.name == "phase:query") query_ms += s.duration_ms();
    if (s.name == "phase:bind") bind_ms += s.duration_ms();
    if (s.name == "phase:tag") tag_ms += s.duration_ms();
  }
  const double n = static_cast<double>(std::max<size_t>(traced.completed(), 1));
  const double n_probes = static_cast<double>(std::max<uint64_t>(probes, 1));
  std::map<std::string, double> self = SelfMsByName(spans, "plan_probe");
  double latency_total = 0;
  for (double ms : traced.latencies_ms) latency_total += ms;

  LayerValues v;
  v["tpch.generate_s"] = Median(generate_s);
  {
    ScopedSpan span(&tracer, nullptr, "engine.analyze", 0);
    silkroute::engine::DatabaseStats::Collect(*sys->db);
    v["engine.analyze_ms"] = span.Stop();
  }
  v["rxl.parse_ms"] = self["rxl.parse"] / n_probes;
  v["silkroute.view_tree_ms"] = self["silkroute.view_tree"] / n_probes;
  v["silkroute.genplan_ms"] = self["silkroute.genplan"] / n_probes;
  v["silkroute.genplan_oracle_requests"] =
      static_cast<double>(counters.oracle_requests) / n_probes;
  v["silkroute.sqlgen_ms"] = self["silkroute.sqlgen"] / n_probes;
  v["sql.parse_ms"] =
      SelfMsByName(spans, "parse_probe")["sql.parse"] / n_probes;
  v["engine.exec_ms"] = query_ms / n;
  v["engine.bind_ms"] = bind_ms / n;
  v["engine.wire_bytes"] = totals.wire_bytes / n;
  v["silkroute.tag_ms"] = tag_ms / n;
  v["silkroute.tagger_rows_consumed"] = totals.tagger_rows / n;
  v["xml.bytes"] = totals.xml_bytes / n;
  v["xml.flushes"] = totals.xml_flushes / n;

  engine::ResultCache::Stats cache = sys->cache->stats();
  double lookups = static_cast<double>((cache.hits - cache_before.hits) +
                                       (cache.misses - cache_before.misses));
  v["engine.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(cache.hits - cache_before.hits) / lookups
                  : 0;
  v["engine.cache_evictions"] =
      static_cast<double>(cache.evictions - cache_before.evictions);
  v["engine.cache_resident_bytes"] = static_cast<double>(cache.resident_bytes);

  silkroute::service::ServiceMetrics service = traced_service->metrics();
  v["service.queue_wait_ms"] = totals.queue_wait_ms / n;
  v["service.shed"] = static_cast<double>(service.admission.shed_requests +
                                          service.admission.shed_queries +
                                          service.admission.shed_memory);
  v["service.peak_pending_requests"] =
      static_cast<double>(service.admission.peak_pending_requests);
  v["service.peak_in_flight_queries"] =
      static_cast<double>(service.admission.peak_in_flight_queries);
  // Client latency not covered by planning (timed outside) or the
  // publisher's plan span: plan_mu_ and admission waits, thread hand-offs.
  double attributed_ms = totals.planning_ms + plan_span_ms;
  v["service.unattributed_ms"] = (latency_total - attributed_ms) / n;
  v["ledger.coverage"] = latency_total > 0 ? attributed_ms / latency_total : 0;

  EmitLayers(v, untraced, traced, &report);
  if (!args.trace_path.empty()) WriteTrace(args.trace_path, sink.spans());
  traced_service->Shutdown();
  return report;
}

}  // namespace perfbench
