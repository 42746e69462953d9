// The two batch workloads: one client publishing back to back with the fully
// partitioned plan.
//
//  export_q1_partitioned: Query 1 at TPC-H scale 0.1, in-process executor,
//    one engine thread, no cache (the reference publish).
//  remote_q2_parallel: Query 2 at scale 0.05, component queries sent through
//    a RemoteSqlExecutor to an in-process EngineServer over loopback (one
//    server worker, two engine threads).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>

#include "engine/morsel.h"
#include "engine/stats.h"
#include "net/remote_executor.h"
#include "net/server.h"
#include "pipeline.h"
#include "silkroute/queries.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

using silkroute::Database;
using silkroute::Result;

struct SingleClientSpec {
  double scale;
  std::string_view rxl;
  bool remote;
  int engine_threads;
};

/// One set-up of the system under test; members are destroyed in reverse
/// order (client, server, then the data they use).
struct System {
  std::unique_ptr<Database> db;
  std::unique_ptr<silkroute::net::EngineServer> server;
  std::unique_ptr<silkroute::net::RemoteSqlExecutor> remote;
  std::unique_ptr<core::Publisher> publisher;
};

std::unique_ptr<System> SetUp(const SingleClientSpec& spec, uint64_t seed,
                              std::vector<double>* generate_s) {
  auto owned = std::make_unique<System>();
  System& sys = *owned;
  sys.db = MakeTpch(spec.scale, seed, generate_s);
  if (spec.remote) {
    silkroute::net::EngineServerOptions server_options;
    server_options.workers = 1;
    server_options.engine_threads = spec.engine_threads;
    sys.server = std::make_unique<silkroute::net::EngineServer>(
        sys.db.get(), server_options);
    silkroute::Status started = sys.server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: engine server failed to start: %s\n",
                   started.ToString().c_str());
      std::exit(1);
    }
    silkroute::net::RemoteExecutorOptions remote_options;
    remote_options.port = sys.server->port();
    sys.remote =
        std::make_unique<silkroute::net::RemoteSqlExecutor>(remote_options);
  }
  sys.publisher = std::make_unique<core::Publisher>(sys.db.get());
  return owned;
}

using PublishFn = std::function<Result<std::string>(double*)>;

/// One client, back to back, for at least `seconds`: calls the `lanes` in
/// turn and returns one Phase per lane. Alternating keeps the lanes under
/// the same host conditions. Every document is hashed and compared with
/// `expected`. A lane sets `*excluded_ms` to any part of its time that is
/// not publishing. CPU time and peak RSS cover the whole loop.
std::vector<Phase> ClosedLoop(double seconds, uint64_t expected,
                              const std::vector<PublishFn>& lanes) {
  std::vector<Phase> phases(lanes.size());
  ResetPeakRss();
  double cpu_start = ProcessCpuMs();
  double start = NowSeconds();
  do {
    for (size_t i = 0; i < lanes.size(); ++i) {
      Phase& phase = phases[i];
      ++phase.attempted;
      double excluded_ms = 0;
      double t0 = NowSeconds();
      Result<std::string> doc = lanes[i](&excluded_ms);
      double latency_ms = MsSince(t0) - excluded_ms;
      if (!doc.ok()) {
        std::fprintf(stderr, "perfbench: publish failed: %s\n",
                     doc.status().ToString().c_str());
        ++phase.failed;
      } else if (HashBytes(doc.value()) != expected) {
        std::fprintf(stderr, "perfbench: document differs from reference\n");
        ++phase.failed;
      } else {
        phase.latencies_ms.push_back(latency_ms);
      }
      phase.wall_s += (MsSince(t0) - excluded_ms) / 1e3;
    }
  } while (NowSeconds() - start < seconds);
  for (Phase& phase : phases) {
    phase.cpu_ms = ProcessCpuMs() - cpu_start;
    phase.peak_rss_mb = PeakRssMb();
  }
  return phases;
}

/// The per-layer figures of the traced publishes. `publish_ms` is the mean
/// latency of the untraced Publisher::Publish calls they alternated with.
LayerValues LayerValuesFromTrace(const std::vector<obs::Span>& spans,
                                 const LayerCounters& c, double publish_ms) {
  LayerValues v;
  const double n = static_cast<double>(c.publishes > 0 ? c.publishes : 1);
  std::map<std::string, double> self = SelfMsByName(spans, "publish");
  std::map<std::string, double> side = SelfMsByName(spans, "side");
  const bool remote = self.count("net.remote_exec") > 0;
  // Executor figures come from the publish itself in-process, and from the
  // side pass (same SQL, in-process) when the publish went over the wire.
  auto& exec_spans = remote ? side : self;
  v["rxl.parse_ms"] = self["rxl.parse"] / n;
  v["silkroute.view_tree_ms"] = self["silkroute.view_tree"] / n;
  v["silkroute.genplan_ms"] = self["silkroute.genplan"] / n;
  v["silkroute.genplan_oracle_requests"] =
      static_cast<double>(c.oracle_requests) / n;
  v["silkroute.sqlgen_ms"] = self["silkroute.sqlgen"] / n;
  v["sql.parse_ms"] = exec_spans["sql.parse"] / n;
  v["engine.exec_ms"] = exec_spans["engine.exec"] / n;
  v["engine.rows_scanned"] = static_cast<double>(c.exec.rows_scanned) / n;
  v["engine.rows_joined"] = static_cast<double>(c.exec.rows_joined) / n;
  v["engine.rows_sorted"] = static_cast<double>(c.exec.rows_sorted) / n;
  v["engine.hash_joins"] = static_cast<double>(c.exec.hash_joins) / n;
  v["engine.nested_loop_joins"] =
      static_cast<double>(c.exec.nested_loop_joins) / n;
  v["engine.keys_encoded"] = static_cast<double>(c.exec.keys_encoded) / n;
  v["engine.bytes_encoded"] = static_cast<double>(c.exec.bytes_encoded) / n;
  v["engine.morsels_dispatched"] =
      static_cast<double>(c.exec.morsels_dispatched) / n;
  v["engine.parallel_fallbacks"] =
      static_cast<double>(c.exec.parallel_fallbacks) / n;
  v["engine.exec_peak_mb"] = c.exec_peak_mb;
  v["engine.bind_ms"] = self["engine.bind"] / n;
  v["engine.wire_bytes"] = static_cast<double>(c.wire_bytes) / n;
  v["engine.bind_peak_mb"] = c.bind_peak_mb;
  v["engine.decode_ms"] = self["engine.decode"] / n;
  // The tagger decodes its input again while merging: its own figure is
  // Run + Finish minus one decode pass.
  v["silkroute.tag_ms"] = (self["silkroute.tag"] - self["engine.decode"]) / n;
  v["silkroute.tagger_rows_consumed"] = static_cast<double>(c.tagger_rows) / n;
  v["silkroute.tagger_peak_buffered_tuples"] =
      static_cast<double>(c.tagger_peak_buffered);
  v["silkroute.tag_peak_mb"] = c.tag_peak_mb;
  v["xml.bytes"] = static_cast<double>(c.xml_bytes) / n;
  v["xml.flushes"] = static_cast<double>(c.xml_flushes) / n;
  v["net.remote_exec_ms"] = self["net.remote_exec"] / n;
  if (remote) {
    v["net.overhead_ms"] = v["net.remote_exec_ms"] - v["engine.exec_ms"];
  }
  v["net.serialize_ms"] = side["net.serialize"] / n;
  v["net.deserialize_ms"] = side["net.deserialize"] / n;

  // Ledger: the layer figures above that make up a publish (the extra
  // decode pass counted once, as engine.decode_ms) over the program's own
  // publish latency. Time Publisher::Publish spends outside the layer
  // calls the walk makes (executor wrappers, metrics, cache keys) shows as
  // coverage below 1.
  double layers_ms = -self["engine.decode"];
  for (const auto& [name, ms] : self) {
    if (name != "publish") layers_ms += ms;
  }
  v["ledger.coverage"] = publish_ms > 0 ? layers_ms / n / publish_ms : 0;
  // Sanity check of the walk itself: its layer spans should cover its own
  // wall time, or the walk has glue of its own that the ledger misses.
  double walk_coverage =
      c.publish_wall_ms > 0 ? layers_ms / c.publish_wall_ms : 0;
  if (walk_coverage < 0.95) {
    std::fprintf(stderr,
                 "perfbench: WARNING layer spans cover %.3f of the traced "
                 "walk's own wall time\n",
                 walk_coverage);
  }
  return v;
}

Report RunSingleClient(const SingleClientSpec& spec, const RunArgs& args) {
  // Set-up, several times; the last one is kept.
  std::vector<double> generate_s;
  std::unique_ptr<System> owned;
  const double setup_s = MedianSetUpSeconds(
      [&] { owned.reset(); },
      [&] { owned = SetUp(spec, args.seed, &generate_s); });
  System& sys = *owned;

  uint64_t expected = Reference(sys.db.get()).Hash(spec.rxl);

  core::PublishOptions options;
  options.strategy = core::PlanStrategy::kFullyPartitioned;
  options.engine_threads = spec.engine_threads;
  options.executor = sys.remote.get();
  PublishFn publish = [&](double*) -> Result<std::string> {
    std::ostringstream out;
    SILK_RETURN_IF_ERROR(sys.publisher->Publish(spec.rxl, options, &out)
                             .status());
    return std::move(out).str();
  };
  // Warm-up (allocator arenas, server connection), then measure.
  ClosedLoop(0, expected, {publish});

  Report report;
  if (!args.trace) {
    EmitEndToEnd(ClosedLoop(args.seconds, expected, {publish})[0], setup_s,
                 &report);
    return report;
  }

  // Traced run: untraced publishes (for trace.overhead and the ledger)
  // alternate with the benchmark's traced walk.
  obs::CollectingSink sink;
  obs::Tracer tracer(&sink);
  LayerCounters counters;
  silkroute::engine::MorselPool pool(spec.engine_threads - 1);
  PipelineOptions pipeline;
  pipeline.db = sys.db.get();
  pipeline.rxl = spec.rxl;
  pipeline.strategy = core::PlanStrategy::kFullyPartitioned;
  pipeline.oracle = sys.publisher->estimator();
  pipeline.exec.parallelism = spec.engine_threads;
  pipeline.exec.pool = spec.engine_threads > 1 ? &pool : nullptr;
  pipeline.remote = sys.remote.get();
  uint64_t request = 0;
  PublishFn traced_publish = [&](double* excluded_ms) {
    double side_before = counters.side_ms;
    Result<std::string> doc =
        TracedPublish(pipeline, &tracer, ++request, &counters);
    *excluded_ms = counters.side_ms - side_before;
    return doc;
  };
  // Per-layer peak memory, from one untimed walk before the timed ones.
  {
    obs::Tracer untraced_tracer(nullptr);
    PipelineOptions peaks = pipeline;
    peaks.measure_peaks = true;
    LayerCounters peak_counters;
    Result<std::string> doc =
        TracedPublish(peaks, &untraced_tracer, 0, &peak_counters);
    if (!doc.ok() || HashBytes(doc.value()) != expected) {
      std::fprintf(stderr, "perfbench: peak-memory walk failed\n");
      std::exit(1);
    }
    counters.exec_peak_mb = peak_counters.exec_peak_mb;
    counters.bind_peak_mb = peak_counters.bind_peak_mb;
    counters.tag_peak_mb = peak_counters.tag_peak_mb;
  }
  uint64_t requests_before = sys.remote ? sys.remote->requests_sent() : 0;
  uint64_t reconnects_before = sys.remote ? sys.remote->reconnects() : 0;
  uint64_t decode_errors_before = sys.remote ? sys.remote->decode_errors() : 0;
  std::vector<Phase> phases =
      ClosedLoop(args.seconds, expected, {publish, traced_publish});
  const Phase& untraced = phases[0];
  const Phase& traced = phases[1];
  double untraced_mean_ms = 0;
  for (double ms : untraced.latencies_ms) untraced_mean_ms += ms;
  untraced_mean_ms /=
      static_cast<double>(std::max<size_t>(untraced.completed(), 1));
  LayerValues values =
      LayerValuesFromTrace(sink.spans(), counters, untraced_mean_ms);
  values["tpch.generate_s"] = Median(generate_s);
  {
    ScopedSpan span(&tracer, nullptr, "engine.analyze", 0);
    silkroute::engine::DatabaseStats::Collect(*sys.db);
    values["engine.analyze_ms"] = span.Stop();
  }
  if (sys.remote) {
    // Both lanes go through the same remote executor, one request per
    // component either way.
    const double n =
        static_cast<double>(untraced.attempted + traced.attempted);
    values["net.requests_sent"] =
        static_cast<double>(sys.remote->requests_sent() - requests_before) / n;
    values["net.reconnects"] =
        static_cast<double>(sys.remote->reconnects() - reconnects_before) / n;
    values["net.decode_errors"] = static_cast<double>(
        sys.remote->decode_errors() - decode_errors_before) / n;
  }
  EmitLayers(values, untraced, traced, &report);
  if (!args.trace_path.empty()) WriteTrace(args.trace_path, sink.spans());
  if (values["ledger.coverage"] < 0.95) {
    std::fprintf(stderr, "perfbench: WARNING ledger.coverage %.3f < 0.95\n",
                 values["ledger.coverage"]);
  }
  return report;
}

}  // namespace

Report RunExportQ1Partitioned(const RunArgs& args) {
  return RunSingleClient({0.1, core::Query1Rxl(), false, 1}, args);
}

Report RunRemoteQ2Parallel(const RunArgs& args) {
  return RunSingleClient({0.05, core::Query2Rxl(), true, 2}, args);
}

}  // namespace perfbench
