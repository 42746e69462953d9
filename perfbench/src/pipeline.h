// The traced publish: the benchmark walks a publish through the program's
// layers itself, calling each layer's public function inside a span,
//
//   rxl::ParseRxl -> ViewTree::Build -> GeneratePlanGreedy ->
//   SqlGenerator::GeneratePlan -> (sql::ParseQuery -> QueryExecutor::Execute
//   | RemoteSqlExecutor::ExecuteSql) -> TupleStream -> Tagger::Run +
//   XmlWriter::Finish
//
// which is the sequence Publisher::Publish runs, so the document comes out
// byte-identical and the layer times add up to the publish's wall time.
// Nothing inside the program is instrumented for this.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/executor.h"
#include "net/remote_executor.h"
#include "relational/database.h"
#include "silkroute/publisher.h"
#include "spans.h"

namespace perfbench {

namespace core = silkroute::core;
namespace engine = silkroute::engine;

/// What one traced publish goes through.
struct PipelineOptions {
  const silkroute::Database* db = nullptr;
  std::string_view rxl;
  /// kGreedy or kFullyPartitioned.
  core::PlanStrategy strategy = core::PlanStrategy::kFullyPartitioned;
  /// Cost oracle for greedy planning (the publisher's estimator).
  engine::CostOracle* oracle = nullptr;
  /// In-process executor configuration (parallelism + morsel pool).
  engine::ExecutorOptions exec;
  /// When set, component queries go over the wire through this executor
  /// instead of running in-process.
  silkroute::net::RemoteSqlExecutor* remote = nullptr;
  /// Reset and read the RSS high-water mark around the exec, bind and tag
  /// calls (the *_peak_mb figures). The reset returns free heap to the
  /// kernel, which slows the calls after it, so a publish that measures
  /// peaks is not one whose times are used.
  bool measure_peaks = false;
};

/// Counters and peaks accumulated over traced publishes. Span times live in
/// the tracer's sink.
struct LayerCounters {
  size_t publishes = 0;
  uint64_t oracle_requests = 0;
  engine::ExecStats exec;
  uint64_t wire_bytes = 0;
  uint64_t tagger_rows = 0;
  uint64_t tagger_peak_buffered = 0;  // max over publishes
  uint64_t xml_bytes = 0;
  uint64_t xml_flushes = 0;
  double exec_peak_mb = 0;  // max over component queries
  double bind_peak_mb = 0;
  double tag_peak_mb = 0;
  /// Publish wall time: the "publish" root spans, minus the extra decode
  /// pass the benchmark inserts to time decoding on its own.
  double publish_wall_ms = 0;
  /// Time spent in the "side" roots (remote only), outside the publishes.
  double side_ms = 0;
};

/// A planned view: the view tree and its component queries.
struct PlannedView {
  std::unique_ptr<core::ViewTree> tree;
  std::vector<core::StreamSpec> specs;
};

/// Plans `options.rxl` under spans rxl.parse, silkroute.view_tree,
/// silkroute.genplan (greedy only) and silkroute.sqlgen, children of
/// `parent`.
silkroute::Result<PlannedView> TracedPlan(const PipelineOptions& options,
                                          obs::Tracer* tracer,
                                          obs::SpanHandle* parent,
                                          uint64_t request,
                                          LayerCounters* counters);

/// One full publish under a root span "publish"; returns the document.
/// With a remote executor, a second root "side" then re-runs each
/// component in-process (sql.parse, engine.exec) and through the relation
/// codec (net.serialize, net.deserialize), outside the publish's wall time.
silkroute::Result<std::string> TracedPublish(const PipelineOptions& options,
                                             obs::Tracer* tracer,
                                             uint64_t request,
                                             LayerCounters* counters);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
