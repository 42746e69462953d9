#include "pipeline.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "engine/tuple_stream.h"
#include "net/wire.h"
#include "rxl/parser.h"
#include "silkroute/greedy.h"
#include "silkroute/partition.h"
#include "silkroute/source.h"
#include "silkroute/sqlgen.h"
#include "silkroute/tagger.h"
#include "silkroute/view_tree.h"
#include "sql/parser.h"
#include "util.h"
#include "xml/writer.h"

namespace perfbench {

using silkroute::Result;
using silkroute::Status;

namespace {

void AddExecStats(const engine::ExecStats& s, engine::ExecStats* total) {
  total->rows_scanned += s.rows_scanned;
  total->rows_joined += s.rows_joined;
  total->rows_sorted += s.rows_sorted;
  total->nested_loop_joins += s.nested_loop_joins;
  total->hash_joins += s.hash_joins;
  total->index_probes += s.index_probes;
  total->keys_encoded += s.keys_encoded;
  total->bytes_encoded += s.bytes_encoded;
  total->morsels_dispatched += s.morsels_dispatched;
  total->parallel_fallbacks += s.parallel_fallbacks;
}

}  // namespace

Result<PlannedView> TracedPlan(const PipelineOptions& options,
                               obs::Tracer* tracer, obs::SpanHandle* parent,
                               uint64_t request, LayerCounters* counters) {
  const core::SqlGenStyle style = core::SqlGenStyle::kOuterJoin;
  const bool reduce = true;
  PlannedView planned;

  Result<silkroute::rxl::RxlQuery> query = [&] {
    ScopedSpan span(tracer, parent, "rxl.parse", request);
    return silkroute::rxl::ParseRxl(options.rxl);
  }();
  SILK_RETURN_IF_ERROR(query.status());
  {
    ScopedSpan span(tracer, parent, "silkroute.view_tree", request);
    SILK_ASSIGN_OR_RETURN(core::ViewTree tree,
                          core::ViewTree::Build(query.value(),
                                                options.db->catalog()));
    planned.tree = std::make_unique<core::ViewTree>(std::move(tree));
  }
  const core::ViewTree& tree = *planned.tree;

  uint64_t mask = 0;
  if (options.strategy == core::PlanStrategy::kGreedy) {
    ScopedSpan span(tracer, parent, "silkroute.genplan", request);
    core::GreedyParams params;
    params.style = style;
    params.reduce = reduce;
    SILK_ASSIGN_OR_RETURN(core::GreedyPlan plan,
                          core::GeneratePlanGreedy(tree, options.oracle,
                                                   params));
    mask = plan.FullMask();
    counters->oracle_requests += plan.oracle_requests;
  }
  {
    ScopedSpan span(tracer, parent, "silkroute.sqlgen", request);
    SILK_ASSIGN_OR_RETURN(mask, core::MakePermissible(tree, mask, style, reduce,
                                                      core::SourceDescription{}));
    SILK_ASSIGN_OR_RETURN(core::Partition partition,
                          core::Partition::FromMask(tree, mask));
    core::SqlGenerator gen(&tree, style, reduce);
    SILK_ASSIGN_OR_RETURN(planned.specs, gen.GeneratePlan(partition));
  }
  return planned;
}

namespace {

/// Parses and runs one component query in-process under sql.parse and
/// engine.exec spans, accumulating executor counters and peak memory.
Result<engine::Relation> ExecuteInProcess(const PipelineOptions& options,
                                          const std::string& sql_text,
                                          obs::Tracer* tracer,
                                          obs::SpanHandle* parent,
                                          uint64_t request,
                                          LayerCounters* counters) {
  Result<silkroute::sql::QueryPtr> parsed = [&] {
    ScopedSpan span(tracer, parent, "sql.parse", request);
    return silkroute::sql::ParseQuery(sql_text);
  }();
  SILK_RETURN_IF_ERROR(parsed.status());
  engine::QueryExecutor executor(options.db);
  executor.set_exec_options(options.exec);
  ScopedSpan span(tracer, parent, "engine.exec", request,
                  options.measure_peaks);
  Result<engine::Relation> rel = executor.Execute(*parsed.value());
  span.Stop();
  counters->exec_peak_mb = std::max(counters->exec_peak_mb, span.peak_mb());
  AddExecStats(executor.stats(), &counters->exec);
  return rel;
}

}  // namespace

Result<std::string> TracedPublish(const PipelineOptions& options,
                                  obs::Tracer* tracer, uint64_t request,
                                  LayerCounters* counters) {
  ScopedSpan root(tracer, nullptr, "publish", request);
  SILK_ASSIGN_OR_RETURN(
      PlannedView planned,
      TracedPlan(options, tracer, root.handle(), request, counters));

  // Execute + bind each component, in GeneratePlan order (component-root
  // order, which is what the tagger expects).
  std::vector<std::unique_ptr<engine::TupleStream>> streams;
  streams.reserve(planned.specs.size());
  for (const core::StreamSpec& spec : planned.specs) {
    Result<engine::Relation> rel = [&]() -> Result<engine::Relation> {
      if (options.remote == nullptr) {
        return ExecuteInProcess(options, spec.sql, tracer, root.handle(),
                                request, counters);
      }
      ScopedSpan span(tracer, root.handle(), "net.remote_exec", request);
      return options.remote->ExecuteSql(spec.sql);
    }();
    SILK_RETURN_IF_ERROR(rel.status());
    ScopedSpan span(tracer, root.handle(), "engine.bind", request,
                    options.measure_peaks);
    streams.push_back(
        std::make_unique<engine::TupleStream>(std::move(rel).value()));
    span.Stop();
    counters->bind_peak_mb = std::max(counters->bind_peak_mb, span.peak_mb());
    counters->wire_bytes += streams.back()->wire_bytes();
  }

  // One decode pass on its own, so wire decoding gets a figure apart from
  // tagging (the tagger decodes again while merging).
  double decode_ms = 0;
  {
    ScopedSpan span(tracer, root.handle(), "engine.decode", request);
    for (auto& stream : streams) {
      while (stream->Next().has_value()) {
      }
      stream->Rewind();
    }
    decode_ms = span.Stop();
  }

  std::ostringstream out;
  {
    ScopedSpan span(tracer, root.handle(), "silkroute.tag", request,
                    options.measure_peaks);
    silkroute::xml::XmlWriter writer(&out, silkroute::xml::XmlWriter::Options());
    core::Tagger tagger(planned.tree.get(), &writer, core::Tagger::Options{});
    std::vector<core::Tagger::StreamInput> inputs;
    for (size_t i = 0; i < streams.size(); ++i) {
      inputs.push_back({&planned.specs[i], streams[i].get()});
    }
    SILK_RETURN_IF_ERROR(tagger.Run(std::move(inputs)));
    SILK_RETURN_IF_ERROR(writer.Finish());
    span.Stop();
    counters->tag_peak_mb = std::max(counters->tag_peak_mb, span.peak_mb());
    counters->tagger_rows += tagger.stats().rows_consumed;
    counters->tagger_peak_buffered =
        std::max<uint64_t>(counters->tagger_peak_buffered,
                           tagger.stats().peak_buffered_tuples);
    counters->xml_bytes += writer.bytes_written();
    counters->xml_flushes += writer.flushes();
  }
  counters->publish_wall_ms += root.Stop() - decode_ms;
  ++counters->publishes;

  if (options.remote != nullptr) {
    // Side measurements for the wire layer, outside the publish: the same
    // SQL in-process (net.overhead = remote - local) and the relation codec
    // on its result.
    double side_start = NowSeconds();
    ScopedSpan side(tracer, nullptr, "side", request);
    for (const core::StreamSpec& spec : planned.specs) {
      SILK_ASSIGN_OR_RETURN(
          engine::Relation rel,
          ExecuteInProcess(options, spec.sql, tracer, side.handle(), request,
                           counters));
      std::string bytes;
      {
        ScopedSpan span(tracer, side.handle(), "net.serialize", request);
        silkroute::net::SerializeRelation(rel, &bytes);
      }
      ScopedSpan span(tracer, side.handle(), "net.deserialize", request);
      SILK_RETURN_IF_ERROR(
          silkroute::net::DeserializeRelation(bytes).status());
    }
    side.Stop();
    counters->side_ms += MsSince(side_start);
  }
  return std::move(out).str();
}

}  // namespace perfbench
