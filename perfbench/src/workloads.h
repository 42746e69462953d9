// The benchmark's workloads and the pieces they share. Each workload makes
// its inputs from the seed, sets itself up several times (setup_s is the
// median), checks every published document against an uncached, serial
// unified-plan publish of the same tables, and measures for the requested
// number of seconds. With `trace` set it reports the per-layer metrics
// instead: untraced requests (for trace.overhead and the ledger) share the
// measured time with traced ones.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relational/database.h"
#include "silkroute/publisher.h"
#include "util.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // required (--seconds)
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_path;
};

Report RunExportQ1Partitioned(const RunArgs& args);
Report RunServeCachedGreedy(const RunArgs& args);
Report RunRemoteQ2Parallel(const RunArgs& args);

// --- Shared pieces ---------------------------------------------------------

/// Sets the system under test up at least 5 times and until 3 s of set-up
/// have passed, at most 40 times, and returns the median time of one
/// `set_up`: setup_s. `tear_down` (untimed) destroys the previous system
/// before each repetition; the last one set up is kept.
double MedianSetUpSeconds(const std::function<void()>& tear_down,
                          const std::function<void()>& set_up);

/// Generates TPC-H at `scale` from `seed`; adds the generation time to
/// `*generate_s`. Exits the process on failure (no result is printed).
std::unique_ptr<silkroute::Database> MakeTpch(double scale, uint64_t seed,
                                              std::vector<double>* generate_s);

/// The correctness reference: an uncached, serial Publisher::Publish with
/// the unified plan, hashed. Computed outside every timed window.
class Reference {
 public:
  explicit Reference(const silkroute::Database* db) : publisher_(db) {}
  /// Hash of the reference document for `rxl` at the tables' current
  /// versions. Exits the process on failure.
  uint64_t Hash(std::string_view rxl);

 private:
  silkroute::core::Publisher publisher_;
};

/// Samples of a measured phase.
struct Phase {
  std::vector<double> latencies_ms;  // completed requests only
  double wall_s = 0;
  double cpu_ms = 0;
  double peak_rss_mb = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, sheds, timeouts and wrong bytes

  size_t completed() const { return latencies_ms.size(); }
  double throughput_rps() const {
    return wall_s > 0 ? static_cast<double>(completed()) / wall_s : 0;
  }
};

/// Fills the end-to-end metrics (and attempted/failed/correct).
void EmitEndToEnd(const Phase& phase, double setup_s, Report* report);

/// Per-layer values by metric name; EmitLayers writes every per-layer
/// metric of the benchmark, 0 for layers the workload does not exercise.
using LayerValues = std::map<std::string, double>;
void EmitLayers(const LayerValues& values, const Phase& untraced,
                const Phase& traced, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
