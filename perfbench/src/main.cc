// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics with --trace 1. Diagnostics go to
// standard error. Exits non-zero, without a result line, on a usage or
// set-up error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload export_q1_partitioned|"
               "serve_cached_greedy|remote_q2_parallel --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage("missing value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args.trace_path = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (args.seconds <= 0) return Usage("--seconds is required and positive");

  perfbench::Report report;
  if (args.workload == "export_q1_partitioned") {
    report = perfbench::RunExportQ1Partitioned(args);
  } else if (args.workload == "serve_cached_greedy") {
    report = perfbench::RunServeCachedGreedy(args);
  } else if (args.workload == "remote_q2_parallel") {
    report = perfbench::RunRemoteQ2Parallel(args);
  } else {
    return Usage("unknown workload");
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
