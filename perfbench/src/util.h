// Small helpers shared by the benchmark workloads: clocks, process CPU and
// memory probes, document hashing, order statistics and the one-line JSON
// result the benchmark prints last.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic seconds since an arbitrary process-wide epoch.
double NowSeconds();

/// Milliseconds elapsed since `start` (a NowSeconds() value).
inline double MsSince(double start) { return (NowSeconds() - start) * 1e3; }

/// Process user + system CPU time in milliseconds, all threads.
double ProcessCpuMs();

/// Returns free heap to the kernel (malloc_trim), then resets the process
/// RSS high-water mark (VmHWM) to the current RSS by writing "5" to
/// /proc/self/clear_refs — so a peak read later counts live memory, not
/// pages an earlier phase freed but left resident. Returns false when the
/// kernel refuses; peaks then cover the whole process lifetime.
bool ResetPeakRss();
/// VmHWM and VmRSS of this process in MiB (0 when unreadable).
double PeakRssMb();
double CurrentRssMb();

/// The document fingerprint the correctness gate compares (documents and
/// references are hashed in the same process).
inline uint64_t HashBytes(std::string_view bytes) {
  return std::hash<std::string_view>{}(bytes);
}

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100] (0 when empty).
double Percentile(std::vector<double> values, double p);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  /// Appends one metric (each name is set once).
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
