#include "util.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double ProcessCpuMs() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

namespace {

/// Reads one "Key:   N kB" line of /proc/self/status, in MiB.
double StatusKbAsMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::atof(line.c_str() + prefix.size()) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return StatusKbAsMb("VmHWM"); }
double CurrentRssMb() { return StatusKbAsMb("VmRSS"); }

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (i == 0 ? "" : ", ") << '"' << e.name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
