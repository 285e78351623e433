#include "bench.hpp"

#include <sys/resource.h>

namespace perfbench {

void RunResult::add(std::string name, double value, std::string unit, std::string note) {
  metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void addPercentileMetrics(RunResult& result, const std::vector<double>& latenciesMs,
                          const std::string& what) {
  const std::size_t n = latenciesMs.size();
  for (const double p : {50.0, 90.0, 99.0}) {
    std::string note = what + ", n=" + std::to_string(n) + ", " +
                       std::to_string(n == 0 ? 0 : samplesBeyond(n, p)) + " beyond";
    if (!percentileSupported(n, p)) note += " (fewer than 10 beyond: read as a tail maximum)";
    result.add("latency_p" + std::to_string(static_cast<int>(p)) + "_ms",
               percentile(latenciesMs, p), "ms", note);
  }
}

double selfPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

}  // namespace perfbench
