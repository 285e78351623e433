// Shared vocabulary of the benchmark program: run options, the metrics a
// workload reports, and the workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";    // checkout root (inputs such as examples/ live here)
  std::string benchDir = "perfbench";  // the benchmark's own files (data/)
  std::string outDir = ".";  // result records and trace files
  std::string rtlockBinary;  // the `rtlock` CLI built alongside the benchmark
  int threads = 1;           // nproc: client threads, daemon workers, eval workers
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count, base of a ratio
};

/// What one workload run reports.
struct RunResult {
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // output-check failures (any -> incorrect)
  // Measured workload properties for the run record.
  rtlock::support::JsonValue properties{rtlock::support::JsonObject{}};

  void add(std::string name, double value, std::string unit, std::string note = {});
  void fail(std::string problem) { problems.push_back(std::move(problem)); }
  [[nodiscard]] bool correct() const { return problems.empty(); }
};

/// latency_p50_ms, latency_p90_ms and latency_p99_ms (nearest rank) of
/// `latenciesMs`; each note names `what` was timed, the sample count and how
/// many samples lie beyond the percentile.
void addPercentileMetrics(RunResult& result, const std::vector<double>& latenciesMs,
                          const std::string& what);

/// Peak resident set of this process in MB.
[[nodiscard]] double selfPeakRssMb();

[[nodiscard]] RunResult runEvalGrid(const Options& options);
[[nodiscard]] RunResult runServeAttack(const Options& options);
[[nodiscard]] RunResult runServeLockCold(const Options& options);

}  // namespace perfbench
