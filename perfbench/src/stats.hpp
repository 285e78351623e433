// Statistics the benchmark reports: nearest-rank percentiles with their
// tail sizes, medians, failure accounting and span self time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// 1-based nearest-rank index of the p-th percentile (0 < p <= 100) in `n`
/// sorted samples: ceil(p/100 * n), at least 1.  `n` must be positive.
[[nodiscard]] std::size_t percentileRank(std::size_t n, double p);

/// Samples strictly above the p-th percentile's rank: n - percentileRank.
[[nodiscard]] std::size_t samplesBeyond(std::size_t n, double p);

/// True when the p-th percentile of `n` samples has at least `minBeyond`
/// samples above it (ten, by the benchmark's reporting rule).
[[nodiscard]] bool percentileSupported(std::size_t n, double p, std::size_t minBeyond = 10);

/// Nearest-rank percentile of `values` (unsorted; copied).  0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Median as the mean of the two middle values for even counts.  0 when
/// empty.
[[nodiscard]] double median(std::vector<double> values);

/// Failure accounting for one run: every unit (request, locked sample) is
/// attempted once and either succeeds or fails; a failed or refused unit
/// and an output that mismatches its reference both count as failed.
class Tally {
 public:
  void record(bool ok, std::uint64_t units = 1) noexcept;
  /// Moves `units` already recorded as ok into failed (a unit whose output
  /// check failed after it completed).
  void demote(std::uint64_t units) noexcept;
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// failed / attempted; 0 when nothing was attempted.
  [[nodiscard]] double failedShare() const noexcept;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `children` clipped to `parent` — the part of the
/// parent's interval its child spans cover.
[[nodiscard]] double coveredLength(std::vector<Interval> children, Interval parent);

/// Self time of a span: its duration minus coveredLength of its children.
[[nodiscard]] double selfTime(Interval span, std::vector<Interval> children);

}  // namespace perfbench
