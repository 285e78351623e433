#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::size_t percentileRank(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument{"percentile of an empty sample"};
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument{"percentile outside (0, 100]"};
  // Integer arithmetic on p * 1000 avoids ceil(0.9 * 100) reading 91.
  const auto scaled = static_cast<std::uint64_t>(std::llround(p * 1000.0));
  const std::uint64_t rank = (scaled * n + 100'000 - 1) / 100'000;
  return std::max<std::size_t>(1, static_cast<std::size_t>(rank));
}

std::size_t samplesBeyond(std::size_t n, double p) { return n - percentileRank(n, p); }

bool percentileSupported(std::size_t n, double p, std::size_t minBeyond) {
  return n > 0 && samplesBeyond(n, p) >= minBeyond;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = percentileRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

void Tally::record(bool ok, std::uint64_t units) noexcept {
  attempted_ += units;
  if (!ok) failed_ += units;
}

void Tally::demote(std::uint64_t units) noexcept {
  failed_ = std::min(attempted_, failed_ + units);
}

double Tally::failedShare() const noexcept {
  return attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
}

double coveredLength(std::vector<Interval> children, Interval parent) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double reach = parent.start;  // everything before `reach` is already counted
  for (const Interval& child : children) {
    const double start = std::max(child.start, reach);
    const double end = std::min(child.end, parent.end);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

double selfTime(Interval span, std::vector<Interval> children) {
  return (span.end - span.start) - coveredLength(std::move(children), span);
}

}  // namespace perfbench
