// Unit tests of the benchmark's own statistics: nearest-rank percentiles and
// their tail sizes, failure accounting, span self time, and a disabled
// tracer recording nothing.
//
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "line %d: expected %s\n", line, what);
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void percentileRanks() {
  // Nearest rank: ceil(p/100 * n).
  EXPECT(perfbench::percentileRank(100, 50) == 50);
  EXPECT(perfbench::percentileRank(100, 90) == 90);  // not 91 from 0.9 * 100 rounding
  EXPECT(perfbench::percentileRank(100, 99) == 99);
  EXPECT(perfbench::percentileRank(1000, 99) == 990);
  EXPECT(perfbench::percentileRank(7, 50) == 4);
  EXPECT(perfbench::percentileRank(1, 99) == 1);
  EXPECT(perfbench::percentileRank(10, 100) == 10);
  bool threw = false;
  try {
    (void)perfbench::percentileRank(0, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  EXPECT(perfbench::percentile(values, 50) == 50);
  EXPECT(perfbench::percentile(values, 90) == 90);
  EXPECT(perfbench::percentile(values, 99) == 99);
  EXPECT(perfbench::percentile({}, 50) == 0);
  EXPECT(perfbench::median({3, 1, 2}) == 2);
  EXPECT(perfbench::median({4, 1, 2, 3}) == 2.5);
}

void tenBeyondRule() {
  // A percentile is reported as such only with at least ten samples above it.
  EXPECT(perfbench::samplesBeyond(100, 90) == 10);
  EXPECT(perfbench::percentileSupported(100, 90));
  EXPECT(!perfbench::percentileSupported(99, 90));  // rank 90, 9 beyond
  EXPECT(!perfbench::percentileSupported(999, 99));
  EXPECT(perfbench::percentileSupported(1000, 99));
  EXPECT(perfbench::samplesBeyond(1000, 99) == 10);
  EXPECT(perfbench::percentileSupported(20, 50));
  EXPECT(!perfbench::percentileSupported(19, 50));  // rank 10, 9 beyond
  EXPECT(!perfbench::percentileSupported(0, 50));
}

void failureAccounting() {
  perfbench::Tally tally;
  EXPECT(tally.failedShare() == 0.0);
  tally.record(true, 90);
  tally.record(false, 10);
  EXPECT(tally.attempted() == 100);
  EXPECT(tally.failed() == 10);
  EXPECT(near(tally.failedShare(), 0.1));
  // An output mismatch found after the units completed moves them to failed.
  tally.demote(40);
  EXPECT(tally.failed() == 50);
  EXPECT(tally.attempted() == 100);
  tally.demote(1000);  // never more failed than attempted
  EXPECT(tally.failed() == 100);
  EXPECT(near(tally.failedShare(), 1.0));
}

void selfTimes() {
  using perfbench::Interval;
  // No children: all of the span is self time.
  EXPECT(near(perfbench::selfTime({0, 10}, {}), 10));
  // Disjoint children.
  EXPECT(near(perfbench::selfTime({0, 10}, {{1, 3}, {5, 6}}), 7));
  // Overlapping children count once (union), in any order.
  EXPECT(near(perfbench::selfTime({0, 10}, {{4, 8}, {2, 5}}), 4));
  // Nested child inside another child.
  EXPECT(near(perfbench::selfTime({0, 10}, {{2, 8}, {3, 4}}), 4));
  // Children reaching outside the parent are clipped to it.
  EXPECT(near(perfbench::selfTime({2, 10}, {{0, 4}, {9, 12}}), 5));
  EXPECT(near(perfbench::coveredLength({{0, 4}, {9, 12}}, {2, 10}), 3));
}

void tracerSelfTime() {
  perfbench::Tracer tracer;
  const std::uint32_t outer = tracer.intern("attack.snapshot");
  const std::uint32_t inner = tracer.intern("core.relock");
  EXPECT(tracer.intern("attack.snapshot") == outer);
  {
    const perfbench::Tracer::Scope root{tracer, outer, 7};
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
    for (int i = 0; i < 3; ++i) {
      const perfbench::Tracer::Scope child{tracer, inner};
      std::this_thread::sleep_for(std::chrono::milliseconds{2});
    }
  }
  std::thread other{[&] {
    const perfbench::Tracer::Scope root{tracer, outer, 8};
  }};
  other.join();
  const std::vector<perfbench::Span> spans = tracer.collect();
  EXPECT(spans.size() == 5);
  int roots = 0;
  for (const perfbench::Span& span : spans) {
    if (span.parent < 0) {
      ++roots;
      continue;
    }
    EXPECT(spans[static_cast<std::size_t>(span.parent)].name == outer);
    EXPECT(span.unit == 7);  // children inherit the unit of their root
  }
  EXPECT(roots == 2);
  const auto totals = tracer.totalsByName(spans);
  const perfbench::NameTotals& snapshot = totals.at("attack.snapshot");
  const perfbench::NameTotals& relock = totals.at("core.relock");
  EXPECT(snapshot.count == 2);
  EXPECT(relock.count == 3);
  EXPECT(near(relock.selfMs, relock.totalMs));
  // The parent's self time is its total minus what the children cover.
  EXPECT(std::abs(snapshot.selfMs - (snapshot.totalMs - relock.totalMs)) < 1e-6);
  EXPECT(snapshot.selfMs >= 1.5);
  EXPECT(perfbench::layerOf("ml.cv_ms.knn") == "ml");
  EXPECT(perfbench::layerOf("campaign") == "campaign");
}

void disabledTracer() {
  perfbench::Tracer tracer;
  const std::uint32_t name = tracer.intern("core.undo");
  tracer.setEnabled(false);
  {
    const perfbench::Tracer::Scope root{tracer, name, 1};
    const perfbench::Tracer::Scope child{tracer, name};
  }
  EXPECT(tracer.collect().empty());
  // Re-enabled, it records again.
  tracer.setEnabled(true);
  { const perfbench::Tracer::Scope root{tracer, name, 2}; }
  const std::vector<perfbench::Span> spans = tracer.collect();
  EXPECT(spans.size() == 1);
  EXPECT(spans.size() == 1 && spans[0].unit == 2 && spans[0].parent == -1);
}

}  // namespace

int main() {
  percentileRanks();
  tenBeyondRule();
  failureAccounting();
  selfTimes();
  tracerSelfTime();
  disabledTracer();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::puts("perfbench stats tests passed");
  return 0;
}
