// Per-layer metrics of a traced run, computed from its spans.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "composed_attack.hpp"
#include "trace.hpp"

namespace perfbench {

/// Span names of the front-end calls a cold session makes.
struct FrontEndNames {
  explicit FrontEndNames(Tracer& tracer);
  std::uint32_t parse, verify, lint, compile;
};

/// Times the calls a cold DesignSession makes, each as its own span:
/// parseDesign (which verifies too), analysis::verify (to split verification
/// out of parse), lintLocked and both compilers per module.  Returns the KB
/// parsed.
double probeFrontEnd(const std::string& source, Tracer& tracer, const FrontEndNames& names);

struct TraceTotals {
  /// Root span name of one unit of work (a grid cell, a composed request);
  /// self_ms.<layer> sums self time over the spans beneath such roots and
  /// divides by the number of roots.
  std::string unitRoot;
  double parsedKb = 0.0;             // KB across every verilog.parse span
  std::vector<double> referenceMs;   // attack::snapshotAttack walls
  std::vector<const ComposedAttack*> attacks;
  /// trace.overhead_pct: each unit of work (a grid cell, a request) is
  /// composed twice back to back on one thread, once traced and once with a
  /// disabled tracer, alternating which goes first; these sum the two.
  double tracedMs = 0.0;
  double untracedMs = 0.0;
  /// Tracer whose composed-attack spans ran next to the referenceMs calls,
  /// for attack.span_coverage; null = the run's own tracer.
  const Tracer* coverageTracer = nullptr;
};

/// Share by which the composed attack's layer spans may differ from
/// attack::snapshotAttack's wall over the same samples before the traced run
/// fails.
inline constexpr double kSpanCoverageTolerance = 0.15;

/// Adds every span-derived per-layer metric, checks span coverage, and
/// writes the trace-event file into options.outDir.
void addTraceMetrics(RunResult& result, Tracer& tracer, const Options& options,
                     const TraceTotals& totals);

}  // namespace perfbench
