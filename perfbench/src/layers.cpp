#include "layers.hpp"

#include <cmath>
#include <map>

#include "analysis/lint.hpp"
#include "analysis/verifier.hpp"
#include "sim/compiler.hpp"
#include "verilog/parser.hpp"

namespace perfbench {

using namespace rtlock;

FrontEndNames::FrontEndNames(Tracer& tracer)
    : parse(tracer.intern("verilog.parse")),
      verify(tracer.intern("analysis.verify")),
      lint(tracer.intern("analysis.lint")),
      compile(tracer.intern("sim.compile")) {}

double probeFrontEnd(const std::string& source, Tracer& tracer, const FrontEndNames& names) {
  rtl::Design design;
  {
    const Tracer::Scope span{tracer, names.parse};
    design = verilog::parseDesign(source);
  }
  {
    const Tracer::Scope span{tracer, names.verify};
    (void)analysis::verify(design);
  }
  {
    const Tracer::Scope span{tracer, names.lint};
    for (std::size_t i = 0; i < design.moduleCount(); ++i) {
      (void)analysis::lintLocked(design.module(i));
    }
  }
  {
    const Tracer::Scope span{tracer, names.compile};
    for (std::size_t i = 0; i < design.moduleCount(); ++i) {
      (void)sim::Compiler::compile(design.module(i));
      (void)sim::Compiler::compileSliced(design.module(i));
    }
  }
  return static_cast<double>(source.size()) / 1024.0;
}

namespace {

/// Spans whose mean duration per call is a per-layer metric (<name>_ms).
constexpr const char* kTimedSpans[] = {
    "verilog.parse",  "verilog.write",  "analysis.verify",      "analysis.lint",
    "sim.compile",    "sim.verify_functional", "service.session_build", "service.json",
    "service.handle", "core.lock",      "core.relock",          "core.undo",
    "attack.extract", "attack.harvest", "attack.predict",       "ml.automl"};

/// The composed attack's layer spans, which together should cover
/// attack::snapshotAttack's wall.
constexpr const char* kAttackPhases[] = {"attack.extract", "core.relock", "attack.harvest",
                                         "core.undo",      "ml.automl",   "attack.predict"};

constexpr const char* kLayers[] = {"verilog", "analysis", "sim",    "service",
                                   "core",    "attack",   "ml",     "campaign"};

constexpr const char* kModelFamilies[] = {"histogram", "categorical-nb", "gaussian-nb",
                                          "logistic",  "tree",           "forest",
                                          "knn",       "mlp",            "majority"};

[[nodiscard]] std::string familyOf(const std::string& model) {
  return model.substr(0, model.find('('));
}

}  // namespace

void addTraceMetrics(RunResult& result, Tracer& tracer, const Options& options,
                     const TraceTotals& totals) {
  const std::vector<Span> spans = tracer.collect();
  const std::map<std::string, NameTotals> byName = tracer.totalsByName(spans);
  const auto totalOf = [&](const std::string& name) {
    const auto found = byName.find(name);
    return found == byName.end() ? NameTotals{} : found->second;
  };

  for (const char* name : kTimedSpans) {
    const NameTotals entry = totalOf(name);
    result.add(std::string{name} + "_ms",
               entry.count == 0 ? 0.0 : entry.totalMs / static_cast<double>(entry.count), "ms",
               "mean of " + std::to_string(entry.count) + " calls");
  }
  const NameTotals parses = totalOf("verilog.parse");
  result.add("verilog.parse_kb",
             parses.count == 0 ? 0.0 : totals.parsedKb / static_cast<double>(parses.count), "KB",
             "mean per parse");

  // Attack layer.
  double referenceSum = 0.0;
  for (const double ms : totals.referenceMs) referenceSum += ms;
  const double attacks = static_cast<double>(totals.attacks.size());
  result.add("attack.snapshot_ms",
             totals.referenceMs.empty()
                 ? 0.0
                 : referenceSum / static_cast<double>(totals.referenceMs.size()),
             "ms", "attack::snapshotAttack, mean of " + std::to_string(totals.referenceMs.size()));
  double phaseSum = 0.0;
  {
    const Tracer& covering = totals.coverageTracer != nullptr ? *totals.coverageTracer : tracer;
    const std::map<std::string, NameTotals> phases = covering.totalsByName(covering.collect());
    for (const char* phase : kAttackPhases) {
      if (const auto found = phases.find(phase); found != phases.end()) {
        phaseSum += found->second.totalMs;
      }
    }
  }
  const double coverage = referenceSum == 0.0 ? 0.0 : phaseSum / referenceSum;
  result.add("attack.span_coverage", coverage, "ratio",
             "composed attack layer spans / snapshotAttack wall, tolerance +-" +
                 std::to_string(kSpanCoverageTolerance));
  if (referenceSum > 0.0 && std::abs(coverage - 1.0) > kSpanCoverageTolerance) {
    result.fail("attack layer spans cover " + std::to_string(coverage) +
                " of snapshotAttack's wall (tolerance " + std::to_string(kSpanCoverageTolerance) +
                ")");
  }
  double rounds = 0.0, fallbacks = 0.0, rows = 0.0, distinct = 0.0;
  std::map<std::string, double> cvMs;
  for (const ComposedAttack* attack : totals.attacks) {
    rounds += static_cast<double>(attack->rounds);
    fallbacks += static_cast<double>(attack->fallbackRounds);
    rows += static_cast<double>(attack->result.trainingRows);
    distinct += static_cast<double>(attack->distinctRows);
    for (const ml::LeaderboardEntry& entry : attack->leaderboard) {
      cvMs[familyOf(entry.model)] += entry.seconds * 1000.0;
    }
  }
  result.add("attack.harvest_fallback_share", rounds == 0.0 ? 0.0 : fallbacks / rounds, "ratio",
             "of " + std::to_string(static_cast<std::uint64_t>(rounds)) + " relock rounds");
  result.add("attack.training_rows", attacks == 0.0 ? 0.0 : rows / attacks, "count",
             "mean over " + std::to_string(totals.attacks.size()) + " attacks");
  result.add("attack.distinct_row_ratio", rows == 0.0 ? 0.0 : distinct / rows, "ratio",
             "distinct over " + std::to_string(static_cast<std::uint64_t>(rows)) +
                 " training rows");

  // ML layer: leaderboard seconds per model family, per attack.
  double cvTotal = 0.0;
  for (const char* family : kModelFamilies) {
    const double ms = attacks == 0.0 ? 0.0 : cvMs[family] / attacks;
    cvTotal += ms;
    result.add(std::string{"ml.cv_ms."} + family, ms, "ms", "per attack");
  }
  const NameTotals automl = totalOf("ml.automl");
  const double automlMs =
      automl.count == 0 ? 0.0 : automl.totalMs / static_cast<double>(automl.count);
  result.add("ml.fold_build_ms", automl.count == 0 ? 0.0 : automlMs - cvTotal, "ms",
             "ml.automl_ms minus the cross-validation seconds of every candidate");

  // Self time per layer over the units of work.
  std::vector<std::int32_t> rootOf(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    rootOf[i] = spans[i].parent < 0 ? static_cast<std::int32_t>(i)
                                    : rootOf[static_cast<std::size_t>(spans[i].parent)];
  }
  const std::uint32_t unitRoot = tracer.intern(totals.unitRoot);
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].push_back(
          {static_cast<double>(span.startNs), static_cast<double>(span.endNs)});
    }
  }
  std::map<std::string, double> layerSelfMs;
  double units = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[static_cast<std::size_t>(rootOf[i])].name != unitRoot) continue;
    if (spans[i].parent < 0) units += 1.0;
    const Interval self{static_cast<double>(spans[i].startNs), static_cast<double>(spans[i].endNs)};
    layerSelfMs[layerOf(tracer.nameOf(spans[i].name))] += selfTime(self, children[i]) / 1e6;
  }
  for (const char* layer : kLayers) {
    result.add(std::string{"self_ms."} + layer, units == 0.0 ? 0.0 : layerSelfMs[layer] / units,
               "ms", "per " + totals.unitRoot + " span, " +
                         std::to_string(static_cast<std::uint64_t>(units)) + " units");
  }

  result.add("trace.overhead_pct",
             totals.untracedMs == 0.0 ? 0.0 : 100.0 * (totals.tracedMs / totals.untracedMs - 1.0),
             "%",
             "traced " + std::to_string(totals.tracedMs) + " ms vs untraced " +
                 std::to_string(totals.untracedMs) + " ms, each " + totals.unitRoot +
                 " unit composed both ways back to back");

  const std::string path =
      options.outDir + "/trace-" + options.workload + "-seed" + std::to_string(options.seed) +
      ".json";
  tracer.writeTraceEvents(spans, {"core.relock", "attack.harvest", "core.undo"}, path);
  result.properties.set("trace_file", path);
  result.properties.set("spans", static_cast<std::int64_t>(spans.size()));
}

}  // namespace perfbench
