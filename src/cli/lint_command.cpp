// `rtlock lint` — static security analysis of a (locked) netlist.
//
// Runs both analysis tiers over every module of the input: the Tier A IR
// verifier (rendered for completeness — parseDesign already rejected
// Error-severity input, so what remains here are warnings) and the Tier B
// security lint, which reports provably free key bits, constant-propagation
// removable muxes and identical-arm mux shells, condensed into the static
// resilience summary.  Rows follow the BENCH_baseline.json schema so the
// output feeds the same `rtlock report` tooling as every other command.
#include <chrono>
#include <fstream>
#include <iterator>

#include "analysis/lint.hpp"
#include "analysis/verifier.hpp"
#include "cli/common.hpp"
#include "service/api.hpp"
#include "support/strings.hpp"
#include "verilog/parser.hpp"

namespace rtlock::cli {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double elapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

[[nodiscard]] support::JsonValue findingsToJson(
    const std::vector<analysis::Diagnostic>& findings) {
  support::JsonArray array;
  array.reserve(findings.size());
  for (const analysis::Diagnostic& finding : findings) {
    support::JsonValue entry;
    entry.set("code", analysis::checkCode(finding.check));
    entry.set("check", analysis::checkName(finding.check));
    entry.set("severity", analysis::severityName(finding.severity));
    entry.set("module", finding.module);
    entry.set("context", finding.context);
    entry.set("message", finding.message);
    array.push_back(std::move(entry));
  }
  return support::JsonValue{std::move(array)};
}

}  // namespace

int runLintCommand(const std::vector<std::string>& args, CommandIo& io) {
  const support::CliArgs flags =
      parseFlags(args, {"module", "key-port", "report", "report-csv", "csv", "json", "no-wall"});
  const std::string inputPath = onePositional(flags, "input netlist (locked.v)");
  const bool noWall = flags.getBool("no-wall", false);

  verilog::ParserOptions parserOptions;
  parserOptions.keyPortName = flags.get("key-port", parserOptions.keyPortName);
  rtl::Design design = verilog::parseDesign(readTextFile(inputPath), parserOptions);

  std::vector<const rtl::Module*> modules;
  if (flags.has("module")) {
    modules.push_back(
        &service::selectModule(design, flags.get("module", ""), /*requireKey=*/false));
  } else {
    for (std::size_t i = 0; i < design.moduleCount(); ++i) {
      modules.push_back(&design.module(i));
    }
  }

  std::vector<analysis::Diagnostic> findings;
  std::vector<ReportRow> rows;
  bool sawErrors = false;
  for (const rtl::Module* module : modules) {
    const auto started = Clock::now();
    std::vector<analysis::Diagnostic> moduleFindings = analysis::verify(*module);
    const int verifierErrors =
        analysis::countWithSeverity(moduleFindings, analysis::Severity::Error);
    const int verifierWarnings =
        analysis::countWithSeverity(moduleFindings, analysis::Severity::Warning);
    sawErrors = sawErrors || verifierErrors > 0;

    const analysis::LintReport lint = analysis::lintLocked(*module);
    moduleFindings.insert(moduleFindings.end(), lint.findings.begin(), lint.findings.end());
    const double wallMs = noWall ? 0.0 : elapsedMs(started);

    const std::string bench = module->name();
    const auto metric = [&](const char* name, double value, double wall = 0.0) {
      rows.push_back({bench, "lint", name, value, wall});
    };
    metric("key_width", static_cast<double>(lint.summary.keyWidth), wallMs);
    metric("key_muxes", static_cast<double>(lint.summary.keyMuxes));
    metric("free_key_bits", static_cast<double>(lint.summary.freeKeyBits));
    metric("constant_select_muxes", static_cast<double>(lint.summary.constantSelectMuxes));
    metric("identical_arm_muxes", static_cast<double>(lint.summary.identicalArmMuxes));
    metric("static_resilience_percent", lint.summary.staticResiliencePercent);
    metric("verifier_errors", static_cast<double>(verifierErrors));
    metric("verifier_warnings", static_cast<double>(verifierWarnings));

    findings.insert(findings.end(), std::make_move_iterator(moduleFindings.begin()),
                    std::make_move_iterator(moduleFindings.end()));
  }

  support::JsonValue document;
  document.set("schema", "rtlock-lint-report/v1");
  document.set("input", inputPath);
  document.set("findings", findingsToJson(findings));
  document.set("rows", rowsToJson(rows));

  if (flags.has("report")) {
    writeTextFile(flags.get("report", ""), document.dump());
    io.err << "report: " << flags.get("report", "") << "\n";
  }
  if (flags.has("report-csv")) {
    std::ofstream csv{flags.get("report-csv", "")};
    if (!csv) throw support::Error{"cannot open " + flags.get("report-csv", "") + " for writing"};
    emitRows(csv, rows, /*csv=*/true);
    io.err << "CSV report: " << flags.get("report-csv", "") << "\n";
  }

  if (flags.getBool("json", false)) {
    io.out << document.dump() << "\n";
  } else {
    for (const analysis::Diagnostic& finding : findings) {
      io.out << analysis::describe(finding) << "\n";
    }
    if (!findings.empty()) io.out << "\n";
    emitRows(io.out, rows, flags.getBool("csv", false));
  }
  io.err << findings.size() << " finding(s) across " << modules.size() << " module(s)\n";
  return sawErrors ? kExitError : kExitOk;
}

}  // namespace rtlock::cli
