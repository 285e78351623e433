// `rtlock eval` — the paper's full lock→attack→report loop over a seed grid.
//
// Thin wrapper over service::runEval (shared with `rtlock serve`).  For
// every (algorithm, seed) cell the experiment engine locks fresh samples of
// the input module and attacks each one (attack::evaluateBenchmark).  Cells
// run through the campaign runner (src/campaign/): each cell draws only
// from Rng{s}.substream(a), so the grid is bit-identical at every --threads
// count, and — with --journal — a campaign killed at any point resumes to
// the same report.  A cell that throws becomes a structured error row
// instead of aborting the grid; campaigns with failed cells exit with
// kExitPartial, an interrupted (SIGINT/SIGTERM) drain with
// kExitInterrupted.  docs/CAMPAIGNS.md covers the journal format and the
// fault-injection harness.
#include <fstream>

#include "campaign/runner.hpp"
#include "cli/common.hpp"
#include "service/api.hpp"
#include "support/strings.hpp"

namespace rtlock::cli {

int runEvalCommand(const std::vector<std::string>& args, CommandIo& io) {
  const support::CliArgs flags = parseFlags(
      args, {"algos", "seeds", "samples", "rounds", "budget", "folds", "module", "key-port",
             "threads", "extended-features", "report", "report-csv", "csv", "no-wall", "journal",
             "keep-errors", "check", "check-cells", "retries", "deadline-ms", "verify-functional"});
  const std::string inputPath = onePositional(flags, "input netlist (input.v)");
  const bool noWall = flags.getBool("no-wall", false);

  service::EvalRequest request;
  request.algorithms = service::algorithmListFromNames(flags.get("algos", "serial,hra,era"));
  request.seeds = service::parseSeedList(flags.get("seeds", "1"));

  const std::uint64_t samples = u64Flag(flags, "samples", 10);
  if (samples < 1 || samples > 1'000'000) throw UsageError{"--samples must be in [1, 1000000]"};
  request.samples = static_cast<int>(samples);
  request.budget = parseBudget(flags.get("budget", "75%"));
  if (!request.budget.isFraction) {
    throw UsageError{"--budget takes a fraction of the module's operations here (e.g. 75%)"};
  }
  const std::uint64_t rounds = u64Flag(flags, "rounds", 1000);
  if (rounds > 1'000'000'000) throw UsageError{"--rounds must be at most 1000000000"};
  request.rounds = static_cast<int>(rounds);
  const std::uint64_t folds = u64Flag(flags, "folds", 3);
  if (folds < 2 || folds > 1000) throw UsageError{"--folds must be in [2, 1000]"};
  request.folds = static_cast<int>(folds);
  request.extendedFeatures = flags.getBool("extended-features", false);
  request.verifyFunctional = flags.getBool("verify-functional", false);
  request.includeWall = !noWall;

  request.campaign.threads = support::requestedThreads(flags);
  const std::uint64_t retries = u64Flag(flags, "retries", 1);
  if (retries > 100) throw UsageError{"--retries must be at most 100"};
  request.campaign.retry.maxAttempts = 1 + static_cast<int>(retries);
  request.campaign.cellDeadlineMs = flags.getDouble("deadline-ms", 0.0);
  if (request.campaign.cellDeadlineMs < 0.0) throw UsageError{"--deadline-ms must be >= 0"};
  request.campaign.keepErrors = flags.getBool("keep-errors", false);
  try {
    request.campaign.faults = campaign::FaultPlan::fromEnv();
  } catch (const support::Error& error) {
    throw UsageError{std::string{"RTLOCK_FAULT_INJECT: "} + error.what()};
  }
  const bool check = flags.getBool("check", false);
  const std::size_t checkCells = static_cast<std::size_t>(u64Flag(flags, "check-cells", 3));
  if (check && !flags.has("journal")) throw UsageError{"--check requires --journal"};
  request.journalPath = flags.get("journal", "");
  request.checkCells = check ? checkCells : 0;

  request.source = readTextFile(inputPath);
  request.session.keyPortName = flags.get("key-port", request.session.keyPortName);
  request.moduleName = flags.get("module", "");

  // From here on SIGINT/SIGTERM request a graceful drain (finish in-flight
  // cells, flush the journal, exit kExitInterrupted) instead of killing the
  // process mid-write; a second signal still exits immediately.
  const campaign::ScopedSignalHandlers signalGuard;
  service::SessionCache cache;
  const service::EvalResponse response = service::runEval(cache, request);

  io.err << "evaluating " << response.moduleName << ": " << request.algorithms.size()
         << " algorithm(s) x " << request.seeds.size() << " seed(s), " << request.samples
         << " locked sample(s) per cell\n";
  if (response.journaled) {
    io.err << "journal: " << request.journalPath << " (" << response.journalReloadedRows
           << " row(s) reloaded";
    if (response.journalTornTail) io.err << ", torn tail discarded";
    io.err << ")\n";
  }
  for (const std::string& line : response.cellErrors) io.err << line << "\n";

  if (response.campaign.interrupted) {
    io.err << "interrupted: " << response.campaign.okCells << " cell(s) done, "
           << response.campaign.skippedCells << " not started";
    if (response.journaled) {
      io.err << "; resume with --journal " << request.journalPath;
    }
    io.err << "\n";
    return kExitInterrupted;
  }

  if (flags.has("report")) {
    writeTextFile(flags.get("report", ""),
                  service::evalReportDocument(response, inputPath).dump());
    io.err << "report: " << flags.get("report", "") << "\n";
  }
  if (flags.has("report-csv")) {
    std::ofstream csv{flags.get("report-csv", "")};
    if (!csv) throw support::Error{"cannot open " + flags.get("report-csv", "") + " for writing"};
    emitRows(csv, response.rows, /*csv=*/true);
    io.err << "CSV report: " << flags.get("report-csv", "") << "\n";
  }

  emitRows(io.out, response.rows, flags.getBool("csv", false));
  io.err << response.cells.size() << " grid cell(s) (" << response.campaign.journaledCells
         << " from journal) in " << support::formatDouble(response.campaign.wallMs, 0) << " ms\n";

  if (check && response.journaled) {
    for (const std::string& mismatch : response.checkMismatches) {
      io.err << "check mismatch: " << mismatch << "\n";
    }
    if (!response.checkMismatches.empty()) {
      io.err << "check: " << response.checkMismatches.size() << " of " << response.checkedCells
             << " recomputed cell(s) diverged from the journal\n";
      return kExitError;
    }
    io.err << "check: " << response.checkedCells << " cell(s) recomputed, all byte-identical\n";
  }

  if (response.campaign.errorCells > 0 || response.campaign.timeoutCells > 0) {
    io.err << "partial campaign: " << response.campaign.errorCells << " error cell(s), "
           << response.campaign.timeoutCells << " timeout cell(s)\n";
    return kExitPartial;
  }
  return kExitOk;
}

}  // namespace rtlock::cli
