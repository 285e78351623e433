// `rtlock work` — one worker of a distributed eval campaign.
//
// Point any number of `rtlock work` processes (any hosts sharing a
// filesystem) at the same --manifest with the identical eval grid: the
// first one atomically creates the manifest, every worker claims cells
// through lease-based claim files, journals its results to its own journal
// under `<manifest>.journals/`, and each worker that sees the fleet
// converge prints the full merged report — byte-identical to what a
// single-process `rtlock eval` of the same grid prints.  A worker that dies
// mid-cell leaves a claim that expires after --lease-ms and is reclaimed by
// a surviving worker; the determinism contract makes any double compute
// merge away.  docs/CAMPAIGNS.md covers the manifest format, lease protocol
// and merge rules.
#include <fstream>

#include "campaign/runner.hpp"
#include "cli/common.hpp"
#include "service/api.hpp"
#include "support/strings.hpp"

namespace rtlock::cli {

int runWorkCommand(const std::vector<std::string>& args, CommandIo& io) {
  const support::CliArgs flags = parseFlags(
      args, {"manifest", "owner", "lease-ms", "poll-ms", "max-wait-ms", "journal", "algos",
             "seeds", "samples", "rounds", "budget", "folds", "module", "key-port", "threads",
             "extended-features", "report", "report-csv", "csv", "no-wall", "retries",
             "deadline-ms", "verify-functional"});
  const std::string inputPath = onePositional(flags, "input netlist (input.v)");
  if (!flags.has("manifest")) throw UsageError{"--manifest=PATH is required (the shared manifest)"};
  const bool noWall = flags.getBool("no-wall", false);

  service::EvalRequest request;
  request.manifestPath = flags.get("manifest", "");
  request.workerId = flags.get("owner", "");
  request.journalPath = flags.get("journal", "");
  request.leaseMs = flags.getDouble("lease-ms", 60000.0);
  request.pollMs = flags.getDouble("poll-ms", 50.0);
  if (request.pollMs <= 0.0) throw UsageError{"--poll-ms must be > 0"};
  request.maxWaitMs = flags.getDouble("max-wait-ms", 0.0);
  if (request.maxWaitMs < 0.0) throw UsageError{"--max-wait-ms must be >= 0"};

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
  try {
    request.campaign.faults = campaign::FaultPlan::fromEnv();
  } catch (const support::Error& error) {
    throw UsageError{std::string{"RTLOCK_FAULT_INJECT: "} + error.what()};
  }

  request.source = readTextFile(inputPath);
  request.session.keyPortName = flags.get("key-port", request.session.keyPortName);
  request.moduleName = flags.get("module", "");

  const campaign::ScopedSignalHandlers signalGuard;
  service::SessionCache cache;
  const service::EvalResponse response = service::runEval(cache, request);
  const campaign::WorkerReport& worker = response.worker;

  io.err << "worker " << (request.workerId.empty() ? "(auto)" : request.workerId) << ": manifest "
         << request.manifestPath << ", " << worker.totalCells << " cell(s)\n";
  io.err << "computed " << worker.computedCells << " cell(s) (" << worker.okCells << " ok, "
         << worker.errorCells << " error, " << worker.timeoutCells << " timeout), "
         << worker.journaledCells << " from own journal, " << worker.doneElsewhere
         << " done by other workers, " << worker.steals << " stale lease(s) reclaimed\n";
  for (const std::string& line : response.cellErrors) io.err << line << "\n";

  if (response.campaign.interrupted) {
    io.err << "interrupted: rerun this worker to resume its journal\n";
    return kExitInterrupted;
  }
  if (!worker.allDone) {
    io.err << "fleet not converged";
    if (worker.timedOut) io.err << " (no progress for --max-wait-ms)";
    io.err << " — rerun against the manifest, or merge what exists with rtlock merge\n";
    return kExitPartial;
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
  io.err << "fleet converged: " << response.cells.size() << " grid cell(s) merged from "
         << response.mergedJournals.size() << " journal(s) in "
         << support::formatDouble(response.campaign.wallMs, 0) << " ms\n";

  if (response.campaign.errorCells > 0 || response.campaign.timeoutCells > 0) {
    io.err << "partial campaign: " << response.campaign.errorCells << " error cell(s), "
           << response.campaign.timeoutCells << " timeout cell(s)\n";
    return kExitPartial;
  }
  return kExitOk;
}

}  // namespace rtlock::cli
