#include "campaign/worker.hpp"

#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "support/task_pool.hpp"

namespace rtlock::campaign {

namespace {

using Clock = std::chrono::steady_clock;

enum class CellState {
  Pending,   // unclaimed (or busy under a rival's fresh lease)
  InFlight,  // claimed by this worker, executing in the pool
  Local,     // finished by this worker (this run or its own journal)
  Remote,    // done marker published by another worker
};

[[nodiscard]] const char* outcomeStatusName(CellStatus status) noexcept {
  switch (status) {
    case CellStatus::Ok:
      return "ok";
    case CellStatus::Timeout:
      return "timeout";
    default:
      return "error";
  }
}

}  // namespace

WorkerReport runWorker(const Manifest& manifest, const std::string& manifestPath, Journal& journal,
                       const WorkerOptions& options, const CellFn& compute) {
  const Clock::time_point start = Clock::now();
  const std::string owner = options.ownerId.empty() ? defaultWorkerId() : options.ownerId;
  ClaimBoard board{manifestPath, owner, options.leaseMs};

  WorkerReport report;
  report.totalCells = manifest.cells.size();

  std::mutex stateMutex;
  std::vector<CellState> states(manifest.cells.size(), CellState::Pending);

  // Resume against our own journal: every journaled row — ok or not — is
  // final for the manifest (see worker.hpp), so publish its done marker now
  // and never claim the cell again.
  for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
    const auto it = journal.rows().find(manifest.cells[i].id.key());
    if (it == journal.rows().end()) continue;
    board.markDone(i, it->second.status);
    states[i] = CellState::Local;
    ++report.journaledCells;
    if (options.campaign.onCell) options.campaign.onCell(i, outcomeFromRow(it->second));
  }

  // Not capped at the cell count: claimed cells fan out on this pool too.
  const int workers = states.empty() ? 1 : support::resolveThreadCount(options.campaign.threads);
  support::TaskPool pool{workers};
  // Claim only a little ahead of the pool so concurrent workers share the
  // grid instead of the first sweep hoarding every cell.  (The serial pool
  // runs cells inline during the sweep, so in-flight never accumulates and
  // the cap is effectively inert at threads == 1.)
  const std::size_t claimAhead = 2 * static_cast<std::size_t>(pool.threadCount());

  const auto runCell = [&](std::size_t index) {
    if (shutdownRequested()) {
      // Drain: hand the cell straight back to the fleet instead of leaving
      // a claim that rivals would have to wait out.
      board.release(index);
      const std::lock_guard<std::mutex> lock{stateMutex};
      states[index] = CellState::Pending;
      return;
    }
    CellOutcome outcome =
        executeCell(manifest.cells[index], index, options.campaign, compute, pool);
    // Journal first, done marker second: a crash in between leaves the cell
    // claimable, and the recompute's byte-identical row dedups at merge.
    journal.append(rowFromOutcome(manifest.cells[index], outcome));
    board.markDone(index, outcomeStatusName(outcome.status));
    {
      const std::lock_guard<std::mutex> lock{stateMutex};
      states[index] = CellState::Local;
      ++report.computedCells;
      switch (outcome.status) {
        case CellStatus::Ok:
          ++report.okCells;
          break;
        case CellStatus::Timeout:
          ++report.timeoutCells;
          break;
        default:
          ++report.errorCells;
          break;
      }
      if (options.campaign.onCell) options.campaign.onCell(index, outcome);
    }
  };

  Clock::time_point lastProgress = Clock::now();
  std::size_t lastResolved = 0;
  for (;;) {
    if (shutdownRequested()) {
      report.interrupted = true;
      break;
    }

    bool claimedSomething = false;
    std::size_t resolved = 0;  // Local + Remote
    std::size_t inFlight = 0;
    std::vector<std::size_t> heartbeats;
    for (std::size_t i = 0; i < states.size(); ++i) {
      CellState state;
      {
        const std::lock_guard<std::mutex> lock{stateMutex};
        state = states[i];
      }
      switch (state) {
        case CellState::Local:
        case CellState::Remote:
          ++resolved;
          continue;
        case CellState::InFlight:
          ++inFlight;
          heartbeats.push_back(i);
          continue;
        case CellState::Pending:
          break;
      }
      if (inFlight >= claimAhead) continue;  // enough queued — leave cells for rivals
      const ClaimOutcome claim = board.tryClaim(i);
      if (claim.status == ClaimStatus::Done) {
        const std::lock_guard<std::mutex> lock{stateMutex};
        states[i] = CellState::Remote;
        ++report.doneElsewhere;
        ++resolved;
        continue;
      }
      if (claim.status == ClaimStatus::Busy) continue;
      if (claim.stolen) ++report.steals;
      {
        const std::lock_guard<std::mutex> lock{stateMutex};
        states[i] = CellState::InFlight;
      }
      claimedSomething = true;
      // threads == 1 runs the cell inline right here (TaskPool's serial
      // path), which is what makes single-threaded workers march the
      // manifest strictly in order — the property the crash-injection tests
      // choreograph against.
      pool.submit([&runCell, i] { runCell(i); });
      {
        const std::lock_guard<std::mutex> lock{stateMutex};
        if (states[i] == CellState::InFlight) {
          ++inFlight;
        } else {
          ++resolved;  // the serial pool already ran it inline
        }
      }
    }

    // Keep our leases fresh while cells are executing so rivals don't steal
    // live work.  (Serial workers heartbeat between cells only: size the
    // lease comfortably above the slowest cell.)
    for (const std::size_t i : heartbeats) {
      const std::lock_guard<std::mutex> lock{stateMutex};
      if (states[i] == CellState::InFlight) board.heartbeat(i);
    }

    if (resolved == states.size()) break;
    if (resolved > lastResolved || claimedSomething) {
      lastResolved = resolved;
      lastProgress = Clock::now();
    }
    if (inFlight == 0 && options.maxWaitMs > 0.0) {
      // Everything left is held by other workers: wait for their done
      // markers (or their leases to expire), bounded by maxWaitMs.
      const std::chrono::duration<double, std::milli> idle = Clock::now() - lastProgress;
      if (idle.count() > options.maxWaitMs) {
        report.timedOut = true;
        break;
      }
    }
    if (!claimedSomething) {
      std::this_thread::sleep_for(
          std::chrono::microseconds{static_cast<long long>(options.pollMs * 1000.0)});
    }
  }
  pool.wait();  // rethrows infrastructure errors from in-flight cells

  {
    const std::lock_guard<std::mutex> lock{stateMutex};
    report.allDone = true;
    for (const CellState state : states) {
      if (state != CellState::Local && state != CellState::Remote) {
        report.allDone = false;
        break;
      }
    }
  }
  if (report.interrupted || shutdownRequested()) report.interrupted = true;
  const std::chrono::duration<double, std::milli> wall = Clock::now() - start;
  report.wallMs = wall.count();
  return report;
}

}  // namespace rtlock::campaign
