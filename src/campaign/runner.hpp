// Fault-isolated, checkpointed campaign runner.
//
// `rtlock eval` (and, later, `rtlock serve`) drives grids of pure cells
// through this layer instead of a bare TaskPool loop.  What it adds on top
// of the pool:
//
//  * per-cell fault isolation — a cell that throws is *captured* as a
//    structured error outcome (code, what(), attempt count) instead of
//    aborting the campaign; every other cell still runs;
//  * bounded retry with capped exponential backoff — transient failures get
//    `RetryPolicy::maxAttempts` tries, deterministic failures surface with
//    their attempt count recorded;
//  * per-cell wall-clock deadlines — a cell that overruns degrades to a
//    `timeout` outcome (cooperatively via CellContext::checkDeadline /
//    CellTimeout where the cell polls, post-hoc otherwise);
//  * crash-safe checkpointing — each completed cell is appended to the
//    Journal the moment it finishes, and journaled cells are skipped on the
//    next run (error/timeout rows re-run unless options.keepErrors);
//  * graceful shutdown — on SIGINT/SIGTERM (or requestShutdown()) the
//    runner stops claiming cells, drains in-flight workers, leaves the
//    journal flushed, and reports interrupted=true.  A drained cell always
//    finishes whole: the parts it fanned out on CellContext::pool all run,
//    so a journaled payload is never built from a partial cell.
//
// Determinism contract: compute must be a pure function of the cell
// identity (derive all randomness from the cell's seed/substream, never
// from execution order).  Under that contract a resumed campaign merges to
// outcomes bit-identical to an uninterrupted run at any thread count.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "campaign/fault.hpp"
#include "campaign/journal.hpp"
#include "support/diagnostics.hpp"

namespace rtlock::support {
class TaskPool;
}  // namespace rtlock::support

namespace rtlock::campaign {

/// Raised (by cooperative deadline checks and the hang fault) when a cell
/// exceeds its wall-clock deadline; the runner records a timeout outcome.
class CellTimeout : public support::Error {
 public:
  using support::Error::Error;
};

/// One grid cell: identity plus the human-readable label progress lines use.
struct Cell {
  CellId id;
  std::string label;
};

enum class CellStatus { Ok, Error, Timeout, Skipped };

struct CellOutcome {
  CellStatus status = CellStatus::Skipped;
  int attempts = 0;
  double wallMs = 0.0;
  support::JsonValue payload;  // Ok cells: the result object
  std::string errorCode;       // Error/Timeout cells
  std::string errorWhat;
  bool fromJournal = false;    // reloaded, not computed this run
};

struct RetryPolicy {
  int maxAttempts = 2;         // total tries per cell (1 = no retry)
  double backoffBaseMs = 25.0;  // first retry delay; doubles per attempt
  double backoffCapMs = 1000.0;
};

struct CampaignOptions {
  /// Total workers, shared by the cells and whatever they fan out on
  /// CellContext::pool.  TaskPool convention: 0 = hardware, 1 = serial.
  int threads = 0;
  RetryPolicy retry;
  double cellDeadlineMs = 0.0;  // 0 = no deadline
  bool keepErrors = false;      // keep journaled error/timeout rows on resume
  FaultPlan faults;
  /// Progress hook, called once per finished cell under the runner's lock
  /// (grid index, outcome).  May be empty.
  std::function<void(std::size_t, const CellOutcome&)> onCell;
};

/// Execution context handed to compute; long-running cells should call
/// checkDeadline() at convenient points so deadlines and shutdown drains
/// take effect before the cell finishes naturally.
struct CellContext {
  std::size_t index = 0;  // grid index
  int attempt = 1;        // 1-based
  double deadlineMs = 0.0;
  std::chrono::steady_clock::time_point start{};
  /// The pool running the cell, never null when the campaign layer calls
  /// compute.  A cell fans its independent parts out on it
  /// (TaskPool::fanOut) so that workers left idle by the grid's tail help
  /// the cells still running; --check recomputation hands a serial pool.
  /// A shutdown drain still runs every fanned-out part of a started cell.
  support::TaskPool* pool = nullptr;

  [[nodiscard]] double elapsedMs() const;
  [[nodiscard]] bool deadlineExpired() const;
  /// Throws CellTimeout when the deadline has expired.
  void checkDeadline() const;
};

/// Computes one cell's result payload; throws on failure.  Must be pure in
/// the cell identity (see the determinism contract above).
using CellFn = std::function<support::JsonValue(const Cell&, const CellContext&)>;

struct CampaignResult {
  std::vector<CellOutcome> outcomes;  // one per cell, grid order
  std::size_t okCells = 0;
  std::size_t errorCells = 0;
  std::size_t timeoutCells = 0;
  std::size_t skippedCells = 0;    // not run: shutdown drain
  std::size_t journaledCells = 0;  // satisfied from the journal
  bool interrupted = false;
  double wallMs = 0.0;
};

/// Runs the campaign on one pool of `options.threads` workers: cells are
/// claimed one per worker in grid order, and cells fanning out on
/// CellContext::pool share those same workers once the queue of unstarted
/// cells runs dry.  `journal` may be null (no checkpointing).  Never throws
/// for cell failures — only for infrastructure errors (journal I/O).
[[nodiscard]] CampaignResult runCampaign(const std::vector<Cell>& cells,
                                         const CampaignOptions& options, Journal* journal,
                                         const CellFn& compute);

/// Runs one cell with the runner's full retry/backoff/deadline/fault
/// machinery; never lets a cell exception escape.  (An injected crash fault
/// does not return at all.)  `pool` is the pool the cell runs on, handed to
/// compute as CellContext::pool.  Exposed for the distributed worker, which
/// claims cells itself instead of going through runCampaign.
[[nodiscard]] CellOutcome executeCell(const Cell& cell, std::size_t index,
                                      const CampaignOptions& options, const CellFn& compute,
                                      support::TaskPool& pool);

/// Outcome <-> journal-row conversion, shared by the runner, the worker and
/// the merge-driven report builders.
[[nodiscard]] JournalRow rowFromOutcome(const Cell& cell, const CellOutcome& outcome);
[[nodiscard]] CellOutcome outcomeFromRow(const JournalRow& row);

/// --check support: re-executes a deterministic sample of up to
/// `sampleSize` journaled ok cells *serially* (CellContext::pool is a
/// one-thread pool, so fanned-out parts run inline) and byte-compares each
/// recomputed payload against the journaled row (the distributed-vs-serial
/// diff).  Returns the mismatching cell keys (empty = all byte-identical).
struct CheckResult {
  std::size_t checkedCells = 0;
  std::vector<std::string> mismatches;  // "key: journaled <...> recomputed <...>"
};
[[nodiscard]] CheckResult checkJournal(const std::vector<Cell>& cells, const Journal& journal,
                                       std::size_t sampleSize, const CellFn& compute);

// ---- graceful shutdown -----------------------------------------------------

/// Sets the process-wide shutdown flag the runner polls before claiming
/// each cell.  Async-signal-safe.
void requestShutdown() noexcept;
[[nodiscard]] bool shutdownRequested() noexcept;
/// Clears the flag (tests; and the CLI between campaigns).
void clearShutdownRequest() noexcept;

/// RAII SIGINT/SIGTERM installation: first signal requests a graceful
/// drain, a second one exits immediately (128 + signo).  The destructor
/// restores the previous handlers and clears the shutdown flag.
class ScopedSignalHandlers {
 public:
  ScopedSignalHandlers();
  ~ScopedSignalHandlers();
  ScopedSignalHandlers(const ScopedSignalHandlers&) = delete;
  ScopedSignalHandlers& operator=(const ScopedSignalHandlers&) = delete;

 private:
  void (*previousInt_)(int);
  void (*previousTerm_)(int);
};

}  // namespace rtlock::campaign
