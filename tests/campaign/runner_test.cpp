// Fault isolation, retry/backoff, deadlines, journal resume, shutdown
// drain and --check recomputation of the campaign runner.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/fault.hpp"
#include "support/diagnostics.hpp"
#include "support/task_pool.hpp"

namespace rtlock::campaign {
namespace {

std::vector<Cell> makeGrid(std::size_t count) {
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < count; ++i) {
    Cell cell;
    cell.id = {"d0d0d0d0d0d0d0d0", "algo", i, "c0c0c0c0c0c0c0c0"};
    cell.label = "cell " + std::to_string(i);
    cells.push_back(cell);
  }
  return cells;
}

support::JsonValue payloadFor(const Cell& cell) {
  support::JsonValue payload;
  payload.set("value", static_cast<std::int64_t>(cell.id.seed * 10));
  return payload;
}

std::string freshPath(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "runner_" + tag + ".jsonl";
  std::filesystem::remove(path);
  return path;
}

TEST(Runner, AllCellsOk) {
  const std::vector<Cell> cells = makeGrid(4);
  CampaignOptions options;
  options.threads = 2;
  const CampaignResult result = runCampaign(
      cells, options, nullptr,
      [](const Cell& cell, const CellContext&) { return payloadFor(cell); });
  EXPECT_EQ(result.okCells, 4u);
  EXPECT_EQ(result.errorCells, 0u);
  EXPECT_FALSE(result.interrupted);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].status, CellStatus::Ok);
    EXPECT_EQ(result.outcomes[i].attempts, 1);
    EXPECT_EQ(result.outcomes[i].payload.at("value").asInt(),
              static_cast<std::int64_t>(i * 10));
  }
}

TEST(Runner, ThrowingCellIsIsolatedNotFatal) {
  const std::vector<Cell> cells = makeGrid(3);
  CampaignOptions options;
  options.threads = 1;
  options.retry.maxAttempts = 3;
  options.retry.backoffBaseMs = 1.0;
  const CampaignResult result =
      runCampaign(cells, options, nullptr, [](const Cell& cell, const CellContext&) {
        if (cell.id.seed == 1) throw support::Error{"cell exploded"};
        return payloadFor(cell);
      });
  EXPECT_EQ(result.okCells, 2u);
  EXPECT_EQ(result.errorCells, 1u);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::Error);
  EXPECT_EQ(result.outcomes[1].attempts, 3);  // all attempts burned
  EXPECT_EQ(result.outcomes[1].errorCode, "error");
  EXPECT_EQ(result.outcomes[1].errorWhat, "cell exploded");
  EXPECT_EQ(result.outcomes[2].status, CellStatus::Ok);
}

TEST(Runner, TransientFailureSucceedsOnRetry) {
  const std::vector<Cell> cells = makeGrid(1);
  CampaignOptions options;
  options.threads = 1;
  options.retry.maxAttempts = 2;
  options.retry.backoffBaseMs = 1.0;
  std::atomic<int> calls{0};
  const CampaignResult result =
      runCampaign(cells, options, nullptr, [&](const Cell& cell, const CellContext&) {
        if (calls.fetch_add(1) == 0) throw support::Error{"transient"};
        return payloadFor(cell);
      });
  EXPECT_EQ(result.okCells, 1u);
  EXPECT_EQ(result.outcomes[0].attempts, 2);
  EXPECT_EQ(calls.load(), 2);
}

TEST(Runner, NonStandardExceptionClassified) {
  const std::vector<Cell> cells = makeGrid(1);
  CampaignOptions options;
  options.threads = 1;
  options.retry.maxAttempts = 1;
  const CampaignResult result = runCampaign(
      cells, options, nullptr,
      [](const Cell&, const CellContext&) -> support::JsonValue { throw 42; });
  EXPECT_EQ(result.outcomes[0].status, CellStatus::Error);
  EXPECT_EQ(result.outcomes[0].errorCode, "unknown");
}

TEST(Runner, CooperativeDeadlineBecomesTimeoutWithoutRetry) {
  const std::vector<Cell> cells = makeGrid(2);
  CampaignOptions options;
  options.threads = 1;
  options.retry.maxAttempts = 3;
  options.cellDeadlineMs = 20.0;
  std::atomic<int> calls{0};
  const CampaignResult result =
      runCampaign(cells, options, nullptr, [&](const Cell& cell, const CellContext& context) {
        if (cell.id.seed == 0) {
          calls.fetch_add(1);
          while (true) {
            context.checkDeadline();  // raises CellTimeout once expired
            std::this_thread::sleep_for(std::chrono::milliseconds{1});
          }
        }
        return payloadFor(cell);
      });
  EXPECT_EQ(result.timeoutCells, 1u);
  EXPECT_EQ(result.okCells, 1u);
  EXPECT_EQ(result.outcomes[0].status, CellStatus::Timeout);
  EXPECT_EQ(result.outcomes[0].errorCode, "timeout");
  EXPECT_EQ(calls.load(), 1);  // deadlines are budgets, not transient: no retry
}

TEST(Runner, PostHocDeadlineDegradesToTimeout) {
  const std::vector<Cell> cells = makeGrid(1);
  CampaignOptions options;
  options.threads = 1;
  options.cellDeadlineMs = 5.0;
  const CampaignResult result =
      runCampaign(cells, options, nullptr, [](const Cell& cell, const CellContext&) {
        std::this_thread::sleep_for(std::chrono::milliseconds{25});
        return payloadFor(cell);  // never polls the deadline
      });
  EXPECT_EQ(result.outcomes[0].status, CellStatus::Timeout);
}

TEST(Runner, JournalResumeSkipsCompletedCells) {
  const std::string path = freshPath("resume");
  const std::vector<Cell> cells = makeGrid(4);
  CampaignIdentity identity;
  identity.designHash = cells[0].id.designHash;
  identity.configHash = cells[0].id.configHash;
  CampaignOptions options;
  options.threads = 1;
  std::atomic<int> calls{0};
  const CellFn compute = [&](const Cell& cell, const CellContext&) {
    calls.fetch_add(1);
    return payloadFor(cell);
  };
  {
    Journal journal{path, identity};
    const CampaignResult first = runCampaign(cells, options, &journal, compute);
    EXPECT_EQ(first.okCells, 4u);
    EXPECT_EQ(first.journaledCells, 0u);
  }
  EXPECT_EQ(calls.load(), 4);
  {
    Journal journal{path, identity};
    const CampaignResult second = runCampaign(cells, options, &journal, compute);
    EXPECT_EQ(second.okCells, 4u);
    EXPECT_EQ(second.journaledCells, 4u);
    EXPECT_TRUE(second.outcomes[0].fromJournal);
    EXPECT_EQ(second.outcomes[2].payload.at("value").asInt(), 20);
  }
  EXPECT_EQ(calls.load(), 4);  // nothing recomputed
}

TEST(Runner, ErrorRowsRerunByDefaultKeptWithKeepErrors) {
  const std::string path = freshPath("keep_errors");
  const std::vector<Cell> cells = makeGrid(2);
  CampaignIdentity identity;
  identity.designHash = cells[0].id.designHash;
  identity.configHash = cells[0].id.configHash;
  CampaignOptions options;
  options.threads = 1;
  options.retry.maxAttempts = 1;
  bool fail = true;
  const CellFn compute = [&](const Cell& cell, const CellContext&) {
    if (fail && cell.id.seed == 0) throw support::Error{"flaky"};
    return payloadFor(cell);
  };
  {
    Journal journal{path, identity};
    const CampaignResult first = runCampaign(cells, options, &journal, compute);
    EXPECT_EQ(first.errorCells, 1u);
  }
  fail = false;
  {
    // keep-errors: the journaled failure is preserved, not recomputed.
    Journal journal{path, identity};
    CampaignOptions keep = options;
    keep.keepErrors = true;
    const CampaignResult kept = runCampaign(cells, keep, &journal, compute);
    EXPECT_EQ(kept.errorCells, 1u);
    EXPECT_TRUE(kept.outcomes[0].fromJournal);
  }
  {
    // Default: the error row is re-run (and now succeeds).
    Journal journal{path, identity};
    const CampaignResult second = runCampaign(cells, options, &journal, compute);
    EXPECT_EQ(second.errorCells, 0u);
    EXPECT_EQ(second.okCells, 2u);
  }
}

TEST(Runner, ShutdownBeforeRunSkipsEverything) {
  const std::vector<Cell> cells = makeGrid(3);
  CampaignOptions options;
  options.threads = 1;
  requestShutdown();
  const CampaignResult result = runCampaign(
      cells, options, nullptr,
      [](const Cell& cell, const CellContext&) { return payloadFor(cell); });
  clearShutdownRequest();
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.skippedCells, 3u);
  EXPECT_EQ(result.okCells, 0u);
}

TEST(Runner, ShutdownMidCampaignDrainsAndReportsCompletedPrefix) {
  const std::vector<Cell> cells = makeGrid(8);
  CampaignOptions options;
  options.threads = 1;  // serial: deterministic stop point
  const CampaignResult result =
      runCampaign(cells, options, nullptr, [&](const Cell& cell, const CellContext&) {
        if (cell.id.seed == 2) requestShutdown();  // stop after the third cell
        return payloadFor(cell);
      });
  clearShutdownRequest();
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.okCells, 3u);
  EXPECT_EQ(result.skippedCells, 5u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(result.outcomes[i].status, CellStatus::Ok);
  for (std::size_t i = 3; i < 8; ++i) EXPECT_EQ(result.outcomes[i].status, CellStatus::Skipped);
}

TEST(Runner, DrainWithFannedOutPartsInFlightJournalsOnlyWholeCells) {
  // Cells fan 8 parts each out on CellContext::pool.  Cell 2 is quick and
  // requests the drain from one of its parts, so its worker moves on and
  // stops the pool while cells 0, 1 and 3 still have parts queued.  Started
  // cells must finish every part (their payloads equal a serial run's),
  // unstarted cells are skipped, and a resume completes the grid to the
  // clean run's outcomes.
  const std::string path = freshPath("fanout_drain");
  const std::vector<Cell> cells = makeGrid(12);
  CampaignIdentity identity;
  identity.designHash = cells[0].id.designHash;
  identity.configHash = cells[0].id.configHash;
  std::atomic<bool> drainArmed{true};
  const CellFn compute = [&](const Cell& cell, const CellContext& context) {
    const auto runPart = [&](int /*worker*/, std::size_t part) {
      if (cell.id.seed == 2) {
        if (part == 3 && drainArmed.load()) requestShutdown();
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      return static_cast<std::int64_t>(cell.id.seed * 100 + part + 1);
    };
    const std::vector<std::int64_t> parts = context.pool->fanOut(8, runPart);
    std::int64_t sum = 0;
    for (const std::int64_t value : parts) sum += value;
    support::JsonValue payload;
    payload.set("sum", sum);
    return payload;
  };
  CampaignOptions options;
  options.threads = 1;
  drainArmed = false;
  const CampaignResult clean = runCampaign(cells, options, nullptr, compute);
  ASSERT_EQ(clean.okCells, cells.size());

  options.threads = 4;
  drainArmed = true;
  CampaignResult drained;
  {
    Journal journal{path, identity};
    drained = runCampaign(cells, options, &journal, compute);
  }
  clearShutdownRequest();
  drainArmed = false;
  EXPECT_TRUE(drained.interrupted);
  EXPECT_GT(drained.skippedCells, 0u);
  EXPECT_GE(drained.okCells, 3u);  // cells 0-2 had started when the drain began
  EXPECT_EQ(drained.okCells + drained.skippedCells, cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (drained.outcomes[i].status != CellStatus::Ok) continue;
    EXPECT_EQ(drained.outcomes[i].payload.dumpLine(), clean.outcomes[i].payload.dumpLine())
        << "cell " << i;
  }
  const JournalFile file = readJournalFile(path);
  EXPECT_EQ(file.rows.size(), drained.okCells);
  for (const JournalRow& row : file.rows) {
    EXPECT_EQ(row.payload.dumpLine(), clean.outcomes[row.id.seed].payload.dumpLine())
        << row.id.key();
  }

  Journal journal{path, identity};
  const CampaignResult resumed = runCampaign(cells, options, &journal, compute);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.okCells, cells.size());
  EXPECT_EQ(resumed.journaledCells, drained.okCells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(resumed.outcomes[i].payload.dumpLine(), clean.outcomes[i].payload.dumpLine())
        << "cell " << i;
  }
}

TEST(Runner, InjectedThrowFaultProducesErrorRow) {
  const std::vector<Cell> cells = makeGrid(3);
  CampaignOptions options;
  options.threads = 1;
  options.retry.maxAttempts = 2;
  options.retry.backoffBaseMs = 1.0;
  options.faults = FaultPlan::parse("cell:1:throw");
  const CampaignResult result = runCampaign(
      cells, options, nullptr,
      [](const Cell& cell, const CellContext&) { return payloadFor(cell); });
  EXPECT_EQ(result.okCells, 2u);
  EXPECT_EQ(result.errorCells, 1u);
  EXPECT_EQ(result.outcomes[1].attempts, 2);
  EXPECT_NE(result.outcomes[1].errorWhat.find("injected fault"), std::string::npos);
}

TEST(Runner, InjectedHangFaultTimesOutAtDeadline) {
  const std::vector<Cell> cells = makeGrid(1);
  CampaignOptions options;
  options.threads = 1;
  options.cellDeadlineMs = 30.0;
  options.faults = FaultPlan::parse("cell:0:hang");
  const CampaignResult result = runCampaign(
      cells, options, nullptr,
      [](const Cell& cell, const CellContext&) { return payloadFor(cell); });
  EXPECT_EQ(result.timeoutCells, 1u);
  EXPECT_EQ(result.outcomes[0].errorCode, "timeout");
}

TEST(Runner, CheckJournalDetectsDivergence) {
  const std::string path = freshPath("check");
  const std::vector<Cell> cells = makeGrid(5);
  CampaignIdentity identity;
  identity.designHash = cells[0].id.designHash;
  identity.configHash = cells[0].id.configHash;
  CampaignOptions options;
  options.threads = 1;
  const CellFn compute = [](const Cell& cell, const CellContext&) { return payloadFor(cell); };
  Journal journal{path, identity};
  const CampaignResult result = runCampaign(cells, options, &journal, compute);
  ASSERT_EQ(result.okCells, 5u);

  const CheckResult clean = checkJournal(cells, journal, 3, compute);
  EXPECT_EQ(clean.checkedCells, 3u);
  EXPECT_TRUE(clean.mismatches.empty());

  const CheckResult all = checkJournal(cells, journal, 99, compute);
  EXPECT_EQ(all.checkedCells, 5u);

  // A compute function that disagrees with the journal must be caught.
  const CheckResult dirty =
      checkJournal(cells, journal, 99, [](const Cell& cell, const CellContext&) {
        support::JsonValue payload;
        payload.set("value", static_cast<std::int64_t>(cell.id.seed * 10 + 1));
        return payload;
      });
  EXPECT_EQ(dirty.mismatches.size(), 5u);
}

TEST(FaultPlan, ParsesAndLooksUp) {
  const FaultPlan plan = FaultPlan::parse("cell:0:throw, cell:7:hang,cell:3:crash");
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.at(0), FaultKind::Throw);
  EXPECT_EQ(plan.at(7), FaultKind::Hang);
  EXPECT_EQ(plan.at(3), FaultKind::Crash);
  EXPECT_EQ(plan.at(1), std::nullopt);
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("cell:0"), support::Error);
  EXPECT_THROW(FaultPlan::parse("cell:x:throw"), support::Error);
  EXPECT_THROW(FaultPlan::parse("cell:0:explode"), support::Error);
  EXPECT_THROW(FaultPlan::parse("row:0:throw"), support::Error);
}

TEST(FaultPlan, FromEnvReadsVariable) {
  ASSERT_EQ(setenv("RTLOCK_FAULT_INJECT", "cell:2:throw", 1), 0);
  const FaultPlan plan = FaultPlan::fromEnv();
  EXPECT_EQ(plan.at(2), FaultKind::Throw);
  ASSERT_EQ(unsetenv("RTLOCK_FAULT_INJECT"), 0);
  EXPECT_TRUE(FaultPlan::fromEnv().empty());
}

}  // namespace
}  // namespace rtlock::campaign
