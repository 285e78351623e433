// `rtlock eval` campaign contract: exit codes 3 (partial) and 4
// (interrupted) alongside the established 0/1/2, journal resume producing
// byte-identical reports, --check, --keep-errors, and the usage surface of
// the new flags.  Faults are injected through RTLOCK_FAULT_INJECT — the
// same harness CI's fault-injection job drives from the outside.
#include "cli_test_util.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "campaign/fault.hpp"
#include "campaign/runner.hpp"

namespace rtlock {
namespace {

using testutil::runCli;
using testutil::slurp;

const std::string kAlu8 = std::string{RTLOCK_EXAMPLES_DIR} + "/external/alu8.v";

/// RAII RTLOCK_FAULT_INJECT so a failing test never leaks faults into the
/// suites that run after it.
class ScopedFaultEnv {
 public:
  explicit ScopedFaultEnv(const std::string& spec) {
    setenv("RTLOCK_FAULT_INJECT", spec.c_str(), 1);
  }
  ~ScopedFaultEnv() { unsetenv("RTLOCK_FAULT_INJECT"); }
};

std::string freshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "eval_campaign_" + name;
  std::filesystem::remove(path);
  return path;
}

/// The quick 4-cell grid every test here uses (2 algorithms x 2 seeds).
std::vector<std::string> evalArgs(const std::vector<std::string>& extra) {
  std::vector<std::string> args{"eval",        kAlu8,       "--algos=serial,hra", "--seeds=1,2",
                                "--samples=1", "--rounds=20", "--no-wall"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

TEST(CliEvalCampaignTest, CleanCampaignExitsOk) {
  const auto result = runCli(evalArgs({}));
  EXPECT_EQ(result.exitCode, cli::kExitOk);
  EXPECT_NE(result.out.find("mean_kpa_percent"), std::string::npos);
}

TEST(CliEvalCampaignTest, InjectedThrowFaultExitsPartial) {
  const ScopedFaultEnv fault{"cell:1:throw"};
  const auto result = runCli(evalArgs({"--retries=1"}));
  EXPECT_EQ(result.exitCode, cli::kExitPartial);
  EXPECT_NE(result.err.find("partial campaign: 1 error cell(s)"), std::string::npos);
  EXPECT_NE(result.err.find("injected fault"), std::string::npos);
  // The healthy cells still reported their rows.
  EXPECT_NE(result.out.find("mean_kpa_percent"), std::string::npos);
}

TEST(CliEvalCampaignTest, FewerTrainingRowsThanFoldsIsAnErrorCell) {
  // One relock round of alu8 yields 17 training rows, fewer than 1000
  // folds: the cell fails with the row/fold counts instead of reporting an
  // accuracy no fold measured.
  const auto result = runCli({"eval", kAlu8, "--algos=serial", "--seeds=1", "--samples=1",
                              "--rounds=1", "--folds=1000", "--no-wall", "--retries=0"});
  EXPECT_EQ(result.exitCode, cli::kExitPartial);
  EXPECT_NE(result.err.find("partial campaign: 1 error cell(s)"), std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("for 1000 folds"), std::string::npos) << result.err;
}

TEST(CliEvalCampaignTest, InjectedHangExitsPartialAsTimeout) {
  const ScopedFaultEnv fault{"cell:0:hang"};
  const auto result = runCli(evalArgs({"--deadline-ms=100"}));
  EXPECT_EQ(result.exitCode, cli::kExitPartial);
  // The hung cell must time out; on a loaded machine other cells can blow
  // the 100ms deadline too, so the exact count is not asserted.
  EXPECT_NE(result.err.find("timeout cell(s)"), std::string::npos);
}

TEST(CliEvalCampaignTest, ShutdownRequestExitsInterrupted) {
  campaign::requestShutdown();  // simulate SIGINT arriving before the grid
  const auto result = runCli(evalArgs({}));
  EXPECT_EQ(result.exitCode, cli::kExitInterrupted);
  EXPECT_NE(result.err.find("interrupted"), std::string::npos);
  // The campaign consumed the drain request on the way out.
  EXPECT_FALSE(campaign::shutdownRequested());
}

TEST(CliEvalCampaignTest, JournalResumeAfterFaultMatchesCleanRun) {
  const std::string journal = freshPath("resume.jsonl");
  const std::string cleanReport = freshPath("clean.json");
  const std::string resumedReport = freshPath("resumed.json");

  const auto clean = runCli(evalArgs({"--report=" + cleanReport}));
  ASSERT_EQ(clean.exitCode, cli::kExitOk);

  {
    const ScopedFaultEnv fault{"cell:2:throw"};
    const auto broken = runCli(evalArgs({"--journal=" + journal, "--retries=0"}));
    ASSERT_EQ(broken.exitCode, cli::kExitPartial);
  }
  // Resume re-runs the error cell (fault cleared) and merges the rest from
  // the journal; table and report must be byte-identical to the clean run.
  const auto resumed =
      runCli(evalArgs({"--journal=" + journal, "--report=" + resumedReport}));
  EXPECT_EQ(resumed.exitCode, cli::kExitOk);
  EXPECT_NE(resumed.err.find("(3 from journal)"), std::string::npos);
  EXPECT_EQ(resumed.out, clean.out);
  EXPECT_EQ(slurp(resumedReport), slurp(cleanReport));
}

TEST(CliEvalCampaignTest, KeepErrorsPreservesJournaledFailures) {
  const std::string journal = freshPath("keep.jsonl");
  {
    const ScopedFaultEnv fault{"cell:0:throw"};
    ASSERT_EQ(runCli(evalArgs({"--journal=" + journal, "--retries=0"})).exitCode,
              cli::kExitPartial);
  }
  // Fault gone, but --keep-errors must trust the journal over recomputing.
  const auto kept = runCli(evalArgs({"--journal=" + journal, "--keep-errors"}));
  EXPECT_EQ(kept.exitCode, cli::kExitPartial);
  EXPECT_NE(kept.err.find("[journaled]"), std::string::npos);
  // Default resume re-runs it and the campaign completes.
  const auto rerun = runCli(evalArgs({"--journal=" + journal}));
  EXPECT_EQ(rerun.exitCode, cli::kExitOk);
}

TEST(CliEvalCampaignTest, CheckRecomputesJournaledCells) {
  const std::string journal = freshPath("check.jsonl");
  ASSERT_EQ(runCli(evalArgs({"--journal=" + journal})).exitCode, cli::kExitOk);
  const auto checked =
      runCli(evalArgs({"--journal=" + journal, "--check", "--check-cells=2"}));
  EXPECT_EQ(checked.exitCode, cli::kExitOk);
  EXPECT_NE(checked.err.find("check: 2 cell(s) recomputed, all byte-identical"),
            std::string::npos);
}

TEST(CliEvalCampaignTest, MismatchedJournalIdentityIsRuntimeError) {
  const std::string journal = freshPath("identity.jsonl");
  ASSERT_EQ(runCli(evalArgs({"--journal=" + journal})).exitCode, cli::kExitOk);
  // Same journal, different config (rounds): the identity hash differs and
  // the resume must refuse instead of merging unrelated rows.
  const auto clash = runCli({"eval", kAlu8, "--algos=serial,hra", "--seeds=1,2", "--samples=1",
                             "--rounds=25", "--no-wall", "--journal=" + journal});
  EXPECT_EQ(clash.exitCode, cli::kExitError);
  EXPECT_NE(clash.err.find("different campaign"), std::string::npos);
}

TEST(CliEvalCampaignTest, NewFlagUsageErrors) {
  EXPECT_EQ(runCli(evalArgs({"--check"})).exitCode, cli::kExitUsage);  // no --journal
  EXPECT_EQ(runCli(evalArgs({"--retries=-1"})).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli(evalArgs({"--deadline-ms=-5"})).exitCode, cli::kExitUsage);
  const ScopedFaultEnv fault{"cell:0:explode"};
  const auto badFault = runCli(evalArgs({}));
  EXPECT_EQ(badFault.exitCode, cli::kExitUsage);
  EXPECT_NE(badFault.err.find("RTLOCK_FAULT_INJECT"), std::string::npos);
}

}  // namespace
}  // namespace rtlock
