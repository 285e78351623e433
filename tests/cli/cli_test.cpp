// CLI dispatch, help and exit-code contract.
//
// Exit codes are load-bearing (scripts branch on them): 0 = success,
// 1 = runtime failure (bad file, parse error), 2 = usage error (unknown
// subcommand/flag, malformed flag value).  These suites pin the mapping.
#include "cli_test_util.hpp"

#include <gtest/gtest.h>

namespace rtlock {
namespace {

using testutil::runCli;

TEST(CliDispatchTest, NoArgumentsPrintsHelpAndFailsUsage) {
  const auto result = runCli({});
  EXPECT_EQ(result.exitCode, cli::kExitUsage);
  EXPECT_NE(result.out.find("usage: rtlock"), std::string::npos);
}

TEST(CliDispatchTest, HelpFlagSucceeds) {
  const auto result = runCli({"--help"});
  EXPECT_EQ(result.exitCode, cli::kExitOk);
  EXPECT_NE(result.out.find("lock"), std::string::npos);
  EXPECT_NE(result.out.find("attack"), std::string::npos);
}

TEST(CliDispatchTest, VersionFlagSucceeds) {
  const auto result = runCli({"--version"});
  EXPECT_EQ(result.exitCode, cli::kExitOk);
  EXPECT_NE(result.out.find("rtlock "), std::string::npos);
}

TEST(CliDispatchTest, PerCommandHelpPrintsUsage) {
  for (const std::string name : {"lock", "attack", "eval", "report", "designs"}) {
    const auto viaHelp = runCli({"help", name});
    EXPECT_EQ(viaHelp.exitCode, cli::kExitOk) << name;
    EXPECT_NE(viaHelp.out.find("usage: rtlock " + name), std::string::npos) << name;
    const auto viaFlag = runCli({name, "--help"});
    EXPECT_EQ(viaFlag.exitCode, cli::kExitOk) << name;
    EXPECT_EQ(viaFlag.out, viaHelp.out) << name;
  }
}

TEST(CliDispatchTest, UnknownCommandFailsUsage) {
  const auto result = runCli({"frobnicate"});
  EXPECT_EQ(result.exitCode, cli::kExitUsage);
  EXPECT_NE(result.err.find("unknown command 'frobnicate'"), std::string::npos);
}

TEST(CliDispatchTest, UnknownFlagFailsUsage) {
  const auto result = runCli({"lock", "in.v", "--no-such-flag"});
  EXPECT_EQ(result.exitCode, cli::kExitUsage);
  EXPECT_NE(result.err.find("--no-such-flag"), std::string::npos);
  EXPECT_NE(result.err.find("usage: rtlock lock"), std::string::npos);
}

TEST(CliDispatchTest, MissingPositionalFailsUsage) {
  EXPECT_EQ(runCli({"lock"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"attack"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"eval"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"report"}).exitCode, cli::kExitUsage);
}

TEST(CliDispatchTest, MalformedFlagValuesFailUsage) {
  EXPECT_EQ(runCli({"lock", "in.v", "--algo=superduper"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"lock", "in.v", "--budget=twelve"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"lock", "in.v", "--budget=140%"}).exitCode, cli::kExitUsage);
  // Trailing junk must fail loudly, never silently reinterpret the spec.
  EXPECT_EQ(runCli({"lock", "in.v", "--budget=1e2"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"lock", "in.v", "--budget=50%x"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"attack", "in.v", "--repeats=0"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"attack", "in.v", "--folds=1"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"eval", "in.v", "--folds=1"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"eval", "in.v", "--seeds=bogus"}).exitCode, cli::kExitUsage);
}

TEST(CliDispatchTest, RemovedSimBackendFlagIsUnknown) {
  // The harness has one (bit-sliced) path, so neither eval nor work takes a
  // simulator choice: --sim-backend is an unknown flag, a usage error.
  for (const std::string command : {"eval", "work"}) {
    const auto result = runCli({command, "in.v", "--sim-backend=compiled"});
    EXPECT_EQ(result.exitCode, cli::kExitUsage) << command;
    EXPECT_NE(result.err.find("--sim-backend"), std::string::npos)
        << command << ": " << result.err;
  }
}

TEST(CliDispatchTest, SeedsRejectTrailingJunkAndNegatives) {
  // Regression: stoull-based parsing accepted "--seeds 3x" as seed 3 and
  // wrapped "--seeds -1" to 2^64-1, silently running the wrong campaign.
  // Both must be usage errors (exit 2) naming the offending entry.
  const auto junk = runCli({"eval", "in.v", "--seeds", "3x"});
  EXPECT_EQ(junk.exitCode, cli::kExitUsage);
  EXPECT_NE(junk.err.find("'3x'"), std::string::npos);

  const auto negative = runCli({"eval", "in.v", "--seeds", "-1"});
  EXPECT_EQ(negative.exitCode, cli::kExitUsage);
  EXPECT_NE(negative.err.find("'-1'"), std::string::npos);

  // Same strictness inside lists and ranges.
  EXPECT_EQ(runCli({"eval", "in.v", "--seeds=1,2x,3"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"eval", "in.v", "--seeds=5..1x"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"eval", "in.v", "--seeds=9..1"}).exitCode, cli::kExitUsage);
}

TEST(CliDispatchTest, IntegerFlagsRejectMalformedValues) {
  EXPECT_EQ(runCli({"lock", "in.v", "--seed=1x"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"attack", "in.v", "--seed=-2"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"attack", "in.v", "--repeats=2x"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"eval", "in.v", "--samples=1x"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"eval", "in.v", "--samples=0"}).exitCode, cli::kExitUsage);
  EXPECT_EQ(runCli({"eval", "in.v", "--retries=-1"}).exitCode, cli::kExitUsage);
}

TEST(CliDispatchTest, MissingInputFileIsRuntimeError) {
  const auto result = runCli({"lock", "/nonexistent/input.v"});
  EXPECT_EQ(result.exitCode, cli::kExitError);
  EXPECT_NE(result.err.find("cannot open"), std::string::npos);
}

TEST(CliDispatchTest, MalformedVerilogIsRuntimeErrorWithLocation) {
  const std::string path = ::testing::TempDir() + "cli_malformed.v";
  {
    std::ofstream out{path};
    out << "module broken (a);\n  input a\nendmodule\n";  // missing ';'
  }
  const auto result = runCli({"lock", path});
  EXPECT_EQ(result.exitCode, cli::kExitError);
  EXPECT_NE(result.err.find("line"), std::string::npos);
}

TEST(CliDesignsTest, ListsAllRegistryDesigns) {
  const auto result = runCli({"designs"});
  ASSERT_EQ(result.exitCode, cli::kExitOk);
  for (const std::string name :
       {"DES3", "DFT", "FIR", "IDFT", "IIR", "MD5", "RSA", "SHA256", "SASC", "SIM_SPI", "USB_PHY",
        "I2C_SL", "N_2046", "N_1023"}) {
    EXPECT_NE(result.out.find(name), std::string::npos) << name;
  }
}

TEST(CliDesignsTest, EmitDumpsParseableVerilog) {
  const auto result = runCli({"designs", "--emit=FIR"});
  ASSERT_EQ(result.exitCode, cli::kExitOk);
  EXPECT_NE(result.out.find("module FIR"), std::string::npos);
  const auto unknown = runCli({"designs", "--emit=NOPE"});
  EXPECT_EQ(unknown.exitCode, cli::kExitError);
}

TEST(CliReportTest, RejectsNonReportJson) {
  const std::string path = ::testing::TempDir() + "cli_not_a_report.json";
  {
    std::ofstream out{path};
    out << "{\"hello\": 1}\n";
  }
  const auto result = runCli({"report", path});
  EXPECT_EQ(result.exitCode, cli::kExitError);
  EXPECT_NE(result.err.find("rows"), std::string::npos);
}

}  // namespace
}  // namespace rtlock
