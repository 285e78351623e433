// `rtlock lint` end to end: text/JSON/report artifacts, the artificially
// dead key bit acceptance case, and exit-code mapping.
#include <gtest/gtest.h>

#include <fstream>

#include "cli_test_util.hpp"
#include "support/json.hpp"

namespace rtlock::cli {
namespace {

using testutil::runCli;
using testutil::slurp;

/// A locked netlist whose key bit 1 drives a wire nothing reads: statically
/// dead, so lint must prove it free.  Bit 0 guards the output path.
constexpr const char* kDeadBitNetlist = R"(
module deadbit (input [7:0] a, input [7:0] b, input [1:0] lock_key,
                output [7:0] y);
  wire [7:0] dead;
  assign y = lock_key[0] ? (a + b) : (a - b);
  assign dead = lock_key[1] ? (a ^ b) : (a & b);
endmodule
)";

[[nodiscard]] std::string writeNetlist(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out{path};
  out << text;
  return path;
}

TEST(LintCommandTest, ReportsArtificiallyDeadKeyBit) {
  const std::string path = writeNetlist("lint_deadbit.v", kDeadBitNetlist);
  const auto result = runCli({"lint", path, "--no-wall"});
  EXPECT_EQ(result.exitCode, 0);
  EXPECT_NE(result.out.find("L201"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("key bit 1"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("free_key_bits"), std::string::npos);
}

TEST(LintCommandTest, JsonReportFollowsRowSchema) {
  const std::string path = writeNetlist("lint_deadbit_json.v", kDeadBitNetlist);
  const std::string reportPath = ::testing::TempDir() + "lint_report.json";
  const auto result = runCli({"lint", path, "--json", "--no-wall", "--report=" + reportPath});
  ASSERT_EQ(result.exitCode, 0);

  // stdout --json document and the --report file carry the same schema.
  for (const std::string& text : {result.out, slurp(reportPath)}) {
    const support::JsonValue document = support::parseJson(text);
    EXPECT_EQ(document.at("schema").asString(), "rtlock-lint-report/v1");
    double freeBits = -1.0;
    for (const auto& row : document.at("rows").asArray()) {
      EXPECT_TRUE(row.find("bench") != nullptr);
      EXPECT_TRUE(row.find("config") != nullptr);
      EXPECT_TRUE(row.find("metric") != nullptr);
      EXPECT_TRUE(row.find("value") != nullptr);
      EXPECT_TRUE(row.find("wall_ms") != nullptr);
      if (row.at("metric").asString() == "free_key_bits") {
        freeBits = row.at("value").asDouble();
      }
    }
    EXPECT_EQ(freeBits, 1.0);
    bool sawL201 = false;
    for (const auto& finding : document.at("findings").asArray()) {
      if (finding.at("code").asString() == "L201") sawL201 = true;
    }
    EXPECT_TRUE(sawL201);
  }
}

TEST(LintCommandTest, RowsRenderableByReportCommand) {
  const std::string path = writeNetlist("lint_deadbit_rows.v", kDeadBitNetlist);
  const std::string reportPath = ::testing::TempDir() + "lint_rows.json";
  ASSERT_EQ(runCli({"lint", path, "--no-wall", "--report=" + reportPath}).exitCode, 0);
  const auto rendered = runCli({"report", reportPath, "--metric=free_key_bits"});
  EXPECT_EQ(rendered.exitCode, 0);
  EXPECT_NE(rendered.out.find("free_key_bits"), std::string::npos) << rendered.out;
}

TEST(LintCommandTest, CleanLockChainReportsNoRemovableMuxes) {
  // designs -> lock -> lint: the shipped locking pipeline must never produce
  // statically removable key logic.
  const std::string designPath = ::testing::TempDir() + "lint_sasc.v";
  {
    const auto emitted = runCli({"designs", "--emit=SASC"});
    ASSERT_EQ(emitted.exitCode, 0);
    std::ofstream out{designPath};
    out << emitted.out;
  }
  const std::string lockedPath = ::testing::TempDir() + "lint_sasc.locked.v";
  const std::string keyPath = ::testing::TempDir() + "lint_sasc.key.json";
  ASSERT_EQ(runCli({"lock", designPath, "--algo=era", "--budget=50%", "--seed=7",
                    "--out=" + lockedPath, "--key-out=" + keyPath})
                .exitCode,
            0);
  const auto result = runCli({"lint", lockedPath, "--csv", "--no-wall"});
  ASSERT_EQ(result.exitCode, 0);
  EXPECT_NE(result.out.find("constant_select_muxes,0"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("identical_arm_muxes,0"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("verifier_errors,0"), std::string::npos) << result.out;
}

TEST(LintCommandTest, StructurallyBrokenInputFailsAtParse) {
  // The always-on front-end verifier rejects a combinational loop before the
  // lint pass ever runs: runtime error (exit 1), message naming V111.
  const std::string path = writeNetlist("lint_loop.v", R"(
    module loop (input [3:0] a, output [3:0] y);
      wire [3:0] u, v;
      assign u = v + a;
      assign v = u + 4'd1;
      assign y = v;
    endmodule
  )");
  const auto result = runCli({"lint", path});
  EXPECT_EQ(result.exitCode, 1);
  EXPECT_NE(result.err.find("V111"), std::string::npos) << result.err;
}

TEST(LintCommandTest, ModuleFlagPicksOneModuleAndNamesTheCandidatesOnAMiss) {
  const std::string path = writeNetlist("lint_two_modules.v", std::string{kDeadBitNetlist} + R"(
module other (input [7:0] a, output [7:0] y);
  assign y = a + 8'd1;
endmodule
)");
  const auto picked = runCli({"lint", path, "--module=other", "--csv", "--no-wall"});
  ASSERT_EQ(picked.exitCode, 0) << picked.err;
  EXPECT_NE(picked.out.find("other,lint,key_width,0"), std::string::npos) << picked.out;
  EXPECT_EQ(picked.out.find("deadbit"), std::string::npos) << picked.out;

  const auto missing = runCli({"lint", path, "--module=nope"});
  EXPECT_EQ(missing.exitCode, 1);
  EXPECT_NE(missing.err.find("no module named \"nope\" (design has: deadbit, other)"),
            std::string::npos)
      << missing.err;
}

TEST(LintCommandTest, UnknownFlagFailsUsage) {
  const auto result = runCli({"lint", "whatever.v", "--bogus"});
  EXPECT_EQ(result.exitCode, 2);
  EXPECT_NE(result.err.find("usage: rtlock lint"), std::string::npos);
}

}  // namespace
}  // namespace rtlock::cli
