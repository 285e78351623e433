// Cells and their locked samples share one pool of --threads workers.  The
// reports must not notice: `rtlock eval` and `rtlock work` stdout is
// byte-identical at every thread count on uneven grids (one cell whose ten
// samples are the only parallelism, and nine mixed-algorithm cells that
// leave a tail), and a shutdown drain that lands while samples are in
// flight journals only whole cells, which resume to the clean run.
#include "cli_test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/runner.hpp"

namespace rtlock {
namespace {

namespace fs = std::filesystem;
using testutil::runCli;

const std::string kAlu8 = std::string{RTLOCK_EXAMPLES_DIR} + "/external/alu8.v";

struct Grid {
  const char* name;
  const char* flags;
};

constexpr Grid kUnevenGrids[] = {
    {"one_cell", "--algos=hra --seeds=3 --samples=10 --rounds=20 --verify-functional"},
    {"nine_cells", "--algos=serial,hra,era --seeds=1,2,3 --samples=4 --rounds=20"},
};

/// `rtlock <command> <input>` followed by the space-separated `flags`.
std::vector<std::string> cliArgs(const std::string& command, const std::string& input,
                                 const std::string& flags) {
  std::vector<std::string> args{command, input};
  std::istringstream words{flags};
  for (std::string word; words >> word;) args.push_back(word);
  return args;
}

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "shared_pool_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(SharedPoolTest, EvalAndWorkStdoutIsByteIdenticalAtEveryThreadCount) {
  for (const Grid& grid : kUnevenGrids) {
    const std::string flags = std::string{grid.flags} + " --no-wall";
    const testutil::CliResult reference = runCli(cliArgs("eval", kAlu8, flags + " --threads=1"));
    ASSERT_EQ(reference.exitCode, cli::kExitOk) << grid.name << ": " << reference.err;
    ASSERT_NE(reference.out.find("mean_kpa_percent"), std::string::npos);
    for (const int threads : {1, 2, 4, 0}) {
      const std::string tag = std::string{grid.name} + " threads=" + std::to_string(threads);
      const std::string threaded = flags + " --threads=" + std::to_string(threads);
      if (threads != 1) {
        const testutil::CliResult evaluated = runCli(cliArgs("eval", kAlu8, threaded));
        ASSERT_EQ(evaluated.exitCode, cli::kExitOk) << tag;
        EXPECT_EQ(evaluated.out, reference.out) << tag;
      }
      const std::string manifest =
          freshDir(std::string{grid.name} + "_t" + std::to_string(threads)) + "/grid.manifest";
      const testutil::CliResult worked =
          runCli(cliArgs("work", kAlu8, threaded + " --manifest=" + manifest));
      ASSERT_EQ(worked.exitCode, cli::kExitOk) << tag << ": " << worked.err;
      EXPECT_EQ(worked.out, reference.out) << tag;
    }
  }
}

/// Ok rows of a journal by cell key, as their payload bytes.
std::map<std::string, std::string> journaledPayloads(const std::string& path) {
  std::map<std::string, std::string> payloads;
  for (const campaign::JournalRow& row : campaign::readJournalFile(path).rows) {
    EXPECT_TRUE(row.ok()) << row.id.key() << ": " << row.errorWhat;
    payloads[row.id.key()] = row.payload.dumpLine();
  }
  return payloads;
}

TEST(SharedPoolTest, DrainWhileSamplesAreInFlightJournalsOnlyWholeCells) {
  const std::string dir = freshDir("drain");
  const std::string flags =
      "--algos=serial,hra,era --seeds=1,2,3 --samples=10 --rounds=20 --no-wall";
  const std::string cleanJournal = dir + "/clean.jsonl";
  const testutil::CliResult clean =
      runCli(cliArgs("eval", kAlu8, flags + " --threads=1 --journal=" + cleanJournal));
  ASSERT_EQ(clean.exitCode, cli::kExitOk) << clean.err;
  const std::map<std::string, std::string> serial = journaledPayloads(cleanJournal);
  ASSERT_EQ(serial.size(), 9u);

  // Request the drain as soon as the first cell is journaled: the other
  // workers are then in the middle of their cells' samples, and idle
  // workers may be running samples of cells they did not start.
  const std::string journal = dir + "/drained.jsonl";
  std::atomic<bool> finished{false};
  const auto drainAfterFirstRow = [&] {
    while (!finished.load()) {
      const std::string text = testutil::slurp(journal);
      if (std::count(text.begin(), text.end(), '\n') >= 2) {  // the header and one row
        campaign::requestShutdown();
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  std::thread trigger{drainAfterFirstRow};
  const testutil::CliResult drained =
      runCli(cliArgs("eval", kAlu8, flags + " --threads=4 --journal=" + journal));
  finished.store(true);
  trigger.join();
  campaign::clearShutdownRequest();
  ASSERT_TRUE(drained.exitCode == cli::kExitInterrupted || drained.exitCode == cli::kExitOk)
      << drained.exitCode << ": " << drained.err;

  // Every journaled payload is a whole cell: byte-identical to the serial run.
  const std::map<std::string, std::string> partial = journaledPayloads(journal);
  ASSERT_FALSE(partial.empty());
  for (const auto& [key, payload] : partial) {
    ASSERT_EQ(serial.count(key), 1u) << key;
    EXPECT_EQ(payload, serial.at(key)) << key;
  }

  const testutil::CliResult resumed =
      runCli(cliArgs("eval", kAlu8, flags + " --threads=4 --journal=" + journal));
  ASSERT_EQ(resumed.exitCode, cli::kExitOk) << resumed.err;
  EXPECT_EQ(resumed.out, clean.out);
  EXPECT_EQ(journaledPayloads(journal), serial);
}

}  // namespace
}  // namespace rtlock
