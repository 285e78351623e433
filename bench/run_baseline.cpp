// Baseline runner: one binary that re-runs the headline figure reproductions
// (Fig. 4/5/6) with fixed seeds and emits a machine-readable
// BENCH_baseline.json.  Its quality rows are the repo's quality gate; its
// three `perf` rows time the quick fig6 grid and the journal and manifest
// overhead of that grid, which CI's overhead gates compare.  Everything else
// about speed is measured by perfbench/ (medians, spreads, machine line).
//
// Flags:
//   --seed=N    master seed (default 1; every section derives fixed offsets)
//   --json      write BENCH_baseline.json (see --out) in addition to stdout
//   --out=PATH  JSON output path (default BENCH_baseline.json)
//   --full      paper-sized fig6 configuration (slow); default is a quick,
//               fixed-seed configuration sized for CI
//   --threads=N experiment-engine workers (default: RTLOCK_THREADS env, else
//               hardware concurrency).  Quality rows are bit-identical at
//               every thread count; only wall times vary.
//   --check=PATH quality gate: compare every non-perf row of this run against
//               the committed baseline JSON at PATH and fail on any drift
//               (CI and the `bench_run_baseline_check` CTest entry run this
//               against the repo-root BENCH_baseline.json).
//
// JSON schema: {"schema": "...", "seed": N, "rows": [{bench, config, metric,
// value, wall_ms}, ...]}.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/pipeline.hpp"
#include "campaign/journal.hpp"
#include "campaign/manifest.hpp"
#include "common.hpp"
#include "fig4_scenarios.hpp"
#include "core/algorithms.hpp"
#include "designs/networks.hpp"
#include "designs/registry.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace {

using namespace rtlock;
using Clock = std::chrono::steady_clock;

struct Row {
  std::string bench;
  std::string config;
  std::string metric;
  double value = 0.0;
  double wallMs = 0.0;
};

double elapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// A fresh directory under the system temp dir, removed with its contents
/// on destruction.  The overhead rows write their journal, manifest and
/// claim files here, so concurrent runs never touch each other's files.
class ScratchDir {
 public:
  ScratchDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "rtlock_baseline_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw support::Error{"cannot create a temp directory from " + pattern};
    }
    dir_ = pattern;
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  [[nodiscard]] std::string path(const std::string& name) const { return (dir_ / name).string(); }

 private:
  std::filesystem::path dir_;
};

// --- Fig. 4: worst key-correlated locality bias per relocking scenario -----
//
// Shares the observation loop with bench/fig4_observations.cpp via
// fig4_scenarios.hpp, reduced to the headline number per scenario.  The
// scenarios have always owned dedicated seeds (seed + offset), so sharding
// them keeps every bias value bit-identical; wall time is measured inside
// each task.

void runFig4(std::vector<Row>& rows, std::uint64_t seed, int threads) {
  constexpr int kNetworkSize = 64;
  constexpr int kTestBits = 32;
  constexpr int kRounds = 100;
  const std::vector<std::pair<const char*, bench::Fig4Scenario>> cells{
      {"serial+serial", bench::Fig4Scenario::SerialSerial},
      {"random+random", bench::Fig4Scenario::RandomRandom},
      {"serial+disjoint", bench::Fig4Scenario::SerialDisjoint}};
  support::TaskPool pool{support::threadsForTasks(threads, cells.size())};
  const auto results = pool.map(cells.size(), [&](std::size_t index) {
    const auto start = Clock::now();
    support::Rng rng{seed + index};
    const double bias = bench::fig4WorstBias(
        bench::observeFig4(cells[index].second, kNetworkSize, kTestBits, kRounds, rng));
    return std::pair<double, double>{bias, elapsedMs(start)};
  });
  for (std::size_t index = 0; index < cells.size(); ++index) {
    rows.push_back({"fig4", cells[index].first, "worst_locality_bias", results[index].first,
                    results[index].second});
  }
}

// --- Fig. 5: key-bit cost and final metric per algorithm -------------------

void runFig5(std::vector<Row>& rows, std::uint64_t seed, int threads) {
  constexpr int kBudget = 60;
  const std::vector<lock::Algorithm> algorithms{
      lock::Algorithm::Era, lock::Algorithm::Hra, lock::Algorithm::Greedy};
  struct Cell {
    lock::AlgorithmReport report;
    double wallMs = 0.0;
  };
  // Every cell restarts from rng{seed}, exactly as the serial loop did.
  support::TaskPool pool{support::threadsForTasks(threads, algorithms.size())};
  const auto cells = pool.map(algorithms.size(), [&](std::size_t index) {
    const auto start = Clock::now();
    rtl::Module design = designs::makeOperationNetwork(
        "fig5", {{rtl::OpKind::Add, 25}, {rtl::OpKind::Shl, 10}});
    lock::LockEngine engine{design, lock::PairTable::fixed()};
    support::Rng rng{seed};
    Cell cell;
    cell.report = lock::lockWithAlgorithm(engine, algorithms[index], kBudget, rng);
    cell.wallMs = elapsedMs(start);
    return cell;
  });
  for (std::size_t index = 0; index < algorithms.size(); ++index) {
    const std::string name{lock::algorithmName(algorithms[index])};
    rows.push_back({"fig5", name, "bits_used",
                    static_cast<double>(cells[index].report.bitsUsed), cells[index].wallMs});
    rows.push_back(
        {"fig5", name, "final_global_metric", cells[index].report.finalGlobalMetric, 0.0});
  }
}

// --- Fig. 6: mean SnapShot-RTL KPA per algorithm ---------------------------
//
// One task per (algorithm, benchmark) cell; cell i draws only from
// substream(i) of the section root, so the grid is bit-identical at every
// thread count (the engine's seeding convention — see support/task_pool.hpp).
// Each cell fans its samples out on the same pool, as `rtlock eval` does.
// The whole grid is timed as one batch and recorded as the
// fig6_quick/wall_ms (or fig6_full/wall_ms) perf row that optimisation PRs
// track; per-algorithm quality rows carry no wall time of their own.

void runFig6(std::vector<Row>& rows, std::uint64_t seed, bool full, int threads) {
  attack::EvaluationConfig config;
  config.testLocks = full ? 10 : 1;
  config.keyBudgetFraction = 0.75;
  config.snapshot.relockRounds = full ? 1000 : 30;
  config.snapshot.relockBudgetFraction = config.keyBudgetFraction;
  config.snapshot.automl.folds = 3;

  const std::vector<std::string> benchmarks =
      full ? designs::benchmarkNames() : std::vector<std::string>{"FIR", "SASC"};
  const std::vector<lock::Algorithm> algorithms{
      lock::Algorithm::AssureSerial, lock::Algorithm::Hra, lock::Algorithm::Era};
  const std::string benchConfig =
      support::join(benchmarks, "+") + (full ? " (paper-sized)" : " (quick)");

  // Build each benchmark once; tasks clone from the shared const module.
  std::vector<rtl::Module> originals;
  originals.reserve(benchmarks.size());
  for (const auto& name : benchmarks) originals.push_back(designs::makeBenchmark(name));

  const support::Rng root{seed + 100};
  // Construct the pool outside the timed region: the fig6 wall row tracks
  // grid execution, not worker spawn/join overhead.
  support::TaskPool pool{threads};
  const auto start = Clock::now();
  const auto cells = pool.map(
      algorithms.size() * benchmarks.size(), [&](std::size_t index) {
        const lock::Algorithm algorithm = algorithms[index / benchmarks.size()];
        const std::size_t b = index % benchmarks.size();
        support::Rng cellRng = root.substream(index);
        return attack::evaluateBenchmark(originals[b], benchmarks[b], algorithm,
                                         lock::PairTable::fixed(), config, cellRng, pool)
            .meanKpa;
      });
  const double gridWallMs = elapsedMs(start);

  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    double sum = 0.0;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) sum += cells[a * benchmarks.size() + b];
    rows.push_back({"fig6", std::string{lock::algorithmName(algorithms[a])} + " / " + benchConfig,
                    "mean_kpa_percent", sum / static_cast<double>(benchmarks.size()), 0.0});
  }
  rows.push_back({"perf", full ? "fig6_full" : "fig6_quick", "wall_ms", gridWallMs, gridWallMs});

  // Journal overhead: append one representative checkpoint row per grid
  // cell to a real journal (serialize + single write + flush, the campaign
  // engine's per-cell cost) and record the total.  Compare against the
  // wall_ms row above to verify journaling stays <5% of campaign wall.
  const ScratchDir scratch;
  const std::string journalPath = scratch.path("journal.jsonl");
  {
    campaign::CampaignIdentity identity;
    identity.designHash = support::fnv1a64Hex(benchConfig);
    identity.configHash = support::fnv1a64Hex(benchConfig + "/config");
    identity.design = "fig6";
    identity.config = benchConfig;
    campaign::Journal journal{journalPath, identity};
    const auto journalStart = Clock::now();
    for (std::size_t index = 0; index < cells.size(); ++index) {
      campaign::JournalRow row;
      row.id = {identity.designHash, "algo", index, identity.configHash};
      row.status = "ok";
      row.attempts = 1;
      row.wallMs = gridWallMs / static_cast<double>(cells.size());
      row.payload.set("mean_kpa_percent", cells[index]);
      row.payload.set("min_kpa_percent", cells[index]);
      row.payload.set("max_kpa_percent", cells[index]);
      row.payload.set("mean_key_bits", 48.0);
      row.payload.set("mean_global_metric", 29.289321881345245);
      row.payload.set("mean_restricted_metric", 100.0);
      journal.append(row);
    }
    const double journalWallMs = elapsedMs(journalStart);
    rows.push_back({"perf", full ? "fig6_full" : "fig6_quick", "journal_overhead_ms",
                    journalWallMs, journalWallMs});
  }

  // Manifest/claim overhead: the multi-host coordination cost per grid cell
  // (manifest write + O_CREAT|O_EXCL claim + atomic done marker — what
  // `rtlock work` adds on top of journaling).  Compare against the wall_ms
  // row above to verify coordination stays <5% of campaign wall.
  const std::string manifestPath = scratch.path("campaign.manifest");
  {
    campaign::Manifest manifest;
    manifest.identity.designHash = support::fnv1a64Hex(benchConfig);
    manifest.identity.configHash = support::fnv1a64Hex(benchConfig + "/config");
    manifest.identity.design = "fig6";
    manifest.identity.config = benchConfig;
    manifest.setup = benchConfig;
    for (std::size_t index = 0; index < cells.size(); ++index) {
      campaign::Cell cell;
      cell.id = {manifest.identity.designHash, "algo", index, manifest.identity.configHash};
      cell.label = "algo / cell " + std::to_string(index);
      manifest.cells.push_back(cell);
    }
    const auto manifestStart = Clock::now();
    campaign::writeManifest(manifestPath, manifest);
    campaign::ClaimBoard board{manifestPath, "bench-worker", 60000.0};
    for (std::size_t index = 0; index < cells.size(); ++index) {
      (void)board.tryClaim(index);
      board.markDone(index, "ok");
    }
    const double manifestWallMs = elapsedMs(manifestStart);
    rows.push_back({"perf", full ? "fig6_full" : "fig6_quick", "manifest_overhead_ms",
                    manifestWallMs, manifestWallMs});
  }
}

// --- output ----------------------------------------------------------------
//
// String escaping comes from support::jsonEscape — the one implementation
// behind the CLI reports and this baseline, so the documents can never drift
// in how they encode strings.
using support::jsonEscape;

// --- quality gate -----------------------------------------------------------
//
// --check=PATH re-reads a committed baseline JSON and compares every
// non-`perf` row (the seed-deterministic quality values) against this run.
// Quality rows are bit-identical across thread counts and machines, so any
// drift is a real behaviour change — the CI job fails on it.  Values are
// compared as writeJson prints them (4 decimals).

std::string qualityKey(const std::string& bench, const std::string& config,
                       const std::string& metric) {
  return bench + " | " + config + " | " + metric;
}

/// The committed quality rows of the baseline at `path`, keyed by
/// qualityKey and formatted like writeJson.
std::map<std::string, std::string> committedQualityValues(const std::string& path) {
  std::ifstream file{path};
  if (!file) throw support::Error("cannot open committed baseline " + path);
  std::ostringstream text;
  text << file.rdbuf();
  const support::JsonValue document = support::parseJson(text.str());
  const support::JsonArray& rows = document.at("rows").asArray();
  if (rows.empty()) throw support::Error("no rows found in committed baseline " + path);
  std::map<std::string, std::string> values;
  for (const support::JsonValue& row : rows) {
    const std::string& bench = row.at("bench").asString();
    if (bench == "perf") continue;  // timings are machine-dependent
    values[qualityKey(bench, row.at("config").asString(), row.at("metric").asString())] =
        support::formatDouble(row.at("value").asDouble(), 4);
  }
  return values;
}

/// Returns the number of drifting/missing quality rows (0 = gate passes).
int checkAgainstBaseline(const std::vector<Row>& rows, const std::string& path) {
  const std::map<std::string, std::string> committedValues = committedQualityValues(path);

  int failures = 0;
  std::map<std::string, std::string> currentValues;
  for (const Row& row : rows) {
    if (row.bench == "perf") continue;
    currentValues[qualityKey(row.bench, row.config, row.metric)] =
        support::formatDouble(row.value, 4);
  }
  for (const auto& [key, value] : committedValues) {
    const auto it = currentValues.find(key);
    if (it == currentValues.end()) {
      std::cout << "quality gate: row disappeared: " << key << "\n";
      ++failures;
    } else if (it->second != value) {
      std::cout << "quality gate: DRIFT in " << key << ": committed " << value << ", got "
                << it->second << "\n";
      ++failures;
    }
  }
  for (const auto& [key, value] : currentValues) {
    if (committedValues.find(key) == committedValues.end()) {
      std::cout << "quality gate: new uncommitted quality row: " << key << " = " << value
                << " (regenerate the baseline)\n";
      ++failures;
    }
  }
  if (failures == 0) {
    std::cout << "quality gate: all " << committedValues.size()
              << " quality rows match the committed baseline\n";
  }
  return failures;
}

void writeJson(std::ostream& out, const std::vector<Row>& rows, std::uint64_t seed) {
  out << "{\n  \"schema\": \"rtlock-bench-baseline/v1\",\n  \"seed\": " << seed
      << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"bench\": \"" << jsonEscape(row.bench) << "\", \"config\": \""
        << jsonEscape(row.config) << "\", \"metric\": \"" << jsonEscape(row.metric)
        << "\", \"value\": " << support::formatDouble(row.value, 4)
        << ", \"wall_ms\": " << support::formatDouble(row.wallMs, 2) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  return rtlock::bench::runBench([&] {
    const support::CliArgs args(argc, argv,
                                {"seed", "json", "out", "full", "csv", "threads", "check"});
    const std::uint64_t seed = args.getU64("seed", 1);
    const bool json = args.getBool("json", false);
    const bool full = args.getBool("full", false);
    const bool csv = args.getBool("csv", false);
    const int threads = support::requestedThreads(args);
    const std::string outPath = args.get("out", "BENCH_baseline.json");
    const std::string checkPath = args.get("check", "");

    rtlock::bench::banner("baseline runner — quality gate",
                          "Fig. 4/5/6 headline numbers, fixed seeds",
                          "deterministic values per (seed, config); timings machine-dependent");

    std::vector<Row> rows;
    const auto start = Clock::now();
    runFig4(rows, seed, threads);
    runFig5(rows, seed, threads);
    runFig6(rows, seed, full, threads);

    support::Table table{{"bench", "config", "metric", "value", "wall_ms"}};
    for (const Row& row : rows) {
      table.addRow({row.bench, row.config, row.metric, support::formatDouble(row.value, 4),
                    support::formatDouble(row.wallMs, 2)});
    }
    rtlock::bench::emit(table, csv);
    std::cout << "\n" << rows.size() << " metric rows in "
              << support::formatDouble(elapsedMs(start), 0) << " ms\n";

    if (json) {
      std::ofstream file{outPath};
      if (!file) throw support::Error("cannot open " + outPath + " for writing");
      writeJson(file, rows, seed);
      std::cout << "wrote " << outPath << "\n";
    }

    if (!checkPath.empty() && checkAgainstBaseline(rows, checkPath) != 0) {
      throw support::Error("quality gate failed against " + checkPath);
    }
  });
}
