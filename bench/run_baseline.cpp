// Baseline runner: one binary that re-runs the headline figure reproductions
// (Fig. 4/5/6) plus the hot-path microbenchmarks with fixed seeds and emits a
// machine-readable BENCH_baseline.json, so optimisation PRs have a recorded
// perf/quality trajectory to compare against.
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
//               (CI runs this against the repo-root BENCH_baseline.json).
//
// JSON schema: {"schema": "...", "seed": N, "rows": [{bench, config, metric,
// value, wall_ms}, ...]}.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/verifier.hpp"
#include "attack/locality.hpp"
#include "attack/pipeline.hpp"
#include "campaign/journal.hpp"
#include "campaign/manifest.hpp"
#include "common.hpp"
#include "fig4_scenarios.hpp"
#include "core/algorithms.hpp"
#include "core/metric.hpp"
#include "designs/networks.hpp"
#include "designs/registry.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "sim/compiled_sim.hpp"
#include "sim/evaluator.hpp"
#include "sim/harness.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "verilog/parser.hpp"
#include "verilog/writer.hpp"

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

/// Runs `body` and appends a row holding its result plus wall time.
template <typename Body>
void timedRow(std::vector<Row>& rows, std::string bench, std::string config, std::string metric,
              Body&& body) {
  const auto start = Clock::now();
  const double value = body();
  rows.push_back({std::move(bench), std::move(config), std::move(metric), value,
                  elapsedMs(start)});
}

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
  const std::string journalPath =
      (std::filesystem::temp_directory_path() / "rtlock_bench_journal.jsonl").string();
  std::filesystem::remove(journalPath);
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
  std::filesystem::remove(journalPath);

  // Manifest/claim overhead: the multi-host coordination cost per grid cell
  // (manifest write + O_CREAT|O_EXCL claim + atomic done marker — what
  // `rtlock work` adds on top of journaling).  Compare against the wall_ms
  // row above to verify coordination stays <5% of campaign wall.
  const std::string manifestPath =
      (std::filesystem::temp_directory_path() / "rtlock_bench_campaign.manifest").string();
  std::filesystem::remove(manifestPath);
  std::filesystem::remove_all(manifestPath + ".claims");
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
  std::filesystem::remove(manifestPath);
  std::filesystem::remove_all(manifestPath + ".claims");
}

// --- perf: chrono timings of the hot paths perf_microbench covers ----------

void runPerf(std::vector<Row>& rows, std::uint64_t seed) {
  {
    rtl::Module module = designs::makePlusNetwork(1024);
    lock::LockEngine engine{module, lock::PairTable::fixed()};
    support::Rng rng{seed};
    constexpr int kIterations = 2000;
    timedRow(rows, "perf", "plus_network_1024", "lock_undo_us_per_op", [&] {
      const auto start = Clock::now();
      for (int i = 0; i < kIterations; ++i) {
        const auto checkpoint = engine.checkpoint();
        (void)engine.lockRandomOp(rng);
        engine.undoTo(checkpoint);
      }
      return elapsedMs(start) * 1000.0 / kIterations;
    });
  }
  {
    rtl::Module module = designs::makePlusNetwork(1024);
    lock::LockEngine engine{module, lock::PairTable::fixed()};
    support::Rng rng{seed + 1};
    lock::assureRandomLock(engine, static_cast<int>(0.75 * engine.initialLockableOps()), rng);
    constexpr int kIterations = 50;
    timedRow(rows, "perf", "plus_network_1024 @75%", "extract_localities_ms", [&] {
      const auto start = Clock::now();
      for (int i = 0; i < kIterations; ++i) {
        if (attack::extractLocalities(module, {}).empty()) return -1.0;
      }
      return elapsedMs(start) / kIterations;
    });
  }
  {
    const rtl::Module module = designs::makeBenchmark("MD5");
    const std::string text = verilog::writeModule(module);
    constexpr int kIterations = 20;
    timedRow(rows, "perf", "MD5", "verilog_roundtrip_ms", [&] {
      const auto start = Clock::now();
      for (int i = 0; i < kIterations; ++i) {
        if (verilog::writeModule(verilog::parseModule(text)).empty()) return -1.0;
      }
      return elapsedMs(start) / kIterations;
    });
  }
  {
    const rtl::Module module = designs::makeBenchmark("SHA256");
    support::Rng rng{seed + 2};
    const auto blk = *module.findSignal("blk");
    const auto digest = *module.findSignal("digest");
    // Production backend: compiled bytecode tape (this is the headline
    // simulate_cycle_us row that optimisation PRs track).
    {
      sim::CompiledSim compiled{module};
      constexpr int kIterations = 2000;
      timedRow(rows, "perf", "SHA256", "simulate_cycle_us", [&] {
        const auto start = Clock::now();
        for (int i = 0; i < kIterations; ++i) {
          compiled.setValue(blk, sim::BitVector::random(32, rng));
          compiled.settle();
          (void)compiled.value(digest);
        }
        return elapsedMs(start) * 1000.0 / kIterations;
      });
    }
    // Reference interpreter, for the backend-vs-backend trajectory.
    {
      sim::Evaluator eval{module};
      constexpr int kIterations = 200;
      timedRow(rows, "perf", "SHA256 (interpreter)", "simulate_cycle_us", [&] {
        const auto start = Clock::now();
        for (int i = 0; i < kIterations; ++i) {
          eval.setValue(blk, sim::BitVector::random(32, rng));
          eval.settle();
          (void)eval.value(digest);
        }
        return elapsedMs(start) * 1000.0 / kIterations;
      });
    }
  }
  {
    // Corruption sweep: compile a locked SHA256 pair once, then measure
    // output corruption under many hypothesis keys (the oracle-guided
    // attack's hot loop shape).  outputCorruptionBatch packs the key x
    // vector measurements 64 per tape pass over one shared stimulus set.
    const rtl::Module original = designs::makeBenchmark("SHA256");
    rtl::Module locked = original.clone();
    lock::LockEngine engine{locked, lock::PairTable::fixed()};
    support::Rng lockRng{seed + 4};
    lock::assureRandomLock(engine, engine.initialLockableOps() / 2, lockRng);
    sim::EquivalenceOptions options;
    options.vectors = 4;
    options.cyclesPerVector = 4;
    constexpr int kKeys = 20;
    std::vector<sim::BitVector> keys;
    keys.reserve(kKeys);
    support::Rng rng{seed + 5};
    for (int i = 0; i < kKeys; ++i) {
      keys.push_back(sim::BitVector::random(locked.keyWidth(), rng));
    }
    constexpr int kIterations = 20;  // one batch is ~0.1 ms; amortise the timer
    sim::Harness harness{original, locked};
    timedRow(rows, "perf", "SHA256 locked@50%", "corruption_sweep_ms", [&] {
      const auto start = Clock::now();
      for (int i = 0; i < kIterations; ++i) {
        support::Rng stimulusRng{seed + 6};
        if (harness.outputCorruptionBatch(keys, options, stimulusRng).size() != kKeys) {
          return -1.0;
        }
      }
      return elapsedMs(start) / (kKeys * kIterations);
    });
  }
  {
    // Sliced-attack row: the same batched sweep shape on an ASSURE-locked
    // FIR at the paper's 75 % budget — the design/keyspace the oracle-guided
    // attack actually hammers.  More keys than SHA256's sweep so several
    // 64-lane chunks run per measurement.
    const rtl::Module original = designs::makeBenchmark("FIR");
    rtl::Module locked = original.clone();
    lock::LockEngine engine{locked, lock::PairTable::fixed()};
    support::Rng lockRng{seed + 7};
    lock::assureRandomLock(
        engine, static_cast<int>(0.75 * engine.initialLockableOps()), lockRng);
    sim::Harness harness{original, locked};
    sim::EquivalenceOptions options;
    options.vectors = 4;
    options.cyclesPerVector = 4;
    constexpr int kKeys = 64;
    std::vector<sim::BitVector> keys;
    keys.reserve(kKeys);
    support::Rng rng{seed + 11};
    for (int i = 0; i < kKeys; ++i) {
      keys.push_back(sim::BitVector::random(locked.keyWidth(), rng));
    }
    constexpr int kIterations = 20;
    timedRow(rows, "perf", "FIR locked@75%", "sliced_corruption_sweep_ms", [&] {
      const auto start = Clock::now();
      for (int i = 0; i < kIterations; ++i) {
        support::Rng stimulusRng{seed + 12};
        if (harness.outputCorruptionBatch(keys, options, stimulusRng).size() != kKeys) {
          return -1.0;
        }
      }
      return elapsedMs(start) / (kKeys * kIterations);
    });
  }
  {
    // Static analysis cost: full verifier + security lint (key-influence
    // fixpoint included) over a locked SHA256 — the `rtlock lint` hot path
    // and the price debug builds pay per RTLOCK_DEBUG_VERIFY_IR call site.
    const rtl::Module original = designs::makeBenchmark("SHA256");
    rtl::Module locked = original.clone();
    lock::LockEngine engine{locked, lock::PairTable::fixed()};
    support::Rng lockRng{seed + 4};
    lock::assureRandomLock(engine, engine.initialLockableOps() / 2, lockRng);
    constexpr int kRepeats = 10;
    timedRow(rows, "perf", "SHA256 locked@50%", "lint_ms", [&] {
      const auto start = Clock::now();
      for (int i = 0; i < kRepeats; ++i) {
        const auto findings = analysis::verify(locked);
        const auto report = analysis::lintLocked(locked);
        if (!findings.empty() || report.summary.keyWidth != locked.keyWidth()) {
          throw support::Error{"lint bench: unexpected analysis result"};
        }
      }
      return elapsedMs(start) / kRepeats;
    });
  }
  {
    // End-to-end SnapShot attack (the PR-4 headline row): one paper-sized
    // attack — 1000 relock rounds (the paper's training setup), locality
    // harvesting, auto-ml selection and per-bit prediction — against an
    // ASSURE-locked FIR.  This is the attack-pipeline cost that dominates
    // experiment wall time now that simulation is cheap; it exercises the
    // incremental harvester, the flat ML data plane and the engine's
    // lock/undo hot loop together.
    rtl::Module locked = designs::makeBenchmark("FIR");
    lock::LockEngine engine{locked, lock::PairTable::fixed()};
    support::Rng lockRng{seed + 7};
    lock::assureRandomLock(
        engine, static_cast<int>(0.75 * engine.initialLockableOps()), lockRng);
    const std::vector<lock::LockRecord> truth = engine.records();
    attack::SnapshotConfig config;
    config.relockRounds = 1000;
    config.automl.folds = 3;
    support::Rng rng{seed + 8};
    constexpr int kIterations = 3;
    timedRow(rows, "perf", "FIR locked@75%", "snapshot_attack_ms", [&] {
      const auto start = Clock::now();
      for (int i = 0; i < kIterations; ++i) {
        if (attack::snapshotAttack(locked, truth, lock::PairTable::fixed(), config, rng)
                .keyBits == 0) {
          return -1.0;
        }
      }
      return elapsedMs(start) / kIterations;
    });
  }
  {
    // Auto-ml portfolio selection on a locality-shaped training set (the
    // attack's step-3 cost in isolation).
    support::Rng dataRng{seed + 9};
    ml::Dataset training{2};
    for (int i = 0; i < 5000; ++i) {
      const auto c1 = static_cast<double>(dataRng.below(8));
      const auto c2 = static_cast<double>(dataRng.below(8));
      training.add({c1, c2}, dataRng.chance(c1 > c2 ? 0.9 : 0.3) ? 1 : 0);
    }
    ml::AutoMlConfig config;
    config.folds = 3;
    constexpr int kIterations = 3;
    timedRow(rows, "perf", "locality_rows_5000", "automl_fit_ms", [&] {
      const auto start = Clock::now();
      for (int i = 0; i < kIterations; ++i) {
        support::Rng rng{seed + 10};
        if (ml::autoSelect(training, config, rng).model == nullptr) return -1.0;
      }
      return elapsedMs(start) / kIterations;
    });
  }
  {
    constexpr int kIterations = 5;
    timedRow(rows, "perf", "era plus_network_256", "era_lock_ms", [&] {
      double totalMs = 0.0;
      for (int i = 0; i < kIterations; ++i) {
        rtl::Module module = designs::makePlusNetwork(256);
        lock::LockEngine engine{module, lock::PairTable::fixed()};
        support::Rng rng{seed + 3};
        const auto start = Clock::now();
        (void)lock::eraLock(engine, engine.initialLockableOps(), rng);
        totalMs += elapsedMs(start);
      }
      return totalMs / kIterations;
    });
  }
}

// --- service: session-cache amortisation and serve throughput --------------
//
// The serve PR's headline: a warm SessionCache fetch skips the parse +
// verify pipeline entirely, so repeated work
// on the same design (CLI re-runs, service traffic) pays it once.  The
// speedup row is the cold build cost over the warm fetch cost; the serve
// smoke row drives the real daemon over loopback TCP end to end.

/// One GET /healthz round-trip against a local rtlock serve daemon.
bool healthzRoundTrip(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buffer[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply.find(" 200 OK") != std::string::npos;
}

void runService(std::vector<Row>& rows) {
  {
    const rtl::Module module = designs::makeBenchmark("SHA256");
    const std::string source = verilog::writeModule(module);
    const service::SessionOptions options;
    // Cold: a fresh cache pays the full build pipeline once.
    const auto coldStart = Clock::now();
    service::SessionCache coldCache;
    (void)coldCache.fetch(source, options);
    const double coldMs = elapsedMs(coldStart);
    // Warm: hash the source, touch the LRU entry, hand back the pin.
    service::SessionCache cache;
    (void)cache.fetch(source, options);
    constexpr int kIterations = 500;
    const auto warmStart = Clock::now();
    for (int i = 0; i < kIterations; ++i) {
      if (!cache.fetch(source, options).hit) {
        throw support::Error{"session bench: warm fetch missed"};
      }
    }
    const double warmMs = elapsedMs(warmStart) / kIterations;
    rows.push_back({"perf", "SHA256", "session_cold_build_ms", coldMs, coldMs});
    rows.push_back(
        {"perf", "SHA256", "session_warm_speedup", coldMs / std::max(warmMs, 1e-6), 0.0});
  }
  {
    // Serve smoke: a self-draining daemon on an ephemeral loopback port,
    // hammered with sequential /healthz round-trips.
    constexpr int kRequests = 32;
    service::ServeOptions options;
    options.threads = 1;
    options.maxRequests = kRequests;
    service::Server server{options};
    const int port = server.port();
    std::thread runner{[&server] { (void)server.run(); }};
    const auto start = Clock::now();
    int ok = 0;
    for (int i = 0; i < kRequests; ++i) ok += healthzRoundTrip(port) ? 1 : 0;
    runner.join();
    const double wallMs = elapsedMs(start);
    if (ok != kRequests) {
      throw support::Error{"serve smoke: " + std::to_string(kRequests - ok) +
                           " request(s) failed"};
    }
    rows.push_back({"perf", "serve /healthz x" + std::to_string(kRequests), "requests_per_s",
                    kRequests * 1000.0 / wallMs, wallMs});
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
    const int threads = rtlock::bench::requestedThreads(args);
    const std::string outPath = args.get("out", "BENCH_baseline.json");
    const std::string checkPath = args.get("check", "");

    rtlock::bench::banner("baseline runner — perf/quality trajectory seed",
                          "Fig. 4/5/6 headline numbers + hot-path timings, fixed seeds",
                          "deterministic values per (seed, config); timings machine-dependent");

    std::vector<Row> rows;
    const auto start = Clock::now();
    runFig4(rows, seed, threads);
    runFig5(rows, seed, threads);
    runFig6(rows, seed, full, threads);
    runPerf(rows, seed);
    runService(rows);

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
