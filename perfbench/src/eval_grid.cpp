// eval-grid: service::runEval on FIR, SASC (the fig6 pair) and the external
// conv3.v, each over serial,hra,era x three seeds (9 cells of 10 locked
// samples, 1000 relock rounds, 75 % budget, verify_functional on) at
// threads = nproc.
//
// Why: the relock/harvest loop and auto-ML do nearly all the work, parsing
// happens once per design, FIR never takes the harvest full-walk fallback
// while SASC takes it in almost every round, and 9 cells on nproc workers
// leave an idle tail that cell x sample flattening would fill.
#include <array>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "composed_attack.hpp"
#include "core/algorithms.hpp"
#include "designs/registry.hpp"
#include "layers.hpp"
#include "service/api.hpp"
#include "sim/harness.hpp"
#include "support/strings.hpp"
#include "support/task_pool.hpp"
#include "verilog/writer.hpp"

namespace perfbench {

namespace {

using namespace rtlock;

constexpr int kSamples = 10;
constexpr int kSetupsBefore = 11;
constexpr int kSetupsPerIteration = 10;
constexpr int kProbeRepeats = 5;

struct GridDesign {
  std::string name;
  std::string source;
};

[[nodiscard]] std::string readText(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

[[nodiscard]] std::vector<GridDesign> gridDesigns(const Options& options) {
  std::vector<GridDesign> grid;
  for (const char* name : {"FIR", "SASC"}) {
    grid.push_back({name, verilog::writeModule(designs::makeBenchmark(name))});
  }
  grid.push_back({"conv3", readText(options.root + "/examples/external/conv3.v")});
  return grid;
}

[[nodiscard]] service::EvalRequest gridRequest(const GridDesign& design, const Options& options) {
  service::EvalRequest request;
  request.source = design.source;
  request.algorithms = service::algorithmListFromNames("serial,hra,era");
  request.seeds = {options.seed, options.seed + 1, options.seed + 2};
  request.samples = kSamples;
  request.rounds = 1000;
  request.folds = 3;
  request.verifyFunctional = true;
  request.campaign.threads = options.threads;
  request.includeWall = false;
  return request;
}

[[nodiscard]] std::string rowsDigest(const std::vector<service::ReportRow>& rows) {
  return support::fnv1a64Hex(service::rowsToJson(rows).dump());
}

/// Row digests recorded for the default seed (data/eval_grid_digests.json).
struct RecordedDigests {
  std::uint64_t seed = 0;
  std::map<std::string, std::string> rows;
};

[[nodiscard]] RecordedDigests recordedDigests(const Options& options) {
  const support::JsonValue document =
      support::parseJson(readText(options.benchDir + "/data/eval_grid_digests.json"));
  RecordedDigests recorded;
  recorded.seed = static_cast<std::uint64_t>(document.at("seed").asInt());
  for (const auto& [name, digest] : document.at("rows_fnv1a64").asObject()) {
    recorded.rows.emplace(name, digest.asString());
  }
  return recorded;
}

/// Checks one runEval response: every cell ok, rows identical to the first
/// repeat of the design, and equal to the recorded digest on the default
/// seed.  Counts the locked samples in `tally`.
void checkResponse(const GridDesign& design, const service::EvalResponse& response,
                   const Options& options, const RecordedDigests& recorded,
                   std::map<std::string, std::string>& firstDigest, RunResult& result) {
  std::uint64_t okSamples = 0;
  for (const campaign::CellOutcome& outcome : response.campaign.outcomes) {
    const bool ok = outcome.status == campaign::CellStatus::Ok;
    result.tally.record(ok, kSamples);
    if (ok) okSamples += kSamples;
  }
  for (const std::string& error : response.cellErrors) result.fail(design.name + ": " + error);
  const std::string digest = rowsDigest(response.rows);
  const auto [first, inserted] = firstDigest.emplace(design.name, digest);
  std::string mismatch;
  if (!inserted && first->second != digest) {
    mismatch = "report rows differ between repeats (" + first->second + " vs " + digest + ")";
  } else if (options.seed == recorded.seed && recorded.rows.count(design.name) != 0 &&
             recorded.rows.at(design.name) != digest) {
    mismatch = "report rows digest " + digest + " != recorded " + recorded.rows.at(design.name);
  }
  if (!mismatch.empty()) {
    result.tally.demote(okSamples);
    result.fail(design.name + ": " + mismatch);
  }
}

/// What a run sets up before it measures: the inputs (FIR and SASC written
/// from the registry, conv3.v and the recorded digests read) and a session
/// cache holding the cold session builds (parse, verify, compile, lint) the
/// grid's requests then hit.
struct GridSetup {
  std::vector<GridDesign> grid;
  RecordedDigests recorded;
  std::unique_ptr<service::SessionCache> cache;
};

[[nodiscard]] GridSetup setUp(const Options& options) {
  GridSetup setup{gridDesigns(options), recordedDigests(options),
                  std::make_unique<service::SessionCache>()};
  for (const GridDesign& design : setup.grid) (void)setup.cache->fetch(design.source, {});
  return setup;
}

RunResult runUntraced(const Options& options) {
  RunResult result;
  // The set-up takes about a millisecond, less than the host's speed takes
  // to drift, so it is sampled before the window and again after every grid
  // iteration (that time is left out of the window): its median spans the
  // run like the other metrics do.  The last set-up before the window
  // serves the run.
  std::vector<double> setups;
  const auto timedSetUp = [&] {
    const auto start = Clock::now();
    GridSetup setup = setUp(options);
    setups.push_back(msSince(start) / 1000.0);
    return setup;
  };
  for (int repeat = 1; repeat < kSetupsBefore; ++repeat) (void)timedSetUp();
  const GridSetup setup = timedSetUp();
  const std::vector<GridDesign>& grid = setup.grid;
  service::SessionCache& cache = *setup.cache;

  // Whole grid iterations (every design once) until the window is spent.
  std::map<std::string, std::string> firstDigest;
  std::vector<double> samplesPerSec;  // per iteration, for the record
  std::vector<double> cellMs;
  std::size_t cells = 0;
  double setUpMs = 0.0;  // set-up samples taken inside the loop
  const auto start = Clock::now();
  while (msSince(start) - setUpMs < options.seconds * 1000.0) {
    const auto iterationStart = Clock::now();
    std::size_t iterationCells = 0;
    for (const GridDesign& design : grid) {
      const service::EvalResponse response = service::runEval(cache, gridRequest(design, options));
      checkResponse(design, response, options, setup.recorded, firstDigest, result);
      for (const campaign::CellOutcome& outcome : response.campaign.outcomes) {
        cellMs.push_back(outcome.wallMs);
      }
      iterationCells += response.cells.size();
    }
    samplesPerSec.push_back(static_cast<double>(iterationCells * kSamples) /
                            (msSince(iterationStart) / 1000.0));
    cells += iterationCells;
    const auto pause = Clock::now();
    for (int repeat = 0; repeat < kSetupsPerIteration; ++repeat) (void)timedSetUp();
    setUpMs += msSince(pause);
  }
  const double seconds = (msSince(start) - setUpMs) / 1000.0;

  const std::string over = "over " + std::to_string(samplesPerSec.size()) +
                           " grid iterations, " + std::to_string(seconds) + " s";
  result.add("setup_s", median(setups), "s",
             "median of " + std::to_string(setups.size()) +
                 " set-ups (inputs, then cold session builds of the grid) spread over the run");
  result.add("samples_per_s", static_cast<double>(cells * kSamples) / seconds, "1/s", over);
  result.add("requests_per_s", static_cast<double>(cells) / seconds, "1/s",
             "campaign cells per second " + over);
  addPercentileMetrics(result, cellMs, "campaign cell wall");
  result.add("peak_rss_mb", selfPeakRssMb(), "MB", "benchmark process (runEval is in-process)");

  for (const GridDesign& design : grid) {
    support::JsonValue entry;
    entry.set("bytes", static_cast<std::int64_t>(design.source.size()));
    entry.set("cells", 9);
    entry.set("rows_fnv1a64", firstDigest.count(design.name) != 0 ? firstDigest[design.name] : "");
    result.properties.set(design.name, std::move(entry));
  }
  result.properties.set("workers", options.threads);
  support::JsonArray setUpSeconds;  // in the order taken
  for (const double value : setups) setUpSeconds.emplace_back(value);
  result.properties.set("setup_samples_s", support::JsonValue{std::move(setUpSeconds)});
  support::JsonArray rates;
  for (const double rate : samplesPerSec) rates.push_back(support::JsonValue{rate});
  result.properties.set("iteration_samples_per_s", support::JsonValue{std::move(rates)});
  return result;
}

// ---- traced run -------------------------------------------------------------

/// The composed attacks of one grid cell, in sample order, for the
/// snapshotAttack check.
struct CellAttacks {
  std::size_t design = 0;
  std::size_t cell = 0;  // index into the design's grid
  std::vector<ComposedAttack> attacks;
};

struct TracedNames {
  explicit TracedNames(Tracer& tracer)
      : attack(tracer),
        frontEnd(tracer),
        cell(tracer.intern("campaign.cell")),
        lock(tracer.intern("core.lock")),
        verifyFunctional(tracer.intern("sim.verify_functional")),
        restore(tracer.intern("core.restore")),
        sessionBuild(tracer.intern("service.session_build")) {}
  AttackSpanNames attack;
  FrontEndNames frontEnd;
  std::uint32_t cell, lock, verifyFunctional, restore, sessionBuild;
};

/// The Rng root of cell `index`'s samples, derived as runEval's cell body
/// derives it (cells run algorithm-major over the request's seeds).
[[nodiscard]] support::Rng sampleRootOf(const service::EvalRequest& request, std::size_t index) {
  const std::size_t algoIndex = index / request.seeds.size();
  support::Rng cellRng =
      support::Rng{request.seeds[index % request.seeds.size()]}.substream(algoIndex);
  return cellRng.fork();
}

/// Locks one sample at the grid's 75 % budget, as runEval's cell body does.
lock::AlgorithmReport lockSample(lock::LockEngine& engine, lock::Algorithm algorithm,
                                 support::Rng& rng) {
  const int budget =
      std::max(1, static_cast<int>(0.75 * static_cast<double>(engine.initialLockableOps())));
  return lock::lockWithAlgorithm(engine, algorithm, budget, rng, lock::ReportDetail::Summary);
}

RunResult runTraced(const Options& options) {
  RunResult result;
  Tracer tracer;
  const TracedNames names{tracer};
  const std::vector<GridDesign> grid = gridDesigns(options);
  const RecordedDigests recorded = recordedDigests(options);

  double parsedKb = 0.0;
  for (int repeat = 0; repeat < kProbeRepeats; ++repeat) {
    for (const GridDesign& design : grid) {
      parsedKb += probeFrontEnd(design.source, tracer, names.frontEnd);
      service::SessionCache fresh;  // outlives the span: teardown is not timed
      const Tracer::Scope span{tracer, names.sessionBuild};
      (void)fresh.fetch(design.source, {});
    }
  }

  // Per design: runEval through the public entry point (reference rows and
  // the campaign metrics), then the same grid composed from public calls,
  // whose rows must equal runEval's.
  service::SessionCache cache;
  std::map<std::string, std::string> firstDigest;
  Tracer untraced;  // disabled: the composed cells' untraced runs
  untraced.setEnabled(false);
  double tracedMs = 0.0;
  double untracedMs = 0.0;
  std::vector<double> cellMs;
  double busyMs = 0.0;
  double gridMs = 0.0;
  std::uint64_t retries = 0;
  const lock::PairTable& table = lock::PairTable::fixed();
  attack::SnapshotConfig snapshot;
  snapshot.relockRounds = 1000;
  snapshot.relockBudgetFraction = 0.75;
  snapshot.automl.folds = 3;
  std::mutex keptMutex;
  std::vector<CellAttacks> kept;
  std::vector<service::EvalRequest> requests;
  std::vector<service::SessionPtr> sessions;
  std::uint32_t unitBase = 1;  // cell i of the whole run is unit i + 1

  for (std::size_t d = 0; d < grid.size(); ++d) {
    const GridDesign& design = grid[d];
    requests.push_back(gridRequest(design, options));
    const service::EvalRequest& request = requests.back();
    const service::EvalResponse response = service::runEval(cache, request);
    checkResponse(design, response, options, recorded, firstDigest, result);
    const std::string referenceRows = service::rowsToJson(response.rows).dump();
    for (const campaign::CellOutcome& outcome : response.campaign.outcomes) {
      cellMs.push_back(outcome.wallMs);
      busyMs += outcome.wallMs;
      retries += static_cast<std::uint64_t>(std::max(0, outcome.attempts - 1));
    }
    gridMs += response.campaign.wallMs;

    sessions.push_back(cache.fetch(design.source, {}).session);
    const rtl::Module& original = sessions.back()->module(0);
    std::vector<campaign::Cell> cells;
    for (const lock::Algorithm algorithm : request.algorithms) {
      for (const std::uint64_t seed : request.seeds) {
        campaign::Cell cell;
        cell.id.algorithm = service::algorithmName(algorithm);
        cell.id.seed = seed;
        cell.label = cell.id.algorithm + " / seed " + std::to_string(seed);
        cells.push_back(std::move(cell));
      }
    }
    // The cell body of runEval (attack::evaluateBenchmark at threads = 1)
    // with a span around each layer call, recorded into `t`; `keep`
    // collects the composed attacks.
    const auto composeCell = [&](Tracer& t, std::size_t index,
                                 std::vector<ComposedAttack>* keep) {
      const Tracer::Scope cellSpan{t, names.cell, unitBase + static_cast<std::uint32_t>(index)};
      const std::size_t algoIndex = index / request.seeds.size();
      const lock::Algorithm algorithm = request.algorithms[algoIndex];
      const support::Rng sampleRoot = sampleRootOf(request, index);
      rtl::Module module = original.clone();
      lock::LockEngine engine{module, table};
      double kpaSum = 0.0, kpaMin = 100.0, kpaMax = 0.0, keyBits = 0.0, global = 0.0,
             restricted = 0.0;
      int functionalFailures = 0;
      for (int sample = 0; sample < kSamples; ++sample) {
        support::Rng rng = sampleRoot.substream(static_cast<std::uint64_t>(sample));
        lock::AlgorithmReport report;
        {
          const Tracer::Scope span{t, names.lock};
          report = lockSample(engine, algorithm, rng);
        }
        const std::vector<lock::LockRecord> truth = engine.records();
        {
          const Tracer::Scope span{t, names.verifyFunctional};
          sim::BitVector correctKey{module.keyWidth()};
          for (const lock::LockRecord& record : truth) {
            correctKey.setBit(record.keyIndex, record.keyValue);
          }
          sim::Harness harness{original, module, sim::SimBackend::Sliced};
          support::Rng verifyRng{0x76657269'66790001ULL};
          if (harness.findMismatch(correctKey, {}, verifyRng).has_value()) ++functionalFailures;
        }
        ComposedAttack composed =
            composedSnapshotAttack(module, truth, table, snapshot, rng, t, names.attack);
        {
          const Tracer::Scope span{t, names.restore};
          engine.undoAll();
        }
        const double kpa = composed.result.kpa;
        kpaSum += kpa;
        kpaMin = std::min(kpaMin, kpa);
        kpaMax = std::max(kpaMax, kpa);
        keyBits += static_cast<double>(composed.result.keyBits);
        global += report.finalGlobalMetric;
        restricted += report.finalRestrictedMetric;
        if (keep != nullptr) keep->push_back(std::move(composed));
      }
      if (functionalFailures > 0) {
        throw support::Error{std::to_string(functionalFailures) +
                             " locked sample(s) misbehave under the correct key"};
      }
      const double n = kSamples;
      support::JsonValue payload;
      payload.set("mean_kpa_percent", kpaSum / n);
      payload.set("min_kpa_percent", kpaMin);
      payload.set("max_kpa_percent", kpaMax);
      payload.set("mean_key_bits", keyBits / n);
      payload.set("mean_global_metric", global / n);
      payload.set("mean_restricted_metric", restricted / n);
      return payload;
    };
    // Each cell is composed twice back to back: traced, keeping its attacks
    // (handed over after the cell span has closed), and with the disabled
    // tracer; odd cells take the traced one first.
    std::vector<std::array<double, 2>> cellTimes(cells.size());  // untraced, traced
    const campaign::CellFn compute = [&](const campaign::Cell&,
                                         const campaign::CellContext& context) {
      CellAttacks attacks{d, context.index, {}};
      support::JsonValue payload;
      for (int run = 0; run < 2; ++run) {
        const bool traced = (run == 0) == (context.index % 2 == 1);
        const auto start = Clock::now();
        payload = composeCell(traced ? tracer : untraced, context.index,
                              traced ? &attacks.attacks : nullptr);
        cellTimes[context.index][traced ? 1 : 0] = msSince(start);
      }
      const std::lock_guard<std::mutex> lock{keptMutex};
      kept.push_back(std::move(attacks));
      return payload;
    };

    campaign::CampaignOptions campaignOptions;
    campaignOptions.threads = options.threads;
    campaignOptions.retry.maxAttempts = 1;
    const campaign::CampaignResult composed =
        campaign::runCampaign(cells, campaignOptions, nullptr, compute);
    for (const std::array<double, 2>& times : cellTimes) {
      untracedMs += times[0];
      tracedMs += times[1];
    }
    const std::string setup = "samples=" + std::to_string(kSamples) + " rounds=1000 budget=" +
                              request.budget.describe();
    const std::string composedRows =
        service::rowsToJson(service::evalReportRows(
                                original.name(), setup, cells,
                                [&](std::size_t i) { return &composed.outcomes[i]; }, false))
            .dump();
    if (composedRows != referenceRows) {
      result.fail(design.name + ": composed grid rows differ from runEval's");
    }
    unitBase += static_cast<std::uint32_t>(cells.size());
  }

  // Check pass, per cell: re-lock each sample exactly as the cell did, then
  // run the composed attack and attack::snapshotAttack back to back on one
  // thread.  snapshotAttack must equal the grid's composed attack; its wall
  // is attack.snapshot_ms, and the composed re-run's spans (a tracer of
  // their own) give attack.span_coverage, because the grid's attacks ran
  // beside verify_functional, seconds earlier.  The re-run's training set
  // gives the distinct-row count, outside every timed span.
  std::vector<std::vector<double>> referenceMs(kept.size());
  std::vector<std::string> differences(kept.size());
  Tracer coverageTracer;
  const AttackSpanNames coverageNames{coverageTracer};
  {
    support::TaskPool pool{options.threads};
    for (std::size_t i = 0; i < kept.size(); ++i) {
      pool.submit([&, i] {
        CellAttacks& cell = kept[i];
        const service::EvalRequest& request = requests[cell.design];
        const lock::Algorithm algorithm =
            request.algorithms[cell.cell / request.seeds.size()];
        const support::Rng sampleRoot = sampleRootOf(request, cell.cell);
        rtl::Module module = sessions[cell.design]->module(0).clone();
        lock::LockEngine engine{module, table};
        for (std::size_t sample = 0; sample < cell.attacks.size(); ++sample) {
          support::Rng rng = sampleRoot.substream(sample);
          (void)lockSample(engine, algorithm, rng);
          const std::vector<lock::LockRecord> truth = engine.records();
          support::Rng againRng = rng;
          std::optional<ml::Dataset> training;
          const ComposedAttack again = composedSnapshotAttack(
              module, truth, table, snapshot, againRng, coverageTracer, coverageNames, &training);
          const auto start = Clock::now();
          const attack::SnapshotResult reference =
              attack::snapshotAttack(module, truth, table, snapshot, rng);
          referenceMs[i].push_back(msSince(start));
          ComposedAttack& composed = cell.attacks[sample];
          composed.distinctRows = distinctRowCount(*training);
          std::string difference = checkSameAttack(composed, reference);
          if (difference.empty()) difference = checkSameAttack(again, reference);
          if (!difference.empty() && differences[i].empty()) {
            differences[i] = grid[cell.design].name + " cell " + std::to_string(cell.cell) +
                             " sample " + std::to_string(sample) + ": " + difference;
          }
          engine.undoAll();
        }
      });
    }
    pool.wait();
  }
  for (const std::string& difference : differences) {
    if (!difference.empty()) result.fail("composed attack, " + difference);
  }

  std::vector<double> referenceAll;
  std::vector<const ComposedAttack*> attacks;
  std::map<std::string, std::pair<double, double>> fallbacks;  // design -> (fallback, rounds)
  for (std::size_t i = 0; i < kept.size(); ++i) {
    referenceAll.insert(referenceAll.end(), referenceMs[i].begin(), referenceMs[i].end());
    auto& [fallback, rounds] = fallbacks[grid[kept[i].design].name];
    for (const ComposedAttack& attack : kept[i].attacks) {
      attacks.push_back(&attack);
      fallback += static_cast<double>(attack.fallbackRounds);
      rounds += static_cast<double>(attack.rounds);
    }
  }
  for (const auto& [design, counts] : fallbacks) {
    result.properties.set(design + "_harvest_fallback_share", counts.first / counts.second);
  }
  TraceTotals totals;
  totals.unitRoot = "campaign.cell";
  totals.parsedKb = parsedKb;
  totals.referenceMs = std::move(referenceAll);
  totals.attacks = std::move(attacks);
  totals.tracedMs = tracedMs;
  totals.untracedMs = untracedMs;
  totals.coverageTracer = &coverageTracer;
  addTraceMetrics(result, tracer, options, totals);

  const std::string cellCount = "n=" + std::to_string(cellMs.size());
  result.add("campaign.cell_ms_p50", percentile(cellMs, 50.0), "ms", cellCount);
  result.add("campaign.cell_ms_max", percentile(cellMs, 100.0), "ms", cellCount);
  result.add("campaign.retries", static_cast<double>(retries), "count");
  result.add("campaign.busy_share", busyMs / (options.threads * gridMs), "ratio",
             "sum of cell wall over " + std::to_string(options.threads) + " workers x grid wall");
  const service::SessionCache::Stats stats = cache.stats();
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  result.add("service.session_hit_ratio",
             lookups == 0 ? 0.0 : static_cast<double>(stats.hits) / lookups,
             "ratio", "of " + std::to_string(static_cast<std::uint64_t>(lookups)) + " lookups");
  result.add("service.session_lookups", lookups, "count");
  return result;
}

}  // namespace

RunResult runEvalGrid(const Options& options) {
  return options.trace ? runTraced(options) : runUntraced(options);
}

}  // namespace perfbench
