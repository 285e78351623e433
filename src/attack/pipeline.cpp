#include "attack/pipeline.hpp"

#include <algorithm>
#include <memory>

#include "sim/harness.hpp"
#include "support/task_pool.hpp"

namespace rtlock::attack {

namespace {

/// Everything one locked sample contributes to the aggregate.  Tasks return
/// these by value; aggregation happens serially in sample order so the
/// floating-point sums are bit-identical at every thread count.
struct SampleOutcome {
  double kpa = 0.0;
  double keyBits = 0.0;
  double bitsUsed = 0.0;
  double globalMetric = 0.0;
  double restrictedMetric = 0.0;
  bool functionalFailure = false;
};

/// Per-worker reusable module + engine.  Cloning the benchmark and
/// rebuilding the op index per sample was the sample loop's dominant
/// allocator; instead each worker clones once, and every sample restores the
/// module through the engine's checkpoint/undo path (undoAll splices the
/// trees back and re-pins the pools, so the restored state is exactly the
/// freshly-cloned state — proved by EngineTest's fuzzed round-trips).
struct WorkerSlot {
  std::unique_ptr<rtl::Module> module;
  std::unique_ptr<lock::LockEngine> engine;
};

SampleOutcome evaluateSample(WorkerSlot& slot, const rtl::Module& original,
                             lock::Algorithm algorithm, const lock::PairTable& table,
                             const EvaluationConfig& config, support::Rng rng) {
  if (slot.engine == nullptr) {
    slot.module = std::make_unique<rtl::Module>(original.clone());
    slot.engine = std::make_unique<lock::LockEngine>(*slot.module, table);
  }
  lock::LockEngine& engine = *slot.engine;
  const int budget =
      std::max(1, static_cast<int>(config.keyBudgetFraction *
                                   static_cast<double>(engine.initialLockableOps())));
  const lock::AlgorithmReport lockReport = lock::lockWithAlgorithm(
      engine, algorithm, budget, rng, lock::ReportDetail::Summary);

  // Copy the ground truth before the attack relocks the module.
  const std::vector<lock::LockRecord> truth = engine.records();

  SampleOutcome outcome;
  if (config.verifyFunctional) {
    // Check the freshly locked sample behaves like the original under its
    // correct key, BEFORE the attack relocks the module.  The stimulus
    // stream is an independent fixed seed: enabling the check perturbs no
    // rng draw the attack or metrics see, so every KPA/metric output bit is
    // unchanged.
    sim::BitVector correctKey{slot.module->keyWidth()};
    for (const lock::LockRecord& record : truth) {
      correctKey.setBit(record.keyIndex, record.keyValue);
    }
    sim::Harness harness{original, *slot.module};
    support::Rng verifyRng{0x76657269'66790001ULL};
    outcome.functionalFailure =
        harness.findMismatch(correctKey, {}, verifyRng).has_value();
  }

  const SnapshotResult attack = snapshotAttack(*slot.module, truth, table, config.snapshot, rng);
  outcome.kpa = attack.kpa;
  outcome.keyBits = static_cast<double>(attack.keyBits);
  outcome.bitsUsed = static_cast<double>(lockReport.bitsUsed);
  outcome.globalMetric = lockReport.finalGlobalMetric;
  outcome.restrictedMetric = lockReport.finalRestrictedMetric;

  // Restore the worker's module for the next sample.
  engine.undoAll();
  return outcome;
}

}  // namespace

EvaluationResult evaluateBenchmark(const rtl::Module& original, const std::string& benchmarkName,
                                   lock::Algorithm algorithm, const lock::PairTable& table,
                                   const EvaluationConfig& config, support::Rng& rng,
                                   support::TaskPool& pool) {
  RTLOCK_REQUIRE(config.testLocks > 0, "evaluation needs at least one locked sample");

  // Seeding convention: one fork advances the caller's stream, then sample i
  // draws from substream(i) of that root.  Sample streams therefore depend
  // only on (caller stream, sample index), which is what makes the sharded
  // loop bit-identical at every thread count.
  const support::Rng sampleRoot = rng.fork();

  // One reusable slot per worker id; a slot is only ever touched by the
  // worker owning that id, and reuse cannot influence results (see
  // WorkerSlot above).
  std::vector<WorkerSlot> slots(static_cast<std::size_t>(pool.threadCount()));
  const auto runSample = [&](int worker, std::size_t sample) {
    return evaluateSample(slots[static_cast<std::size_t>(worker)], original, algorithm, table,
                          config, sampleRoot.substream(sample));
  };
  const std::vector<SampleOutcome> outcomes =
      pool.fanOut(static_cast<std::size_t>(config.testLocks), runSample);

  EvaluationResult result;
  result.benchmark = benchmarkName;
  result.algorithm = algorithm;
  result.minKpa = 100.0;
  result.maxKpa = 0.0;
  for (const SampleOutcome& outcome : outcomes) {
    result.meanKpa += outcome.kpa;
    result.minKpa = std::min(result.minKpa, outcome.kpa);
    result.maxKpa = std::max(result.maxKpa, outcome.kpa);
    result.meanKeyBits += outcome.keyBits;
    result.meanBitsUsed += outcome.bitsUsed;
    result.meanGlobalMetric += outcome.globalMetric;
    result.meanRestrictedMetric += outcome.restrictedMetric;
    if (outcome.functionalFailure) ++result.functionalFailures;
    ++result.samples;
  }

  const auto n = static_cast<double>(result.samples);
  result.meanKpa /= n;
  result.meanKeyBits /= n;
  result.meanBitsUsed /= n;
  result.meanGlobalMetric /= n;
  result.meanRestrictedMetric /= n;
  return result;
}

}  // namespace rtlock::attack
