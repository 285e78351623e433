// Differential suite, per-tuple fits vs per-row reference fits: the MLP and
// logistic regression compute each forward pass once per tuple code and
// epoch, and must still produce, bit for bit, the model of the per-row fits
// in reference_fits.hpp.  The training sets are what auto-ml fits on the
// SnapShot path — harvested registry designs at 25/50/75 % budgets with both
// feature sets, their kFoldAggregated folds (which share the pool, so some
// codes have no row) and sampled() subsets (non-unit weights, repeated
// codes) — plus sets whose tuples carry a single label.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/harvest.hpp"
#include "core/algorithms.hpp"
#include "designs/registry.hpp"
#include "ml/dataset.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "reference_fits.hpp"

namespace rtlock::ml {
namespace {

constexpr int kRounds = 12;

/// Hyperparameters of one MLP and two logistic candidates.
struct Hypers {
  MlpHyper mlp;
  LogisticHyper logistics[2];
};

/// The portfolio's (ml::defaultPortfolio).
const Hypers kPortfolio{{16, 0.05, 250, 1e-5}, {{0.5, 1e-4, 300}, {0.1, 1e-3, 300}}};
/// The portfolio's at 12 epochs: the sweep over every registry design stays
/// fast, and every epoch after the first still refreshes each code's cache.
const Hypers kShort{{16, 0.05, 12, 1e-5}, {{0.5, 1e-4, 12}, {0.1, 1e-3, 12}}};

/// One probe row per tuple code of `data`'s pool (first row of each code),
/// plus a tuple no row holds.
std::vector<FeatureRow> probesOf(const Dataset& data) {
  std::vector<FeatureRow> probes;
  std::vector<bool> seen(data.tupleCount(), false);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (seen[data.tupleCode(i)]) continue;
    seen[data.tupleCode(i)] = true;
    probes.emplace_back(data.row(i).begin(), data.row(i).end());
  }
  probes.emplace_back(static_cast<std::size_t>(data.featureCount()), 3.25);
  return probes;
}

/// "(f0 f1 ...)" for failure messages.
std::string describe(const FeatureRow& probe) {
  std::string text = "(";
  for (const double value : probe) text += std::to_string(value) + " ";
  return text + ")";
}

/// Fits both families on `train` through the library and the reference with
/// equal Rng seeds; predictions on every probe and the Rng state afterwards
/// must match bit for bit.
void expectSameFits(const Hypers& hypers, const Dataset& train,
                    const std::vector<FeatureRow>& probes, std::uint64_t seed,
                    const std::string& context) {
  support::Rng rng{seed};
  support::Rng referenceRng{seed};
  MlpClassifier mlp{hypers.mlp};
  mlp.fit(train, rng);
  const reference::Mlp referenceMlp = reference::fitMlp(train, hypers.mlp, referenceRng);
  ASSERT_EQ(rng(), referenceRng()) << context << " mlp Rng state";
  for (const FeatureRow& probe : probes) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(mlp.predictProba(probe)),
              std::bit_cast<std::uint64_t>(referenceMlp.predictProba(probe)))
        << context << " mlp probe " << describe(probe);
  }
  for (const LogisticHyper& hyper : hypers.logistics) {
    LogisticRegression logistic{hyper};
    logistic.fit(train, rng);
    const reference::Logistic referenceLogistic = reference::fitLogistic(train, hyper);
    for (const FeatureRow& probe : probes) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(logistic.predictProba(probe)),
                std::bit_cast<std::uint64_t>(referenceLogistic.predictProba(probe)))
          << context << " logistic lr " << hyper.learningRate << " probe " << describe(probe);
    }
  }
}

/// The raw SnapShot training set of `design`: kRounds random-ASSURE relock
/// rounds harvested the way snapshotAttack harvests them.
Dataset harvestTraining(const std::string& design, double budgetFraction, bool extended,
                        std::uint64_t seed) {
  attack::LocalityConfig config;
  config.extendedFeatures = extended;
  rtl::Module module = designs::makeBenchmark(design);
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  support::Rng rng{seed};
  const int targetBudget =
      std::max(1, static_cast<int>(budgetFraction * engine.initialLockableOps()));
  (void)lock::lockWithAlgorithm(engine, lock::Algorithm::AssureRandom, targetBudget, rng,
                                lock::ReportDetail::Summary);
  attack::LocalityHarvester harvester{engine, config};
  Dataset training{attack::featureCount(config)};
  for (int round = 0; round < kRounds; ++round) {
    const std::size_t checkpoint = engine.checkpoint();
    const int budget = std::max(1, static_cast<int>(budgetFraction * engine.totalLockableOps()));
    harvester.beginRound();
    (void)lock::assureRandomLock(engine, budget, rng, lock::ReportDetail::Summary);
    harvester.harvestInto(training);
    engine.undoTo(checkpoint);
  }
  return training;
}

/// Fits on every training set auto-ml derives from one harvested set: the
/// k-fold train/validation aggregates and the whole aggregate, a sampled()
/// subset and its aggregate.
void expectSameFitsOnHarvest(const Hypers& hypers, const std::string& design, double budget,
                             bool extended, std::uint64_t seed) {
  const std::string context =
      design + " budget " + std::to_string(budget) + (extended ? " extended" : " basic");
  const Dataset raw = harvestTraining(design, budget, extended, seed);
  ASSERT_FALSE(raw.empty()) << context;
  const std::vector<FeatureRow> probes = probesOf(raw);

  support::Rng foldRng{seed};
  const KFoldAggregates aggregates = raw.kFoldAggregated(3, foldRng);
  for (std::size_t fold = 0; fold < aggregates.folds.size(); ++fold) {
    const auto& [train, validation] = aggregates.folds[fold];
    const std::string foldContext = context + " fold " + std::to_string(fold);
    expectSameFits(hypers, train, probes, seed, foldContext + " train");
    expectSameFits(hypers, validation, probes, seed, foldContext + " validation");
  }
  expectSameFits(hypers, aggregates.all, probes, seed, context + " all");

  support::Rng sampleRng{seed};
  const Dataset sampled = raw.sampled(std::min<std::size_t>(raw.size() - 1, 256), sampleRng);
  expectSameFits(hypers, sampled, probes, seed, context + " sampled");
  expectSameFits(hypers, sampled.aggregated(), probes, seed, context + " sampled aggregate");
}

TEST(PerTupleFitTest, MatchesPerRowFitsOnEveryRegistryDesign) {
  std::uint64_t seed = 1;
  for (const std::string& design : designs::benchmarkNames()) {
    for (const double budget : {0.25, 0.5, 0.75}) {
      for (const bool extended : {false, true}) {
        expectSameFitsOnHarvest(kShort, design, budget, extended, seed++);
      }
    }
  }
}

TEST(PerTupleFitTest, MatchesPerRowFitsWithPortfolioHyperparameters) {
  // The paper's 75 % relock budget on the fig6 pair (FIR, SASC) and on MD5,
  // whose paper-sized training set auto-ml subsamples.
  std::uint64_t seed = 100;
  for (const std::string design : {"FIR", "SASC", "MD5"}) {
    for (const bool extended : {false, true}) {
      expectSameFitsOnHarvest(kPortfolio, design, 0.75, extended, seed++);
    }
  }
}

TEST(PerTupleFitTest, MatchesPerRowFitsOnSingleLabelTuples) {
  // Tuples (0,0) and (2,1) carry only label 1, (1,3) only label 0, (4,4)
  // both; repeats of one code are interleaved with other codes.
  Dataset data{2};
  data.add({0.0, 0.0}, 1, 2.0);
  data.add({1.0, 3.0}, 0, 1.0);
  data.add({4.0, 4.0}, 1, 0.5);
  data.add({0.0, 0.0}, 1, 1.0);
  data.add({2.0, 1.0}, 1, 3.0);
  data.add({4.0, 4.0}, 0, 1.5);
  data.add({1.0, 3.0}, 0, 4.0);
  const std::vector<FeatureRow> probes = probesOf(data);
  expectSameFits(kPortfolio, data, probes, 7, "single-label raw");
  expectSameFits(kPortfolio, data.aggregated(), probes, 8, "single-label aggregate");

  // Every tuple single-label: one label per code throughout.
  Dataset separate{1};
  for (int i = 0; i < 40; ++i) separate.add({static_cast<double>(i % 5)}, i % 5 < 2 ? 1 : 0);
  expectSameFits(kPortfolio, separate, probesOf(separate), 9, "all single-label raw");
  expectSameFits(kPortfolio, separate.aggregated(), probesOf(separate), 10, "all single-label aggregate");
}

TEST(PerTupleFitTest, EmptyTrainingSetPredictsOneHalf) {
  const Dataset empty{2};
  expectSameFits(kPortfolio, empty, {FeatureRow{1.0, 2.0}}, 11, "empty");
  support::Rng rng{12};
  MlpClassifier mlp{kPortfolio.mlp};
  mlp.fit(empty, rng);
  EXPECT_EQ(mlp.predictProba({1.0, 2.0}), 0.5);
  LogisticRegression logistic{kPortfolio.logistics[0]};
  logistic.fit(empty, rng);
  EXPECT_EQ(logistic.predictProba({1.0, 2.0}), 0.5);
}

}  // namespace
}  // namespace rtlock::ml
