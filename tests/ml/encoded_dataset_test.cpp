// Differential suite, encoded vs materialised training set: on every
// registry design, at budgets 25/50/75 % and for both feature sets, the
// dictionary-encoded Dataset that LocalityHarvester::harvestInto fills must
// hold exactly the rows of a flat matrix built from the harvested
// localities, and its aggregated(), sampled() and kFoldAggregated() must
// equal the flat hash-aggregation oracle under the same Rng seeds.
#include <gtest/gtest.h>

#include <string>

#include "attack/harvest.hpp"
#include "core/algorithms.hpp"
#include "designs/registry.hpp"
#include "flat_dataset.hpp"
#include "ml/dataset.hpp"

namespace rtlock::ml {
namespace {

constexpr int kRounds = 24;

void runDifferential(const std::string& design, double budgetFraction, bool extended,
                     std::uint64_t seed) {
  attack::LocalityConfig config;
  config.extendedFeatures = extended;
  const std::string context = design + " budget " + std::to_string(budgetFraction) +
                              (extended ? " extended" : " basic");

  rtl::Module module = designs::makeBenchmark(design);
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  support::Rng rng{seed};
  const int targetBudget =
      std::max(1, static_cast<int>(budgetFraction * engine.initialLockableOps()));
  (void)lock::lockWithAlgorithm(engine, lock::Algorithm::AssureRandom, targetBudget, rng,
                                lock::ReportDetail::Summary);

  attack::LocalityHarvester harvester{engine, config};
  Dataset encoded{attack::featureCount(config)};
  flat::FlatDataset materialised{attack::featureCount(config)};
  for (int round = 0; round < kRounds; ++round) {
    const std::size_t checkpoint = engine.checkpoint();
    const int keyStart = module.keyWidth();
    const int budget = std::max(1, static_cast<int>(budgetFraction * engine.totalLockableOps()));
    harvester.beginRound();
    (void)lock::assureRandomLock(engine, budget, rng, lock::ReportDetail::Summary);

    harvester.harvestInto(encoded);
    // Rounds with cloned key muxes take the full-walk extractor inside
    // harvestInto (duplicate key indices keep its tie order), so the flat
    // reference does the same there; harvest() covers every other round.
    const std::vector<attack::Locality> localities =
        harvester.roundHasClonedKeyMuxes() ? attack::extractLocalities(module, config, keyStart)
                                           : harvester.harvest();
    const auto& records = engine.records();
    for (const attack::Locality& locality : localities) {
      const lock::LockRecord& record =
          records[checkpoint + static_cast<std::size_t>(locality.keyIndex - keyStart)];
      ASSERT_EQ(record.keyIndex, locality.keyIndex) << context;
      materialised.add(locality.features, record.keyValue ? 1 : 0);
    }
    engine.undoTo(checkpoint);
  }

  ASSERT_GT(materialised.size(), 0u) << context;
  flat::expectSameRows(encoded, materialised, context + " rows");
  flat::expectOperationsMatchOracle(encoded, materialised, materialised.size() * 2 / 3, 3,
                                    seed + 1000, context);
}

TEST(EncodedDatasetTest, MatchesFlatOracleOnEveryRegistryDesign) {
  std::uint64_t seed = 1;
  for (const std::string& design : designs::benchmarkNames()) {
    for (const double budget : {0.25, 0.5, 0.75}) {
      for (const bool extended : {false, true}) {
        runDifferential(design, budget, extended, seed++);
      }
    }
  }
}

}  // namespace
}  // namespace rtlock::ml
