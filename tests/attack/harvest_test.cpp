// Differential suite for incremental locality harvesting: the harvester's
// output must match the full-walk extractor (the retained oracle) on every
// registry design, at several relock budgets, for both feature sets.
#include "attack/harvest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/algorithms.hpp"
#include "designs/networks.hpp"
#include "designs/registry.hpp"
#include "ml/dataset.hpp"

namespace rtlock::attack {
namespace {

using rtl::OpKind;

/// (keyIndex, features) tuples as a sortable value for multiset comparison.
std::multiset<std::pair<int, ml::FeatureRow>> asMultiset(const std::vector<Locality>& rows) {
  std::multiset<std::pair<int, ml::FeatureRow>> result;
  for (const Locality& locality : rows) result.emplace(locality.keyIndex, locality.features);
  return result;
}

void expectExactMatch(const std::vector<Locality>& harvested,
                      const std::vector<Locality>& extracted, const std::string& context) {
  ASSERT_EQ(harvested.size(), extracted.size()) << context;
  for (std::size_t i = 0; i < harvested.size(); ++i) {
    EXPECT_EQ(harvested[i].keyIndex, extracted[i].keyIndex) << context << " row " << i;
    EXPECT_EQ(harvested[i].features, extracted[i].features) << context << " row " << i;
  }
}

/// True when the module holds a clone of a key mux from below `keyStart`
/// (two muxes driven by one pre-round key bit): the rounds that used to take
/// harvestInto's full-walk fallback although the walk filters those clones.
bool hasPreRoundClones(const rtl::Module& module, const LocalityConfig& config, int keyStart) {
  std::set<int> seen;
  for (const Locality& locality : extractLocalities(module, config, 0)) {
    if (locality.keyIndex < keyStart && !seen.insert(locality.keyIndex).second) return true;
  }
  return false;
}

/// Runs target lock + several relock rounds on one design and compares the
/// harvester against the extractor each round.  Counts into
/// `incrementalWithPreRoundClones` the rounds that took the incremental path
/// while pre-round clones were present.
void runDifferential(const std::string& benchmark, double budgetFraction,
                     const LocalityConfig& config, std::uint64_t seed,
                     lock::Algorithm target = lock::Algorithm::AssureRandom,
                     int* incrementalWithPreRoundClones = nullptr) {
  rtl::Module module = designs::makeBenchmark(benchmark);
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  support::Rng rng{seed};
  const int targetBudget =
      std::max(1, static_cast<int>(budgetFraction * engine.initialLockableOps()));
  lock::lockWithAlgorithm(engine, target, targetBudget, rng, lock::ReportDetail::Summary);

  LocalityHarvester harvester{engine, config};
  for (int round = 0; round < 3; ++round) {
    const std::size_t checkpoint = engine.checkpoint();
    const int keyStart = module.keyWidth();
    const int budget = std::max(1, static_cast<int>(budgetFraction * engine.totalLockableOps()));
    harvester.beginRound();
    lock::assureRandomLock(engine, budget, rng);

    const std::vector<Locality> harvested = harvester.harvest();
    const std::vector<Locality> extracted = extractLocalities(module, config, keyStart);
    const std::string context = benchmark + " round " + std::to_string(round);
    if (incrementalWithPreRoundClones != nullptr && !harvester.roundHasClonedKeyMuxes() &&
        hasPreRoundClones(module, config, keyStart)) {
      ++*incrementalWithPreRoundClones;
    }
    if (harvester.roundHasClonedKeyMuxes()) {
      // Duplicate key indices: relative tie order is implementation-defined
      // in the extractor, so compare as multisets; harvestInto() covers the
      // exact-order contract by delegating to the extractor on such rounds.
      EXPECT_EQ(asMultiset(harvested), asMultiset(extracted)) << context;
    } else {
      expectExactMatch(harvested, extracted, context);
    }

    // The training-row path must match the legacy extractor-based pipeline
    // row for row, labels included, on every round.
    ml::Dataset viaHarvester{featureCount(config)};
    harvester.harvestInto(viaHarvester);
    ml::Dataset viaExtractor{featureCount(config)};
    const auto& records = engine.records();
    for (const Locality& locality : extracted) {
      const lock::LockRecord& record =
          records[checkpoint + static_cast<std::size_t>(locality.keyIndex - keyStart)];
      ASSERT_EQ(record.keyIndex, locality.keyIndex);
      viaExtractor.add(locality.features, record.keyValue ? 1 : 0);
    }
    ASSERT_EQ(viaHarvester.size(), viaExtractor.size()) << context;
    for (std::size_t i = 0; i < viaHarvester.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(viaHarvester.row(i), viaExtractor.row(i)))
          << context << " row " << i;
      EXPECT_EQ(viaHarvester.label(i), viaExtractor.label(i)) << context << " row " << i;
    }

    engine.undoTo(checkpoint);
  }
}

TEST(HarvestTest, MatchesExtractorOnEveryRegistryDesignBasicFeatures) {
  std::uint64_t seed = 1;
  for (const std::string& name : designs::benchmarkNames()) {
    for (const double budget : {0.25, 0.75}) {
      runDifferential(name, budget, LocalityConfig{}, seed++);
    }
  }
}

TEST(HarvestTest, MatchesExtractorOnEveryRegistryDesignExtendedFeatures) {
  LocalityConfig config;
  config.extendedFeatures = true;
  std::uint64_t seed = 100;
  for (const std::string& name : designs::benchmarkNames()) {
    runDifferential(name, 0.75, config, seed++);
  }
}

TEST(HarvestTest, MatchesExtractorOnTargetsPreLockedByEveryAlgorithm) {
  // The evaluation's targets: every registry design locked at 75 % by the
  // three algorithms the grid compares, then relocked round by round.
  // Clones of the target's own key muxes are not recorded, so rounds whose
  // only clones come from before the round take the incremental path; the
  // differential must still hold there, and such rounds must occur.
  using lock::Algorithm;
  std::uint64_t seed = 200;
  int incrementalWithPreRoundClones = 0;
  for (const Algorithm algorithm : {Algorithm::AssureSerial, Algorithm::Hra, Algorithm::Era}) {
    for (const std::string& name : designs::benchmarkNames()) {
      runDifferential(name, 0.75, LocalityConfig{}, seed++, algorithm,
                      &incrementalWithPreRoundClones);
    }
  }
  EXPECT_GT(incrementalWithPreRoundClones, 0);
}

TEST(HarvestTest, NestedRelockWithinRoundYieldsMuxCodes) {
  // Relocking the same pool position twice nests muxes (Fig. 3b); the
  // harvester computes features at harvest time, so the outer mux must show
  // the nested kMuxCode exactly like the full walk.
  rtl::Module module = designs::makePlusNetwork(4);
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  LocalityHarvester harvester{engine, {}};
  harvester.beginRound();
  engine.lockOpAt(OpKind::Add, 0, true);
  engine.lockOpAt(OpKind::Add, 0, true);
  const auto harvested = harvester.harvest();
  const auto extracted = extractLocalities(module, {}, 0);
  expectExactMatch(harvested, extracted, "nested");
  ASSERT_EQ(harvested.size(), 2u);
  EXPECT_EQ(harvested[0].features[0], kMuxCode);
}

TEST(HarvestTest, UndoWithinRoundDropsHarvestedEntries) {
  rtl::Module module = designs::makePlusNetwork(8);
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  LocalityHarvester harvester{engine, {}};
  harvester.beginRound();
  engine.lockOpAt(OpKind::Add, 0, true);
  const std::size_t mid = engine.checkpoint();
  engine.lockOpAt(OpKind::Add, 1, false);
  engine.lockOpAt(OpKind::Add, 2, true);
  engine.undoTo(mid);
  const auto harvested = harvester.harvest();
  const auto extracted = extractLocalities(module, {}, 0);
  expectExactMatch(harvested, extracted, "undo");
  ASSERT_EQ(harvested.size(), 1u);
  EXPECT_EQ(harvested[0].keyIndex, 0);
}

TEST(HarvestTest, UndoOfPreRoundLocksIsIgnored) {
  rtl::Module module = designs::makePlusNetwork(8);
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  engine.lockOpAt(OpKind::Add, 0, true);  // before the harvester's round
  LocalityHarvester harvester{engine, {}};
  harvester.beginRound();
  engine.lockOpAt(OpKind::Add, 1, false);
  engine.undoAll();  // undoes the round lock, then the pre-round lock
  EXPECT_TRUE(harvester.harvest().empty());
}

TEST(HarvestTest, SecondObserverOnOneEngineIsRejected) {
  rtl::Module module = designs::makePlusNetwork(4);
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  LocalityHarvester first{engine, {}};
  EXPECT_THROW((LocalityHarvester{engine, {}}), support::ContractViolation);
}

TEST(HarvestTest, DestructorDetachesObserver) {
  rtl::Module module = designs::makePlusNetwork(4);
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  {
    LocalityHarvester harvester{engine, {}};
    EXPECT_EQ(engine.observer(), &harvester);
  }
  EXPECT_EQ(engine.observer(), nullptr);
  // Locks after detach must not touch the destroyed harvester.
  engine.lockOpAt(OpKind::Add, 0, true);
  EXPECT_EQ(module.keyWidth(), 1);
}

TEST(HarvestTest, CloneRoundsAreDetectedAndMatchLegacyRows) {
  // SASC's operand structure clones key muxes into dummy branches, the case
  // that forces the extractor fallback.  At least one round must detect
  // clones, and the runDifferential checks above already pinned row
  // equality; here we pin the detection itself.
  rtl::Module module = designs::makeBenchmark("SASC");
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  support::Rng rng{7};
  lock::assureRandomLock(
      engine, std::max(1, static_cast<int>(0.75 * engine.initialLockableOps())), rng);
  LocalityHarvester harvester{engine, {}};
  harvester.beginRound();
  lock::assureRandomLock(
      engine, std::max(1, static_cast<int>(0.75 * engine.totalLockableOps())), rng);
  EXPECT_TRUE(harvester.roundHasClonedKeyMuxes());
}

}  // namespace
}  // namespace rtlock::attack
