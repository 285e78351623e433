// Attack-level sanity: the SnapShot pipeline must (a) break fully imbalanced
// ASSURE-locked designs, (b) fail against ERA's balanced designs, and (c)
// leave the target structurally intact.
#include "attack/snapshot.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "designs/networks.hpp"
#include "designs/registry.hpp"

namespace rtlock::attack {
namespace {

using rtl::OpKind;

SnapshotConfig fastConfig() {
  SnapshotConfig config;
  config.relockRounds = 40;
  config.automl.folds = 2;
  return config;
}

struct LockedSample {
  rtl::Module module;
  std::vector<lock::LockRecord> records;
};

LockedSample lockWith(lock::Algorithm algorithm, rtl::Module module, double budgetFraction,
                      std::uint64_t seed) {
  support::Rng rng{seed};
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  const int budget = std::max(
      1, static_cast<int>(budgetFraction * static_cast<double>(engine.initialLockableOps())));
  (void)lock::lockWithAlgorithm(engine, algorithm, budget, rng);
  return LockedSample{std::move(module), engine.records()};
}

TEST(SnapshotTest, BreaksImbalancedAssureLocking) {
  // Pure '+' network locked by ASSURE: every locality carries the key (the
  // N_2046 mechanism).  KPA should approach 100 %.
  auto sample = lockWith(lock::Algorithm::AssureSerial, designs::makePlusNetwork(80), 0.75, 1);
  support::Rng rng{2};
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(), rng);
  EXPECT_GT(result.kpa, 90.0);
  EXPECT_EQ(result.keyBits, 60);
}

TEST(SnapshotTest, ChanceAgainstEraLocking) {
  auto sample = lockWith(lock::Algorithm::Era, designs::makePlusNetwork(80), 0.75, 3);
  support::Rng rng{4};
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(), rng);
  EXPECT_LT(result.kpa, 65.0);
  EXPECT_GT(result.kpa, 35.0);
}

TEST(SnapshotTest, TargetRestoredAfterAttack) {
  auto sample = lockWith(lock::Algorithm::AssureRandom, designs::makePlusNetwork(40), 0.5, 5);
  const rtl::Module reference = sample.module.clone();
  support::Rng rng{6};
  (void)snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(),
                       rng);
  EXPECT_TRUE(structurallyEqual(sample.module, reference));
}

TEST(SnapshotTest, ReportsTrainingVolumeAndModel) {
  auto sample = lockWith(lock::Algorithm::AssureRandom, designs::makePlusNetwork(40), 0.5, 7);
  support::Rng rng{8};
  const auto config = fastConfig();
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), config, rng);
  EXPECT_FALSE(result.modelName.empty());
  EXPECT_GT(result.trainingRows, static_cast<std::size_t>(config.relockRounds));
  EXPECT_EQ(result.predictions.size(), sample.records.size());
}

TEST(SnapshotTest, BalancedDesignResistsEvenAssure) {
  // N_1023-style balanced design: ASSURE leaves the pair balanced only if
  // locking preserves symmetry; with 50 % budget the distribution stays
  // near-balanced and KPA stays well below the imbalanced case.
  auto sample = lockWith(
      lock::Algorithm::AssureRandom,
      designs::makeOperationNetwork("bal", {{OpKind::Add, 40}, {OpKind::Sub, 40}}), 0.5, 9);
  support::Rng rng{10};
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(), rng);
  EXPECT_LT(result.kpa, 70.0);
}

TEST(SnapshotTest, KpaConsistentWithCounts) {
  auto sample = lockWith(lock::Algorithm::AssureSerial, designs::makePlusNetwork(30), 0.5, 11);
  support::Rng rng{12};
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(), rng);
  EXPECT_NEAR(result.kpa, 100.0 * result.correct / result.keyBits, 1e-9);
  EXPECT_LE(result.correct, result.keyBits);
}

/// Golden outputs of one paper-sized attack (1000 relock rounds at 75 %),
/// recorded before the training set was dictionary-encoded.  Any change to
/// training-set construction, folding, sampling or aggregation that is not
/// bit-neutral moves at least one of these.
struct GoldenAttack {
  const char* design;
  bool extendedFeatures;
  const char* modelName;
  std::uint64_t cvAccuracyBits;
  std::size_t trainingRows;
  const char* predictions;  // one '0'/'1' per target key bit
};

void expectGoldenAttack(const GoldenAttack& golden) {
  auto sample = lockWith(lock::Algorithm::AssureRandom, designs::makeBenchmark(golden.design),
                         0.75, 21);
  SnapshotConfig config;
  config.relockRounds = 1000;
  config.relockBudgetFraction = 0.75;
  config.locality.extendedFeatures = golden.extendedFeatures;
  support::Rng rng{22};
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), config, rng);
  std::string predictions;
  for (const int bit : result.predictions) predictions += bit == 1 ? '1' : '0';
  EXPECT_EQ(result.modelName, golden.modelName) << golden.design;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.cvAccuracy), golden.cvAccuracyBits)
      << golden.design << " cv " << result.cvAccuracy;
  EXPECT_EQ(result.trainingRows, golden.trainingRows) << golden.design;
  EXPECT_EQ(predictions, golden.predictions) << golden.design;
}

// SASC and MD5 exceed AutoMlConfig::maxTrainingRows (100k raw rows), so they
// pin the sampled() path; FIR pins the 6-feature extended encoding.
TEST(SnapshotGoldenTest, SascPaperSizedAttack) {
  expectGoldenAttack({"SASC", false, "categorical-nb(alpha=1.000000)", 4603105940561306729ull,
                      104986, "10001011110101100111111111010110100001001001110010"});
}

TEST(SnapshotGoldenTest, Md5PaperSizedAttack) {
  expectGoldenAttack({"MD5", false, "histogram(smoothing=1.000000)", 4603235013726627165ull,
                      204000,
                      "0000000010010101100111110010100000000010100100101111010010111"
                      "00011011010110000110010001010001000110001000110101010011"});
}

TEST(SnapshotGoldenTest, FirExtendedFeaturesPaperSizedAttack) {
  expectGoldenAttack({"FIR", true, "tree(depth=6)", 4603671258749068679ull, 82000,
                      "11010110010101101010100110100001100010101100100"});
}

}  // namespace
}  // namespace rtlock::attack
