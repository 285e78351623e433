#include "attack/pipeline.hpp"

#include <gtest/gtest.h>

#include "designs/networks.hpp"

namespace rtlock::attack {
namespace {

EvaluationConfig fastEvaluation() {
  EvaluationConfig config;
  config.testLocks = 2;
  config.snapshot.relockRounds = 25;
  config.snapshot.automl.folds = 2;
  return config;
}

TEST(PipelineTest, AggregatesKpaOverSamples) {
  support::Rng rng{1};
  support::TaskPool pool{1};
  const auto original = designs::makePlusNetwork(60);
  const auto result = evaluateBenchmark(original, "plus60", lock::Algorithm::AssureSerial,
                                        lock::PairTable::fixed(), fastEvaluation(), rng, pool);
  EXPECT_EQ(result.samples, 2);
  EXPECT_EQ(result.benchmark, "plus60");
  EXPECT_GE(result.maxKpa, result.meanKpa);
  EXPECT_LE(result.minKpa, result.meanKpa);
  EXPECT_GT(result.meanKpa, 80.0);  // imbalanced network breaks easily
  EXPECT_NEAR(result.meanKeyBits, 45.0, 1e-9);
  EXPECT_NEAR(result.meanBitsUsed, 45.0, 1e-9);
}

TEST(PipelineTest, EraShowsResilienceAndExceedsBudget) {
  support::Rng rng{2};
  support::TaskPool pool{1};
  const auto original = designs::makePlusNetwork(60);
  const auto result = evaluateBenchmark(original, "plus60", lock::Algorithm::Era,
                                        lock::PairTable::fixed(), fastEvaluation(), rng, pool);
  // Full imbalance: ERA needs 100 % (60 bits) despite the 75 % budget.
  EXPECT_GE(result.meanBitsUsed, 60.0);
  EXPECT_LT(result.meanKpa, 65.0);
  EXPECT_DOUBLE_EQ(result.meanRestrictedMetric, 100.0);
}

TEST(PipelineTest, VerifyFunctionalPassesAndChangesNoOutputBit) {
  // Locked samples must behave like the original under their correct key;
  // enabling the check must not perturb any KPA or metric bit (it draws from
  // an independent fixed-seed stimulus stream), at any pool size.
  const auto original = designs::makePlusNetwork(40);
  support::Rng plainRng{7};
  support::TaskPool serial{1};
  const auto plain = evaluateBenchmark(original, "plus40", lock::Algorithm::AssureSerial,
                                       lock::PairTable::fixed(), fastEvaluation(), plainRng,
                                       serial);
  EXPECT_EQ(plain.functionalFailures, 0);  // off by default: counter stays 0
  for (const int threads : {1, 4}) {
    support::TaskPool pool{threads};
    for (const bool verify : {false, true}) {
      EvaluationConfig config = fastEvaluation();
      config.verifyFunctional = verify;
      support::Rng rng{7};
      const auto result = evaluateBenchmark(original, "plus40", lock::Algorithm::AssureSerial,
                                            lock::PairTable::fixed(), config, rng, pool);
      EXPECT_EQ(result.functionalFailures, 0) << threads << " threads, verify " << verify;
      EXPECT_DOUBLE_EQ(result.meanKpa, plain.meanKpa);
      EXPECT_DOUBLE_EQ(result.meanGlobalMetric, plain.meanGlobalMetric);
      EXPECT_DOUBLE_EQ(result.meanRestrictedMetric, plain.meanRestrictedMetric);
    }
  }
}

TEST(PipelineTest, OriginalModuleLeftUntouched) {
  support::Rng rng{3};
  support::TaskPool pool{1};
  const auto original = designs::makePlusNetwork(30);
  const rtl::Module reference = original.clone();
  (void)evaluateBenchmark(original, "plus30", lock::Algorithm::Hra, lock::PairTable::fixed(),
                          fastEvaluation(), rng, pool);
  EXPECT_TRUE(structurallyEqual(original, reference));
}

}  // namespace
}  // namespace rtlock::attack
