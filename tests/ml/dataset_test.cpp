#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "flat_dataset.hpp"
#include "support/diagnostics.hpp"

namespace rtlock::ml {
namespace {

Dataset sample() {
  Dataset data{2};
  data.add({1.0, 2.0}, 1, 2.0);
  data.add({1.0, 2.0}, 1, 3.0);
  data.add({1.0, 2.0}, 0, 1.0);
  data.add({4.0, 5.0}, 0, 4.0);
  return data;
}

TEST(DatasetTest, BasicAccessors) {
  const Dataset data = sample();
  EXPECT_EQ(data.featureCount(), 2);
  EXPECT_EQ(data.size(), 4u);
  EXPECT_DOUBLE_EQ(data.totalWeight(), 10.0);
  EXPECT_DOUBLE_EQ(data.positiveFraction(), 0.5);
}

TEST(DatasetTest, ValidationRejectsBadRows) {
  Dataset data{2};
  EXPECT_THROW(data.add({1.0}, 0), support::ContractViolation);
  EXPECT_THROW(data.add({1.0, 2.0}, 2), support::ContractViolation);
  EXPECT_THROW(data.add({1.0, 2.0}, 0, 0.0), support::ContractViolation);
}

TEST(DatasetTest, AggregationMergesDuplicates) {
  const Dataset aggregated = sample().aggregated();
  EXPECT_EQ(aggregated.size(), 3u);  // (1,2)/1, (1,2)/0, (4,5)/0
  EXPECT_DOUBLE_EQ(aggregated.totalWeight(), 10.0);
  // The (1,2)/1 row accumulates weight 5.
  bool found = false;
  for (std::size_t i = 0; i < aggregated.size(); ++i) {
    if (aggregated.label(i) == 1) {
      EXPECT_DOUBLE_EQ(aggregated.weight(i), 5.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DatasetTest, SamplingCapsRowsAndPreservesMass) {
  support::Rng rng{1};
  Dataset data{1};
  for (int i = 0; i < 1000; ++i) data.add({static_cast<double>(i)}, i % 2);
  const Dataset sampled = data.sampled(100, rng);
  EXPECT_EQ(sampled.size(), 100u);
  EXPECT_NEAR(sampled.totalWeight(), 1000.0, 1e-6);
  const Dataset untouched = data.sampled(5000, rng);
  EXPECT_EQ(untouched.size(), 1000u);
}

TEST(DatasetTest, KFoldAggregatedCoversEveryRowExactlyOnce) {
  support::Rng rng{3};
  Dataset data{1};
  for (int i = 0; i < 100; ++i) data.add({static_cast<double>(i)}, i % 2);
  const KFoldAggregates folds = data.kFoldAggregated(5, rng);
  ASSERT_EQ(folds.folds.size(), 5u);
  std::size_t validationTotal = 0;
  for (const auto& [train, validation] : folds.folds) {
    EXPECT_EQ(train.size() + validation.size(), 100u);
    validationTotal += validation.size();
  }
  EXPECT_EQ(validationTotal, 100u);
  EXPECT_EQ(folds.all.size(), 100u);
}

TEST(DatasetTest, KFoldAggregatedNeedsTwoFolds) {
  support::Rng rng{4};
  EXPECT_THROW((void)sample().kFoldAggregated(1, rng), support::ContractViolation);
}

TEST(DatasetTest, TupleCodesNameOnePoolAcrossDerivedDatasets) {
  // Codes are dense first-added positions in the pool; equal tuples share a
  // code whatever their label, and -0.0 is a tuple of its own.
  Dataset data{2};
  data.add({1.0, 2.0}, 1);
  data.add({4.0, 5.0}, 0);
  data.add({1.0, 2.0}, 0);
  data.add({-0.0, 0.0}, 1);
  data.add({0.0, 0.0}, 1);
  data.add({4.0, 5.0}, 1);
  ASSERT_EQ(data.tupleCount(), 4u);
  const std::vector<std::uint32_t> codes{0, 1, 0, 2, 3, 1};
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data.tupleCode(i), codes[i]) << "row " << i;
  }

  // Derived datasets keep the source's pool: same count, and a code names
  // the same tuple (row views alias one pool entry per code).
  const auto expectSharedPool = [&data](const Dataset& derived, const std::string& what) {
    EXPECT_EQ(derived.tupleCount(), data.tupleCount()) << what;
    for (std::size_t i = 0; i < derived.size(); ++i) {
      const std::uint32_t code = derived.tupleCode(i);
      ASSERT_LT(code, derived.tupleCount()) << what;
      for (std::size_t j = 0; j < data.size(); ++j) {
        if (data.tupleCode(j) != code) continue;
        EXPECT_TRUE(std::equal(derived.row(i).begin(), derived.row(i).end(),
                               data.row(j).begin(), data.row(j).end()))
            << what << " row " << i;
        break;
      }
    }
  };
  const Dataset aggregated = data.aggregated();
  expectSharedPool(aggregated, "aggregated");
  support::Rng rng{5};
  expectSharedPool(data.sampled(3, rng), "sampled");
  const KFoldAggregates folds = data.kFoldAggregated(3, rng);
  for (const auto& [train, validation] : folds.folds) {
    expectSharedPool(train, "train");
    expectSharedPool(validation, "validation");
  }
  expectSharedPool(folds.all, "all");
  // A validation fold of two rows holds at most two of the four codes.
  EXPECT_LT(folds.folds[0].second.size(), data.tupleCount());
  EXPECT_EQ(Dataset{3}.tupleCount(), 0u);
}

TEST(DatasetTest, EqualTuplesShareOneStoredTuple) {
  Dataset data{2};
  data.add({1.0, 2.0}, 1);
  data.add({1.0, 2.0}, 0, 3.0);  // same tuple, other label and weight
  data.add({4.0, 5.0}, 1);
  data.add({1.0, 2.0}, 1, 2.0);
  EXPECT_EQ(data.row(1).data(), data.row(0).data());
  EXPECT_EQ(data.row(3).data(), data.row(0).data());
  EXPECT_NE(data.row(2).data(), data.row(0).data());
  EXPECT_EQ(data.label(1), 0);
  EXPECT_DOUBLE_EQ(data.weight(1), 3.0);
  EXPECT_DOUBLE_EQ(data.row(2)[1], 5.0);
}

TEST(DatasetTest, NegativeZeroIsADistinctTuple) {
  Dataset data{1};
  data.add({-0.0}, 1);
  data.add({0.0}, 1);
  data.add({-0.0}, 0);
  EXPECT_NE(data.row(0).data(), data.row(1).data());
  EXPECT_EQ(data.row(2).data(), data.row(0).data());
  EXPECT_TRUE(std::signbit(data.row(0)[0]));
  EXPECT_FALSE(std::signbit(data.row(1)[0]));
}

TEST(DatasetTest, SelfRowAddIsSafeWhileThePoolGrows) {
  Dataset data{2};
  data.add({1.0, 2.0}, 1);
  // Interleave self-appends with new distinct tuples, so the tuple pool
  // reallocates many times between them.
  for (int i = 0; i < 300; ++i) {
    data.add({static_cast<double>(i), -1.0}, 0);
    data.add(data.row(data.size() - 1), 0);
    data.add(data.row(0), data.label(0), data.weight(0));
  }
  ASSERT_EQ(data.size(), 901u);
  for (std::size_t i = 0; i < data.size(); i += 3) {
    EXPECT_DOUBLE_EQ(data.row(i)[0], 1.0) << i;
    EXPECT_DOUBLE_EQ(data.row(i)[1], 2.0) << i;
  }
  for (std::size_t i = 1; i < data.size(); i += 3) {
    EXPECT_EQ(data.row(i + 1).data(), data.row(i).data()) << i;
    EXPECT_DOUBLE_EQ(data.row(i)[0], static_cast<double>(i / 3)) << i;
    EXPECT_DOUBLE_EQ(data.row(i)[1], -1.0) << i;
  }
}

TEST(DatasetTest, KFoldAggregatedMatchesReferenceKFold) {
  support::Rng dataRng{14};
  Dataset data{2};
  for (int i = 0; i < 600; ++i) {
    data.add({static_cast<double>(dataRng.below(4)), static_cast<double>(dataRng.below(4))},
             static_cast<int>(dataRng.below(2)), 1.0 + (i % 3));
  }
  // The oracle is the historical deep-copy k-fold over the flat layout,
  // aggregated per fold; same seed, and the Rng must end in the same state
  // so downstream draws cannot shift.
  flat::expectOperationsMatchOracle(data, flat::materialize(data), 200, 3, 15, "600 rows");
  flat::expectOperationsMatchOracle(data, flat::materialize(data), 599, 7, 16, "7 folds");
}

TEST(DatasetTest, SampledIsDeterministicPerSeed) {
  Dataset data{1};
  for (int i = 0; i < 300; ++i) data.add({static_cast<double>(i)}, i % 2);
  support::Rng rngA{17};
  support::Rng rngB{17};
  flat::expectSameRows(data.sampled(50, rngA), flat::materialize(data.sampled(50, rngB)),
                       "sampled");
}

TEST(DatasetTest, AggregationDistinguishesLabelsAndBitPatterns) {
  Dataset data{1};
  data.add({1.0}, 1, 2.0);
  data.add({1.0}, 0, 3.0);   // same features, other label: separate row
  data.add({-0.0}, 1, 1.0);  // -0.0 and 0.0 differ bitwise: separate rows
  data.add({0.0}, 1, 1.0);
  const Dataset aggregated = data.aggregated();
  EXPECT_EQ(aggregated.size(), 4u);
  EXPECT_DOUBLE_EQ(aggregated.totalWeight(), 7.0);
}

}  // namespace
}  // namespace rtlock::ml
