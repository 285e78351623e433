// Test oracle: the flat training-set layout ml::Dataset used before it was
// dictionary-encoded — one row-major double matrix plus label and weight
// columns — with aggregation, sampling and k-fold written directly over it.
// Grouping is by exact bit patterns through an ordered map, first-seen
// order, weights summed in ascending row order.  The differential suites
// compare the encoded Dataset against it row for row, bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "ml/dataset.hpp"

namespace rtlock::ml::flat {

struct FlatDataset {
  explicit FlatDataset(int featureCount) : featureCount(featureCount) {}

  void add(RowView row, int label, double weight = 1.0) {
    values.insert(values.end(), row.begin(), row.end());
    labels.push_back(label);
    weights.push_back(weight);
  }
  [[nodiscard]] std::size_t size() const { return labels.size(); }
  [[nodiscard]] RowView row(std::size_t i) const {
    return RowView{values.data() + i * static_cast<std::size_t>(featureCount),
                   static_cast<std::size_t>(featureCount)};
  }

  int featureCount;
  std::vector<double> values;
  std::vector<int> labels;
  std::vector<double> weights;
};

/// Copies an encoded dataset's rows into the flat layout.
inline FlatDataset materialize(const Dataset& data) {
  FlatDataset result{data.featureCount()};
  for (std::size_t i = 0; i < data.size(); ++i) {
    result.add(data.row(i), data.label(i), data.weight(i));
  }
  return result;
}

/// One row per distinct (feature bits, label), first-seen order.
inline FlatDataset aggregate(const FlatDataset& data) {
  using Key = std::pair<std::vector<std::uint64_t>, int>;
  std::map<Key, std::size_t> rowOf;
  FlatDataset result{data.featureCount};
  for (std::size_t i = 0; i < data.size(); ++i) {
    Key key{{}, data.labels[i]};
    for (const double value : data.row(i)) key.first.push_back(std::bit_cast<std::uint64_t>(value));
    const auto [it, inserted] = rowOf.emplace(std::move(key), result.size());
    if (inserted) {
      result.add(data.row(i), data.labels[i], data.weights[i]);
    } else {
      result.weights[it->second] += data.weights[i];
    }
  }
  return result;
}

/// Uniform subsample of `maxRows` rows with weights scaled by n / maxRows.
inline FlatDataset sample(const FlatDataset& data, std::size_t maxRows, support::Rng& rng) {
  if (data.size() <= maxRows) return data;
  FlatDataset result{data.featureCount};
  const double scale = static_cast<double>(data.size()) / static_cast<double>(maxRows);
  for (const std::size_t i : rng.sampleIndices(data.size(), maxRows)) {
    result.add(data.row(i), data.labels[i], data.weights[i] * scale);
  }
  return result;
}

/// The historical deep-copy k-fold: one shuffle of the row positions, row i
/// lands in fold (shuffled position % folds), each fold materialized in
/// ascending row order.
inline std::vector<std::pair<FlatDataset, FlatDataset>> referenceKFold(const FlatDataset& data,
                                                                       int folds,
                                                                       support::Rng& rng) {
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<int> foldOf(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    foldOf[order[i]] = static_cast<int>(i % static_cast<std::size_t>(folds));
  }
  std::vector<std::pair<FlatDataset, FlatDataset>> result;
  for (int fold = 0; fold < folds; ++fold) {
    FlatDataset train{data.featureCount};
    FlatDataset validation{data.featureCount};
    for (std::size_t i = 0; i < data.size(); ++i) {
      (foldOf[i] == fold ? validation : train).add(data.row(i), data.labels[i], data.weights[i]);
    }
    result.emplace_back(std::move(train), std::move(validation));
  }
  return result;
}

/// Bit-exact row, label and weight equality of an encoded and a flat table.
inline void expectSameRows(const Dataset& encoded, const FlatDataset& flat,
                           const std::string& context) {
  ASSERT_EQ(encoded.featureCount(), flat.featureCount) << context;
  ASSERT_EQ(encoded.size(), flat.size()) << context;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const RowView a = encoded.row(i);
    const RowView b = flat.row(i);
    for (std::size_t f = 0; f < b.size(); ++f) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[f]), std::bit_cast<std::uint64_t>(b[f]))
          << context << " row " << i << " feature " << f;
    }
    ASSERT_EQ(encoded.label(i), flat.labels[i]) << context << " row " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(encoded.weight(i)),
              std::bit_cast<std::uint64_t>(flat.weights[i]))
        << context << " row " << i;
  }
}

/// aggregated(), sampled() and kFoldAggregated() of `encoded` against the
/// flat oracle over `reference` (its materialized rows), each pair run under
/// one seed and required to leave both Rngs in the same state.
inline void expectOperationsMatchOracle(const Dataset& encoded, const FlatDataset& reference,
                                        std::size_t maxRows, int folds, std::uint64_t seed,
                                        const std::string& context) {
  expectSameRows(encoded.aggregated(), aggregate(reference), context + " aggregated");

  support::Rng sampledRng{seed};
  support::Rng oracleSampledRng{seed};
  expectSameRows(encoded.sampled(maxRows, sampledRng),
                 sample(reference, maxRows, oracleSampledRng), context + " sampled");
  EXPECT_EQ(sampledRng(), oracleSampledRng()) << context << " sampled rng state";

  support::Rng foldRng{seed + 1};
  support::Rng oracleFoldRng{seed + 1};
  const KFoldAggregates fused = encoded.kFoldAggregated(folds, foldRng);
  const auto oracle = referenceKFold(reference, folds, oracleFoldRng);
  EXPECT_EQ(foldRng(), oracleFoldRng()) << context << " k-fold rng state";
  ASSERT_EQ(fused.folds.size(), oracle.size()) << context;
  for (std::size_t fold = 0; fold < oracle.size(); ++fold) {
    const std::string where = context + " fold " + std::to_string(fold);
    expectSameRows(fused.folds[fold].first, aggregate(oracle[fold].first), where + " train");
    expectSameRows(fused.folds[fold].second, aggregate(oracle[fold].second),
                   where + " validation");
  }
  expectSameRows(fused.all, aggregate(reference), context + " all");
}

}  // namespace rtlock::ml::flat
