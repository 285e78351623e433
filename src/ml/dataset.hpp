// Weighted tabular dataset for binary classification — dictionary-encoded.
//
// SnapShot localities are tiny categorical tuples that repeat across relock
// rounds: 1000 rounds give 45k–204k rows but only tens of distinct
// (features, label) tuples.  So the dataset stores every distinct feature
// tuple once, in a tuple pool interned on add() (exact double bit patterns:
// -0.0 and 0.0 are distinct tuples), and every row as one 32-bit key —
// tuple code * 2 + label — plus its weight.  row(i) is a view into the pool.
// aggregated(), sampled() and kFoldAggregated() work on the integer keys
// through dense first-seen tables instead of hashing rows; see
// src/ml/README.md for the layout and the view-invalidation rule.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace rtlock::ml {

/// Borrowed view of one feature tuple.  Valid until a new distinct tuple is
/// added to the dataset it views (the pool may grow then).
using RowView = std::span<const double>;

/// Owning row type for call sites that build feature vectors incrementally.
using FeatureRow = std::vector<double>;

struct KFoldAggregates;

class Dataset {
 public:
  explicit Dataset(int featureCount);

  /// Appends one row, interning its feature tuple.  `features` may view this
  /// dataset's own pool (d.add(d.row(i), ...)): an existing tuple is found,
  /// never re-stored.
  void add(RowView features, int label, double weight = 1.0);
  void add(std::initializer_list<double> features, int label, double weight = 1.0) {
    add(RowView{features.begin(), features.size()}, label, weight);
  }

  /// Pre-grows the per-row storage for `rows` additional rows.
  void reserveRows(std::size_t rows);

  [[nodiscard]] int featureCount() const noexcept { return featureCount_; }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }

  [[nodiscard]] RowView row(std::size_t index) const noexcept { return tuple(tupleCode(index)); }
  [[nodiscard]] int label(std::size_t index) const noexcept {
    return static_cast<int>(keys_[index] & 1u);
  }
  [[nodiscard]] double weight(std::size_t index) const noexcept { return weights_[index]; }

  /// Code of row `index`'s feature tuple, in [0, tupleCount()): rows with
  /// bit-identical tuples share a code.  aggregated(), sampled() and
  /// kFoldAggregated() results share their source's pool, so a code names
  /// the same tuple in all of them; some codes may have no row.
  [[nodiscard]] std::uint32_t tupleCode(std::size_t index) const noexcept {
    return keys_[index] >> 1;
  }
  /// Number of tuples in the pool (an upper bound on the distinct rows).
  [[nodiscard]] std::size_t tupleCount() const noexcept { return tupleHashes_.size(); }

  [[nodiscard]] double totalWeight() const noexcept;
  /// Weighted fraction of rows with label 1.
  [[nodiscard]] double positiveFraction() const noexcept;

  /// Merges duplicate feature rows: one row per (features, label) with
  /// accumulated weight.  Order is deterministic (first-seen order).
  [[nodiscard]] Dataset aggregated() const;

  /// Uniform random subsample of `maxRows` rows, weights scaled by
  /// size() / maxRows so the total mass stays unbiased.  Returns a copy of
  /// *this (and draws nothing) if it has at most `maxRows` rows.
  [[nodiscard]] Dataset sampled(std::size_t maxRows, support::Rng& rng) const;

  /// k-fold partition composed with aggregation: per fold the aggregated
  /// (train, validation) pair, plus the aggregate of the whole dataset
  /// (`all`).  Fold membership: one rng.shuffle of the row positions, row i
  /// lands in fold (shuffled position % folds).  Each aggregate lists its
  /// (features, label) tuples in first-seen ascending-row order and sums
  /// weights in ascending row order.
  [[nodiscard]] KFoldAggregates kFoldAggregated(int folds, support::Rng& rng) const;

 private:
  class Aggregator;

  [[nodiscard]] RowView tuple(std::uint32_t code) const noexcept {
    return RowView{tupleValues_.data() + code * static_cast<std::size_t>(featureCount_),
                   static_cast<std::size_t>(featureCount_)};
  }
  [[nodiscard]] std::uint32_t intern(RowView features);
  void indexTuple(std::uint32_t code);
  /// Same width and tuple pool (so keys carry over unchanged), no rows.
  [[nodiscard]] Dataset withPoolOnly() const;

  int featureCount_;
  std::vector<double> tupleValues_;         // distinct tuples, row-major, code order
  std::vector<std::uint64_t> tupleHashes_;  // per tuple code
  std::vector<std::uint32_t> slots_;        // open-addressing index: tuple code or empty
  std::vector<std::uint32_t> keys_;         // per row: tuple code << 1 | label
  std::vector<double> weights_;             // per row
};

/// Result bundle of Dataset::kFoldAggregated.
struct KFoldAggregates {
  /// Aggregated (train, validation) pair per fold.
  std::vector<std::pair<Dataset, Dataset>> folds;
  /// Aggregate of the entire dataset (the final-refit training set).
  Dataset all{1};
};

}  // namespace rtlock::ml
