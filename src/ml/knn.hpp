// k-nearest-neighbours with weighted voting.  Training data is capped by
// subsampling (prediction is O(stored rows)).
#pragma once

#include "ml/model.hpp"

namespace rtlock::ml {

struct KnnHyper {
  int k = 5;
  std::size_t maxStoredRows = 4096;
};

class KnnClassifier final : public Classifier {
 public:
  using Hyper = KnnHyper;

  explicit KnnClassifier(Hyper hyper = Hyper()) : hyper_(hyper) {}

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] CostClass costClass() const noexcept override { return CostClass::Slow; }
  void fit(const Dataset& data, support::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<Classifier> fresh() const override;

 private:
  [[nodiscard]] double probaOf(RowView features) const override;

  Hyper hyper_;
  /// Aggregated + capped training rows.
  Dataset stored_{1};
  bool fitted_ = false;
  /// Per-prediction distance scratch (predictions are not thread-safe; see
  /// Classifier docs).
  mutable std::vector<std::pair<double, std::size_t>> distances_;
};

}  // namespace rtlock::ml
