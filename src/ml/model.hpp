// Abstract binary classifier interface shared by all model families.
//
// Determinism contract (see src/ml/README.md): given the same dataset
// contents (row order included) and the same Rng state, fit() must produce a
// model whose predictions are bit-identical on every machine — no wall-clock
// reads, no iteration over unordered containers where order reaches the
// output, no hidden global state.  predictProba() takes a span-style row
// view and must not allocate per call; implementations may reuse mutable
// scratch buffers, so predictions on one instance are NOT thread-safe
// (clone via fresh()+fit for concurrent use).
#pragma once

#include <initializer_list>
#include <memory>
#include <string>

#include "ml/dataset.hpp"

namespace rtlock::ml {

/// Relative fitting cost of a model family.  Auto-ml gates Slow candidates
/// on large training sets (the portfolio's "don't start what cannot finish"
/// rule), so the cost class is part of the model API rather than a
/// name-prefix convention.
enum class CostClass { Fast, Slow };

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Human-readable model identifier ("logistic(lr=0.1)", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Fitting-cost family for auto-ml portfolio gating.
  [[nodiscard]] virtual CostClass costClass() const noexcept { return CostClass::Fast; }

  /// Trains on the (weighted) dataset.  Must be callable repeatedly.
  virtual void fit(const Dataset& data, support::Rng& rng) = 0;

  /// P(label == 1 | features) in [0, 1].
  [[nodiscard]] double predictProba(RowView features) const { return probaOf(features); }
  [[nodiscard]] double predictProba(std::initializer_list<double> features) const {
    return probaOf(RowView{features.begin(), features.size()});
  }

  [[nodiscard]] int predict(RowView features) const {
    return probaOf(features) >= 0.5 ? 1 : 0;
  }
  [[nodiscard]] int predict(std::initializer_list<double> features) const {
    return predict(RowView{features.begin(), features.size()});
  }

  /// Fresh untrained copy with the same hyperparameters (for CV folds).
  [[nodiscard]] virtual std::unique_ptr<Classifier> fresh() const = 0;

 private:
  /// Implementation hook behind predictProba/predict (non-virtual interface
  /// so the initializer_list conveniences exist exactly once, here).
  [[nodiscard]] virtual double probaOf(RowView features) const = 0;
};

/// Weighted accuracy of a fitted model on a dataset.
[[nodiscard]] double accuracy(const Classifier& model, const Dataset& data);

}  // namespace rtlock::ml
