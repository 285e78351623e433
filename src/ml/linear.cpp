#include "ml/linear.hpp"

#include <cmath>
#include <cstdint>

namespace rtlock::ml {

namespace {
[[nodiscard]] double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

std::string LogisticRegression::name() const {
  return "logistic(lr=" + std::to_string(hyper_.learningRate) +
         ",l2=" + std::to_string(hyper_.l2) + ")";
}

void LogisticRegression::fit(const Dataset& data, support::Rng& /*rng*/) {
  const auto features = static_cast<std::size_t>(data.featureCount());
  weights_.assign(features, 0.0);
  bias_ = 0.0;
  mean_.assign(features, 0.0);
  scale_.assign(features, 1.0);
  fitted_ = true;
  if (data.empty()) return;

  // Standardize features for stable step sizes.
  const double totalWeight = data.totalWeight();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < features; ++f) {
      mean_[f] += data.weight(i) * row[f];
    }
  }
  for (double& m : mean_) m /= totalWeight;
  std::vector<double> variance(features, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < features; ++f) {
      const double delta = row[f] - mean_[f];
      variance[f] += data.weight(i) * delta * delta;
    }
  }
  for (std::size_t f = 0; f < features; ++f) {
    scale_[f] = std::sqrt(std::max(variance[f] / totalWeight, 1e-12));
  }

  // Rows sharing a tuple code share z, and so sigmoid(z), within an epoch
  // (the weights move only at the epoch's end): compute it the first time a
  // row of the code appears, with the per-row expression, so every float is
  // unchanged.  The gradient stays per row, in row order.
  const std::size_t codes = data.tupleCount();
  std::vector<double> probabilityOf(codes);
  std::vector<int> epochOf(codes, -1);  // last epoch that computed the code's sigmoid(z)
  std::vector<double> gradient(features);
  for (int epoch = 0; epoch < hyper_.epochs; ++epoch) {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    double biasGradient = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const RowView row = data.row(i);
      const std::uint32_t code = data.tupleCode(i);
      if (epochOf[code] != epoch) {
        double z = bias_;
        for (std::size_t f = 0; f < features; ++f) {
          z += weights_[f] * (row[f] - mean_[f]) / scale_[f];
        }
        probabilityOf[code] = sigmoid(z);
        epochOf[code] = epoch;
      }
      const double error = probabilityOf[code] - static_cast<double>(data.label(i));
      const double scaledError = data.weight(i) * error / totalWeight;
      for (std::size_t f = 0; f < features; ++f) {
        gradient[f] += scaledError * (row[f] - mean_[f]) / scale_[f];
      }
      biasGradient += scaledError;
    }
    for (std::size_t f = 0; f < features; ++f) {
      gradient[f] += hyper_.l2 * weights_[f];
      weights_[f] -= hyper_.learningRate * gradient[f];
    }
    bias_ -= hyper_.learningRate * biasGradient;
  }
}

double LogisticRegression::decision(RowView features) const {
  double z = bias_;
  for (std::size_t f = 0; f < features.size() && f < weights_.size(); ++f) {
    z += weights_[f] * (features[f] - mean_[f]) / scale_[f];
  }
  return z;
}

double LogisticRegression::probaOf(RowView features) const {
  if (!fitted_) return 0.5;
  return sigmoid(decision(features));
}

std::unique_ptr<Classifier> LogisticRegression::fresh() const {
  return std::make_unique<LogisticRegression>(hyper_);
}

}  // namespace rtlock::ml
