#include "ml/mlp.hpp"

#include <cmath>
#include <cstdint>

namespace rtlock::ml {

namespace {

[[nodiscard]] double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

/// Adam state for one parameter vector.
struct Adam {
  std::vector<double> m;
  std::vector<double> v;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  int step = 0;

  explicit Adam(std::size_t size) : m(size, 0.0), v(size, 0.0) {}

  void update(std::vector<double>& params, const std::vector<double>& gradient, double lr) {
    ++step;
    const double correction1 = 1.0 - std::pow(beta1, step);
    const double correction2 = 1.0 - std::pow(beta2, step);
    for (std::size_t i = 0; i < params.size(); ++i) {
      m[i] = beta1 * m[i] + (1.0 - beta1) * gradient[i];
      v[i] = beta2 * v[i] + (1.0 - beta2) * gradient[i] * gradient[i];
      const double mHat = m[i] / correction1;
      const double vHat = v[i] / correction2;
      params[i] -= lr * mHat / (std::sqrt(vHat) + epsilon);
    }
  }
};

}  // namespace

std::string MlpClassifier::name() const {
  return "mlp(hidden=" + std::to_string(hyper_.hiddenUnits) + ")";
}

void MlpClassifier::fit(const Dataset& data, support::Rng& rng) {
  inputs_ = data.featureCount();
  const auto hidden = static_cast<std::size_t>(hyper_.hiddenUnits);
  const auto inputs = static_cast<std::size_t>(inputs_);

  hiddenWeights_.assign(hidden * inputs, 0.0);
  hiddenBias_.assign(hidden, 0.0);
  outputWeights_.assign(hidden, 0.0);
  outputBias_ = 0.0;
  mean_.assign(inputs, 0.0);
  scale_.assign(inputs, 1.0);
  fitted_ = true;
  if (data.empty()) return;

  // Xavier-style initialization.
  const double initScale = std::sqrt(2.0 / static_cast<double>(inputs + hidden));
  for (double& w : hiddenWeights_) w = rng.gaussian() * initScale;
  for (double& w : outputWeights_) w = rng.gaussian() * initScale;

  // Standardization statistics.
  const double totalWeight = data.totalWeight();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < inputs; ++f) mean_[f] += data.weight(i) * row[f];
  }
  for (double& m : mean_) m /= totalWeight;
  std::vector<double> variance(inputs, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < inputs; ++f) {
      const double delta = row[f] - mean_[f];
      variance[f] += data.weight(i) * delta * delta;
    }
  }
  for (std::size_t f = 0; f < inputs; ++f) {
    scale_[f] = std::sqrt(std::max(variance[f] / totalWeight, 1e-12));
  }

  Adam adamHiddenW{hiddenWeights_.size()};
  Adam adamHiddenB{hiddenBias_.size()};
  Adam adamOutputW{outputWeights_.size()};
  Adam adamOutputB{1};

  std::vector<double> gradHiddenW(hiddenWeights_.size());
  std::vector<double> gradHiddenB(hiddenBias_.size());
  std::vector<double> gradOutputW(outputWeights_.size());
  std::vector<double> gradOutputB(1);

  // Per-tuple forward passes.  Rows sharing a tuple code share their
  // normalized inputs (fixed for the fit) and, within one epoch, their
  // activations and prediction (the weights move only at the epoch's end).
  // Each is computed the first time a row of that code appears, with the
  // per-row expressions, so every float is unchanged; error and gradient
  // accumulation stay per row, in row order.
  const std::size_t codes = data.tupleCount();
  std::vector<double> normalizedOf(codes * inputs);
  std::vector<double> activationsOf(codes * hidden);
  std::vector<double> predictionOf(codes);
  std::vector<int> epochOf(codes, -1);  // last epoch that ran the code's forward pass

  for (int epoch = 0; epoch < hyper_.epochs; ++epoch) {
    std::fill(gradHiddenW.begin(), gradHiddenW.end(), 0.0);
    std::fill(gradHiddenB.begin(), gradHiddenB.end(), 0.0);
    std::fill(gradOutputW.begin(), gradOutputW.end(), 0.0);
    gradOutputB[0] = 0.0;

    for (std::size_t i = 0; i < data.size(); ++i) {
      const std::uint32_t code = data.tupleCode(i);
      double* normalized = normalizedOf.data() + code * inputs;
      double* activations = activationsOf.data() + code * hidden;
      if (epochOf[code] != epoch) {
        if (epochOf[code] < 0) {
          const RowView row = data.row(i);
          for (std::size_t f = 0; f < inputs; ++f) {
            normalized[f] = (row[f] - mean_[f]) / scale_[f];
          }
        }
        double output = outputBias_;
        for (std::size_t h = 0; h < hidden; ++h) {
          double z = hiddenBias_[h];
          for (std::size_t f = 0; f < inputs; ++f) {
            z += hiddenWeights_[h * inputs + f] * normalized[f];
          }
          activations[h] = std::tanh(z);
          output += outputWeights_[h] * activations[h];
        }
        predictionOf[code] = sigmoid(output);
        epochOf[code] = epoch;
      }
      const double error = data.weight(i) *
                           (predictionOf[code] - static_cast<double>(data.label(i))) / totalWeight;

      gradOutputB[0] += error;
      for (std::size_t h = 0; h < hidden; ++h) {
        gradOutputW[h] += error * activations[h];
        const double hiddenError =
            error * outputWeights_[h] * (1.0 - activations[h] * activations[h]);
        gradHiddenB[h] += hiddenError;
        for (std::size_t f = 0; f < inputs; ++f) {
          gradHiddenW[h * inputs + f] += hiddenError * normalized[f];
        }
      }
    }

    for (std::size_t j = 0; j < hiddenWeights_.size(); ++j) {
      gradHiddenW[j] += hyper_.l2 * hiddenWeights_[j];
    }
    for (std::size_t j = 0; j < outputWeights_.size(); ++j) {
      gradOutputW[j] += hyper_.l2 * outputWeights_[j];
    }

    adamHiddenW.update(hiddenWeights_, gradHiddenW, hyper_.learningRate);
    adamHiddenB.update(hiddenBias_, gradHiddenB, hyper_.learningRate);
    adamOutputW.update(outputWeights_, gradOutputW, hyper_.learningRate);
    std::vector<double> biasVec{outputBias_};
    adamOutputB.update(biasVec, gradOutputB, hyper_.learningRate);
    outputBias_ = biasVec[0];
  }
}

void MlpClassifier::hiddenActivations(RowView features) const {
  const auto hidden = static_cast<std::size_t>(hyper_.hiddenUnits);
  const auto inputs = static_cast<std::size_t>(inputs_);
  activations_.resize(hidden);
  for (std::size_t h = 0; h < hidden; ++h) {
    double z = hiddenBias_[h];
    for (std::size_t f = 0; f < inputs && f < features.size(); ++f) {
      z += hiddenWeights_[h * inputs + f] * (features[f] - mean_[f]) / scale_[f];
    }
    activations_[h] = std::tanh(z);
  }
}

double MlpClassifier::probaOf(RowView features) const {
  if (!fitted_) return 0.5;
  hiddenActivations(features);
  double output = outputBias_;
  for (std::size_t h = 0; h < activations_.size(); ++h) {
    output += outputWeights_[h] * activations_[h];
  }
  return sigmoid(output);
}

std::unique_ptr<Classifier> MlpClassifier::fresh() const {
  return std::make_unique<MlpClassifier>(hyper_);
}

}  // namespace rtlock::ml
