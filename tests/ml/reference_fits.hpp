// Test oracle: the per-row MLP and logistic-regression fits the library used
// before its fits computed forward passes once per tuple code.  Every row runs
// its own forward pass, in row order, with the same expressions, so a
// per-tuple fit must reproduce these parameters bit for bit.  Each reference
// model predicts with the expressions of its library twin's predictProba,
// so the oracle suite compares predictions bit pattern by bit pattern.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "support/rng.hpp"

namespace rtlock::ml::reference {

[[nodiscard]] inline double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

/// Weighted per-feature mean and standard deviation (floored at 1e-6), the
/// standardization both fits share.
inline void standardize(const Dataset& data, std::vector<double>& mean,
                        std::vector<double>& scale) {
  const auto inputs = static_cast<std::size_t>(data.featureCount());
  mean.assign(inputs, 0.0);
  scale.assign(inputs, 1.0);
  if (data.empty()) return;
  const double totalWeight = data.totalWeight();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < inputs; ++f) mean[f] += data.weight(i) * row[f];
  }
  for (double& m : mean) m /= totalWeight;
  std::vector<double> variance(inputs, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < inputs; ++f) {
      const double delta = row[f] - mean[f];
      variance[f] += data.weight(i) * delta * delta;
    }
  }
  for (std::size_t f = 0; f < inputs; ++f) {
    scale[f] = std::sqrt(std::max(variance[f] / totalWeight, 1e-12));
  }
}

/// Adam state for one parameter vector (MlpClassifier's optimizer).
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

struct Mlp {
  MlpHyper hyper;
  std::size_t inputs = 0;
  std::vector<double> hiddenWeights;  // hiddenUnits x inputs
  std::vector<double> hiddenBias;
  std::vector<double> outputWeights;
  double outputBias = 0.0;
  std::vector<double> mean;
  std::vector<double> scale;

  /// MlpClassifier::predictProba's expressions.
  [[nodiscard]] double predictProba(RowView features) const {
    const auto hidden = static_cast<std::size_t>(hyper.hiddenUnits);
    double output = outputBias;
    for (std::size_t h = 0; h < hidden; ++h) {
      double z = hiddenBias[h];
      for (std::size_t f = 0; f < inputs && f < features.size(); ++f) {
        z += hiddenWeights[h * inputs + f] * (features[f] - mean[f]) / scale[f];
      }
      output += outputWeights[h] * std::tanh(z);
    }
    return sigmoid(output);
  }
};

/// Full-batch Adam on weighted binary cross-entropy, one forward pass per row.
inline Mlp fitMlp(const Dataset& data, MlpHyper hyper, support::Rng& rng) {
  Mlp model;
  model.hyper = hyper;
  model.inputs = static_cast<std::size_t>(data.featureCount());
  const auto hidden = static_cast<std::size_t>(hyper.hiddenUnits);
  const std::size_t inputs = model.inputs;
  model.hiddenWeights.assign(hidden * inputs, 0.0);
  model.hiddenBias.assign(hidden, 0.0);
  model.outputWeights.assign(hidden, 0.0);
  standardize(data, model.mean, model.scale);
  if (data.empty()) return model;

  const double initScale = std::sqrt(2.0 / static_cast<double>(inputs + hidden));
  for (double& w : model.hiddenWeights) w = rng.gaussian() * initScale;
  for (double& w : model.outputWeights) w = rng.gaussian() * initScale;
  const double totalWeight = data.totalWeight();

  Adam adamHiddenW{model.hiddenWeights.size()};
  Adam adamHiddenB{model.hiddenBias.size()};
  Adam adamOutputW{model.outputWeights.size()};
  Adam adamOutputB{1};
  std::vector<double> gradHiddenW(model.hiddenWeights.size());
  std::vector<double> gradHiddenB(model.hiddenBias.size());
  std::vector<double> gradOutputW(model.outputWeights.size());
  std::vector<double> gradOutputB(1);
  std::vector<double> normalized(inputs);
  std::vector<double> activations(hidden);

  for (int epoch = 0; epoch < hyper.epochs; ++epoch) {
    std::fill(gradHiddenW.begin(), gradHiddenW.end(), 0.0);
    std::fill(gradHiddenB.begin(), gradHiddenB.end(), 0.0);
    std::fill(gradOutputW.begin(), gradOutputW.end(), 0.0);
    gradOutputB[0] = 0.0;

    for (std::size_t i = 0; i < data.size(); ++i) {
      const RowView row = data.row(i);
      for (std::size_t f = 0; f < inputs; ++f) {
        normalized[f] = (row[f] - model.mean[f]) / model.scale[f];
      }
      double output = model.outputBias;
      for (std::size_t h = 0; h < hidden; ++h) {
        double z = model.hiddenBias[h];
        for (std::size_t f = 0; f < inputs; ++f) {
          z += model.hiddenWeights[h * inputs + f] * normalized[f];
        }
        activations[h] = std::tanh(z);
        output += model.outputWeights[h] * activations[h];
      }
      const double prediction = sigmoid(output);
      const double error =
          data.weight(i) * (prediction - static_cast<double>(data.label(i))) / totalWeight;

      gradOutputB[0] += error;
      for (std::size_t h = 0; h < hidden; ++h) {
        gradOutputW[h] += error * activations[h];
        const double hiddenError =
            error * model.outputWeights[h] * (1.0 - activations[h] * activations[h]);
        gradHiddenB[h] += hiddenError;
        for (std::size_t f = 0; f < inputs; ++f) {
          gradHiddenW[h * inputs + f] += hiddenError * normalized[f];
        }
      }
    }

    for (std::size_t j = 0; j < model.hiddenWeights.size(); ++j) {
      gradHiddenW[j] += hyper.l2 * model.hiddenWeights[j];
    }
    for (std::size_t j = 0; j < model.outputWeights.size(); ++j) {
      gradOutputW[j] += hyper.l2 * model.outputWeights[j];
    }

    adamHiddenW.update(model.hiddenWeights, gradHiddenW, hyper.learningRate);
    adamHiddenB.update(model.hiddenBias, gradHiddenB, hyper.learningRate);
    adamOutputW.update(model.outputWeights, gradOutputW, hyper.learningRate);
    std::vector<double> biasVec{model.outputBias};
    adamOutputB.update(biasVec, gradOutputB, hyper.learningRate);
    model.outputBias = biasVec[0];
  }
  return model;
}

struct Logistic {
  std::vector<double> weights;
  double bias = 0.0;
  std::vector<double> mean;
  std::vector<double> scale;

  /// LogisticRegression::predictProba's expressions.
  [[nodiscard]] double predictProba(RowView features) const {
    double z = bias;
    for (std::size_t f = 0; f < features.size() && f < weights.size(); ++f) {
      z += weights[f] * (features[f] - mean[f]) / scale[f];
    }
    return sigmoid(z);
  }
};

/// Full-batch gradient descent with L2, one sigmoid(z) per row.
inline Logistic fitLogistic(const Dataset& data, LogisticHyper hyper) {
  Logistic model;
  const auto features = static_cast<std::size_t>(data.featureCount());
  model.weights.assign(features, 0.0);
  standardize(data, model.mean, model.scale);
  if (data.empty()) return model;
  const double totalWeight = data.totalWeight();

  std::vector<double> gradient(features);
  for (int epoch = 0; epoch < hyper.epochs; ++epoch) {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    double biasGradient = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const RowView row = data.row(i);
      double z = model.bias;
      for (std::size_t f = 0; f < features; ++f) {
        z += model.weights[f] * (row[f] - model.mean[f]) / model.scale[f];
      }
      const double error = sigmoid(z) - static_cast<double>(data.label(i));
      const double scaledError = data.weight(i) * error / totalWeight;
      for (std::size_t f = 0; f < features; ++f) {
        gradient[f] += scaledError * (row[f] - model.mean[f]) / model.scale[f];
      }
      biasGradient += scaledError;
    }
    for (std::size_t f = 0; f < features; ++f) {
      gradient[f] += hyper.l2 * model.weights[f];
      model.weights[f] -= hyper.learningRate * gradient[f];
    }
    model.bias -= hyper.learningRate * biasGradient;
  }
  return model;
}

}  // namespace rtlock::ml::reference
