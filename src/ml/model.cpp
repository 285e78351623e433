#include "ml/model.hpp"

namespace rtlock::ml {

double accuracy(const Classifier& model, const Dataset& data) {
  if (data.empty()) return 0.0;
  double correct = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    total += data.weight(i);
    if (model.predict(data.row(i)) == data.label(i)) correct += data.weight(i);
  }
  return total == 0.0 ? 0.0 : correct / total;
}

}  // namespace rtlock::ml
