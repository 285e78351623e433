#include "ml/forest.hpp"

#include <cmath>

namespace rtlock::ml {

std::string RandomForest::name() const {
  return "forest(trees=" + std::to_string(hyper_.trees) +
         ",depth=" + std::to_string(hyper_.maxDepth) + ")";
}

void RandomForest::fit(const Dataset& data, support::Rng& rng) {
  trees_.clear();
  if (data.empty()) return;

  const int subset = hyper_.featureSubset > 0
                         ? hyper_.featureSubset
                         : static_cast<int>(std::ceil(std::sqrt(data.featureCount())));

  DecisionTree::Hyper treeHyper;
  treeHyper.maxDepth = hyper_.maxDepth;
  treeHyper.featureSubset = subset;

  for (int t = 0; t < hyper_.trees; ++t) {
    // Bootstrap by row (weights carried over): classic bagging.  Each row
    // re-interns its tuple — no per-row vector churn.
    Dataset bootstrap{data.featureCount()};
    bootstrap.reserveRows(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      const auto row = static_cast<std::size_t>(rng.below(data.size()));
      bootstrap.add(data.row(row), data.label(row), data.weight(row));
    }
    DecisionTree tree{treeHyper};
    tree.fit(bootstrap, rng);
    trees_.push_back(std::move(tree));
  }
}

double RandomForest::probaOf(RowView features) const {
  if (trees_.empty()) return 0.5;
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predictProba(features);
  return sum / static_cast<double>(trees_.size());
}

std::unique_ptr<Classifier> RandomForest::fresh() const {
  return std::make_unique<RandomForest>(hyper_);
}

}  // namespace rtlock::ml
