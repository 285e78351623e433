#include "ml/dataset.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "support/diagnostics.hpp"

namespace rtlock::ml {

namespace {

constexpr std::uint32_t kEmpty = UINT32_MAX;
constexpr std::size_t kInitialSlots = 64;  // power of two; doubled past 1/4 full

/// Word-wise mix over a tuple's exact double bit patterns.  Only equality
/// (exact bytes) decides interning — the hash merely routes probes.  Small
/// integer-valued doubles differ only in their high bits while the probe
/// index is taken from the low bits, so a 64-bit finalizer (murmur3 fmix64)
/// spreads every input bit over the whole word.
[[nodiscard]] std::uint64_t hashTuple(RowView tuple) noexcept {
  std::uint64_t hash = 1469598103934665603ull;
  for (const double value : tuple) {
    hash = (hash ^ std::bit_cast<std::uint64_t>(value)) * 0x9e3779b97f4a7c15ull;
  }
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  return hash ^ (hash >> 33);
}

/// Exact bit-pattern equality of two equal-length tuples (-0.0 != 0.0).
[[nodiscard]] bool sameBits(RowView a, RowView b) noexcept {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  }
  return true;
}

}  // namespace

Dataset::Dataset(int featureCount) : featureCount_(featureCount) {
  RTLOCK_REQUIRE(featureCount >= 1, "datasets need at least one feature");
}

void Dataset::add(RowView features, int label, double weight) {
  RTLOCK_REQUIRE(static_cast<int>(features.size()) == featureCount_,
                 "feature row arity mismatch");
  RTLOCK_REQUIRE(label == 0 || label == 1, "binary labels only");
  RTLOCK_REQUIRE(weight > 0.0, "weights must be positive");
  keys_.push_back(intern(features) << 1 | static_cast<std::uint32_t>(label));
  weights_.push_back(weight);
}

std::uint32_t Dataset::intern(RowView features) {
  const std::uint64_t hash = hashTuple(features);
  if (!slots_.empty()) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = hash & mask; slots_[slot] != kEmpty; slot = (slot + 1) & mask) {
      const std::uint32_t code = slots_[slot];
      if (tupleHashes_[code] == hash && sameBits(tuple(code), features)) return code;
    }
  }
  // A new tuple cannot alias this pool (every stored tuple was found above),
  // so growing the pool here is safe for the caller's view.
  const auto code = static_cast<std::uint32_t>(tupleHashes_.size());
  RTLOCK_REQUIRE(code < (1u << 31), "too many distinct feature tuples");
  tupleValues_.insert(tupleValues_.end(), features.begin(), features.end());
  tupleHashes_.push_back(hash);
  indexTuple(code);
  return code;
}

void Dataset::indexTuple(std::uint32_t code) {
  const auto place = [this](std::uint32_t c) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = tupleHashes_[c] & mask;
    while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
    slots_[slot] = c;
  };
  if (tupleHashes_.size() * 4 <= slots_.size()) {
    place(code);
    return;
  }
  slots_.assign(std::max(kInitialSlots, slots_.size() * 2), kEmpty);
  for (std::uint32_t c = 0; c <= code; ++c) place(c);
}

Dataset Dataset::withPoolOnly() const {
  Dataset result{featureCount_};
  result.tupleValues_ = tupleValues_;
  result.tupleHashes_ = tupleHashes_;
  result.slots_ = slots_;
  return result;
}

void Dataset::reserveRows(std::size_t rows) {
  keys_.reserve(keys_.size() + rows);
  weights_.reserve(weights_.size() + rows);
}

double Dataset::totalWeight() const noexcept {
  return std::accumulate(weights_.begin(), weights_.end(), 0.0);
}

double Dataset::positiveFraction() const noexcept {
  double positive = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    total += weights_[i];
    if (label(i) == 1) positive += weights_[i];
  }
  return total == 0.0 ? 0.0 : positive / total;
}

/// First-seen aggregation over (tuple code, label) keys.  The result shares
/// the source's tuple pool, so a key carries over unchanged and a dense
/// key -> result-row table replaces row hashing.
class Dataset::Aggregator {
 public:
  explicit Aggregator(const Dataset& source)
      : result_(source.withPoolOnly()), rowOfKey_(source.tupleHashes_.size() * 2, kEmpty) {}

  void consume(std::uint32_t key, double weight) {
    std::uint32_t& row = rowOfKey_[key];
    if (row == kEmpty) {
      row = static_cast<std::uint32_t>(result_.keys_.size());
      result_.keys_.push_back(key);
      result_.weights_.push_back(weight);
    } else {
      result_.weights_[row] += weight;
    }
  }

  [[nodiscard]] Dataset take() && { return std::move(result_); }

 private:
  Dataset result_;
  std::vector<std::uint32_t> rowOfKey_;
};

Dataset Dataset::aggregated() const {
  Aggregator aggregator{*this};
  for (std::size_t i = 0; i < size(); ++i) aggregator.consume(keys_[i], weights_[i]);
  return std::move(aggregator).take();
}

KFoldAggregates Dataset::kFoldAggregated(int folds, support::Rng& rng) const {
  RTLOCK_REQUIRE(folds >= 2, "k-fold needs at least two folds");
  RTLOCK_REQUIRE(size() <= UINT32_MAX, "k-fold supports at most 2^32 - 1 rows");
  // Rng::shuffle's draws depend only on the length, so 32-bit positions give
  // the same permutation as any wider index type.
  std::vector<std::uint32_t> order(size());
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(order);

  const auto foldCount = static_cast<std::size_t>(folds);
  std::vector<std::uint32_t> foldOf(size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    foldOf[order[i]] = static_cast<std::uint32_t>(i % foldCount);
  }

  // One pass in ascending row order: row i feeds its own fold's validation
  // aggregate, every other fold's train aggregate, and the whole-set one.
  std::vector<Aggregator> trains;
  std::vector<Aggregator> validations;
  trains.reserve(foldCount);
  validations.reserve(foldCount);
  for (std::size_t fold = 0; fold < foldCount; ++fold) {
    trains.emplace_back(*this);
    validations.emplace_back(*this);
  }
  Aggregator full{*this};
  for (std::size_t i = 0; i < size(); ++i) {
    const std::uint32_t key = keys_[i];
    const double w = weights_[i];
    for (std::size_t fold = 0; fold < foldCount; ++fold) {
      (foldOf[i] == fold ? validations : trains)[fold].consume(key, w);
    }
    full.consume(key, w);
  }

  KFoldAggregates result;
  result.folds.reserve(foldCount);
  for (std::size_t fold = 0; fold < foldCount; ++fold) {
    result.folds.emplace_back(std::move(trains[fold]).take(),
                              std::move(validations[fold]).take());
  }
  result.all = std::move(full).take();
  return result;
}

Dataset Dataset::sampled(std::size_t maxRows, support::Rng& rng) const {
  if (size() <= maxRows) return *this;
  Dataset result = withPoolOnly();
  result.reserveRows(maxRows);
  const auto indices = rng.sampleIndices(size(), maxRows);
  const double scale = static_cast<double>(size()) / static_cast<double>(maxRows);
  for (const std::size_t i : indices) {
    result.keys_.push_back(keys_[i]);
    result.weights_.push_back(weights_[i] * scale);
  }
  return result;
}

}  // namespace rtlock::ml
