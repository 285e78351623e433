#include "support/rng.hpp"

#include <cstdint>
#include <numeric>

namespace rtlock::support {

namespace {

/// Partial Fisher-Yates over a pool of `Position`s: after step i, sample[i]
/// holds the value swapped into slot i.  Slot i is never read again, so the
/// pool keeps only the value moved out to slot j.
template <typename Position>
std::vector<std::size_t> partialFisherYates(Rng& rng, std::size_t n, std::size_t k) {
  std::vector<Position> pool(n);
  std::iota(pool.begin(), pool.end(), Position{0});
  std::vector<std::size_t> sample(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(rng.below(n - i));
    sample[i] = pool[j];
    pool[j] = pool[i];
  }
  return sample;
}

}  // namespace

std::vector<std::size_t> Rng::sampleIndices(std::size_t n, std::size_t k) {
  RTLOCK_REQUIRE(k <= n, "cannot sample more indices than the population size");
  // 32-bit positions halve the pool for every population a Dataset can hold.
  return n <= UINT32_MAX ? partialFisherYates<std::uint32_t>(*this, n, k)
                         : partialFisherYates<std::size_t>(*this, n, k);
}

}  // namespace rtlock::support
