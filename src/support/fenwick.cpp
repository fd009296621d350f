#include "support/fenwick.hpp"

namespace fairchain {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t HighestPowerOfTwoAtMost(std::size_t size) {
  if (size == 0) return 0;
  std::size_t mask = 1;
  while (mask * 2 <= size) mask *= 2;
  return mask;
}

}  // namespace

void FenwickSampler::Build(const std::vector<double>& weights) {
  size_ = weights.size();
  mask_ = HighestPowerOfTwoAtMost(size_);
  // The branchless descents probe nodes up to 2 x mask_ - 1 without a
  // bounds check; nodes beyond size_ hold +inf so `t <= remaining` can
  // never take them (see SampleFlat).
  const std::size_t slots = size_ + 1 > 2 * mask_ ? size_ + 1 : 2 * mask_;
  tree_.assign(slots, kInf);
  for (std::size_t k = 0; k <= size_; ++k) tree_[k] = 0.0;
  total_ = 0.0;
  // O(m) construction: place each element, then push its running sum to the
  // immediate parent; every node receives exactly the sums it needs.
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t k = i + 1;
    tree_[k] += weights[i];
    total_ += weights[i];
    const std::size_t parent = k + (k & (~k + 1));
    if (parent <= size_) tree_[parent] += tree_[k];
  }
}

}  // namespace fairchain
