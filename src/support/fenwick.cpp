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
  zero_.clear();
  for (std::size_t i = 0; i < size_; ++i) {
    if (weights[i] == 0.0) {
      if (zero_.empty()) zero_.assign(size_, 0);
      zero_[i] = 1;
    }
  }
  draw_limit_ = zero_.empty() ? size_ : 0;
}

std::size_t FenwickSampler::PositiveNear(std::size_t index) const {
  if (size_ == 0) return 0;
  // Without a zero weight only an overrun gets here: the last element.
  if (zero_.empty()) return size_ - 1;
  for (std::size_t k = index; k < size_; ++k) {
    if (zero_[k] == 0) return k;
  }
  for (std::size_t k = index < size_ ? index : size_; k > 0; --k) {
    if (zero_[k - 1] == 0) return k - 1;
  }
  return 0;
}

void FenwickSampler::RedrawAfter(std::size_t lane, const LaneUniforms& u01,
                                 double delta, LaneIndices* index) const {
  LaneIndices& winner = *index;
  double total = total_;
  for (std::size_t l = 0; l <= lane; ++l) total += delta;
  for (std::size_t k = lane + 1; k < kLanes; ++k, total += delta) {
    double remaining = u01[k] * total;
    std::size_t at = 0;
    for (std::size_t bit = mask_; bit != 0; bit >>= 1) {
      // Node at + bit holds elements [at, at + bit): lane l's Add reached
      // it iff winner[l] lies there.
      double t = tree_[at + bit];
      for (std::size_t l = 0; l < k; ++l) {
        t += MaskDouble(delta, FullMask(winner[l] - at < bit));
      }
      const std::uint64_t take = FullMask(t <= remaining);
      at += bit & take;
      remaining -= MaskDouble(t, take);
    }
    winner[k] = Winner(at);
  }
}

void FenwickSampler::RestoreZero(std::size_t i,
                                 const FenwickSampler& pristine) {
  if (pristine.zero_.empty()) {
    zero_[i] = 0;
    return;
  }
  // An empty zero_ means no element weighs zero now, so all-clear flags
  // are exact until element i gets its pristine flag back.
  if (zero_.empty()) zero_.assign(size_, 0);
  zero_[i] = pristine.zero_[i];
  draw_limit_ = 0;
}

}  // namespace fairchain
