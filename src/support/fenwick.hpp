// Fenwick (binary indexed) tree over non-negative weights, specialised for
// proportional sampling.
//
// This is the data structure behind the O(log m) Monte Carlo hot path: the
// protocol models draw the next proposer proportionally to stake with
// Sample() (one prefix-sum descent) and reinforce the winner with Add()
// (one update path), replacing the O(m) cumulative scan that capped
// simulations at small miner populations.  Build() is O(m) and is used by
// StakeState::Reset and after batched stake releases (reward withholding),
// where rebuilding once beats m individual update paths.
//
// Weights live in the tree as partial sums only; Weight() recovers a single
// element in O(log m) for tests and debugging.

#ifndef FAIRCHAIN_SUPPORT_FENWICK_HPP_
#define FAIRCHAIN_SUPPORT_FENWICK_HPP_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace fairchain {

/// Fenwick tree over `size()` non-negative double weights.
class FenwickSampler {
 public:
  FenwickSampler() = default;

  /// Rebuilds the tree over `weights` in O(m); negative entries are a
  /// precondition violation (the callers validate stakes on construction).
  void Build(const std::vector<double>& weights);

  /// Adds `delta` to element `i` in O(log m).  Defined inline: this is the
  /// per-step reinforcement of every compounding protocol, and the batched
  /// RunSteps loops rely on it folding into their inner loop.  The
  /// two-element game updates straight-line (adding a masked +0.0 is exact
  /// on these non-negative sums, so the update set matches the loop's).
  void Add(std::size_t i, double delta) {
    total_ += delta;
    if (size_ == 2) {
      tree_[1] += MaskDouble(delta, i == 0);
      tree_[2] += delta;
      return;
    }
    for (std::size_t k = i + 1; k <= size_; k += k & (~k + 1)) {
      tree_[k] += delta;
    }
  }

  /// Sum of elements [0, i) in O(log m).
  double PrefixSum(std::size_t i) const {
    double sum = 0.0;
    for (std::size_t k = i; k > 0; k -= k & (~k + 1)) {
      sum += tree_[k];
    }
    return sum;
  }

  /// Element `i` alone, in O(log m).
  double Weight(std::size_t i) const { return PrefixSum(i + 1) - PrefixSum(i); }

  /// Sum of all elements, as the tree accumulates it.  May differ from an
  /// externally tracked total in the last few ulps; Sample() therefore
  /// scales against this value, never an external one.
  double Total() const { return total_; }

  /// Number of elements.
  std::size_t size() const { return size_; }

  /// Proportional selection: maps `u01` in [0, 1) to the smallest index i
  /// with PrefixSum(i + 1) > u01 * Total().  Zero-weight elements are never
  /// selected (their prefix sums tie with their predecessor's).  When
  /// floating-point rounding pushes the target past every prefix sum, the
  /// last positive-weight element wins — mirroring the linear scan's
  /// return-last fallback.  The result is ALWAYS in [0, max(size, 1)):
  /// u01 at or beyond 1.0, an all-zero tree, and even an empty tree clamp
  /// to an in-range index (0 in the degenerate cases) instead of reading
  /// out of bounds.
  /// Inline for the same reason as Add: one Sample per simulated block.
  ///
  /// This is the branch-based descent: a level whose node is skipped costs
  /// only a predicted compare.  Fastest when the weight distribution is
  /// CONCENTRATED (a compounding game that has crowned early winners): the
  /// descent path repeats, the predictor learns it, skips are free.  The
  /// two-element game (the paper's default) resolves with the same two
  /// comparisons the descent would make, minus the loop.
  std::size_t Sample(double u01) const {
    double remaining = u01 * total_;
    if (size_ == 2) return SampleTwo(remaining);
    std::size_t index = 0;
    for (std::size_t bit = mask_; bit != 0; bit >>= 1) {
      const std::size_t next = index + bit;
      if (next <= size_ && tree_[next] <= remaining) {
        index = next;
        remaining -= tree_[next];
      }
    }
    // `index` counts the elements whose cumulative sum is <= the target, so
    // it is the 0-based winner — unless rounding overran every prefix, in
    // which case walk back to the last element with positive weight.
    return index < size_ ? index : LastPositive();
  }

  /// Same selection as Sample — bit-for-bit, for every input — via a
  /// BRANCHLESS descent: `take ? bit : 0` compiles to a conditional move
  /// and the subtrahend is masked to exactly t or exactly +0.0 in the bit
  /// domain, so a mispredictable take/skip decision never flushes the
  /// pipeline.  Fastest when the distribution is FLAT or heavy-tailed but
  /// static (PoW / NEO, whose stakes never change: each level's decision
  /// is a fresh coin flip the predictor cannot learn) — measured (gcc
  /// Release, pareto:1.16): 37 → 17 ns at m = 100, 104 → 70 ns at m =
  /// 100k.  On a concentrated evolving tree the always-executed
  /// compare-mask-subtract chain loses to Sample's predicted skips, which
  /// is why the compounding protocols keep the branchy descent.
  ///
  /// The descent body has no bounds branch at all: Build pads the tree out
  /// to 2 x mask_ nodes with +inf, so an out-of-range node compares
  /// `+inf <= remaining` (never true, for any finite target) and is skipped
  /// by the same conditional move that skips a too-heavy real node.  The
  /// selected index is identical to the bounds-checked descent, and the
  /// loop body becomes a pure compare/cmov/mask chain.
  std::size_t SampleFlat(double u01) const {
    double remaining = u01 * total_;
    if (size_ == 2) return SampleTwo(remaining);
    std::size_t index = 0;
    for (std::size_t bit = mask_; bit != 0; bit >>= 1) {
      const double t = tree_[index + bit];
      const bool take = t <= remaining;
      index += take ? bit : 0;
      remaining -= MaskDouble(t, take);
    }
    return index < size_ ? index : LastPositive();
  }

 private:
  /// Rounding-overran fallback: the last element with positive weight.
  /// Clamped so it can never produce an out-of-range index: an empty or
  /// default-constructed tree returns 0 (size_ - 1 would wrap to
  /// SIZE_MAX), and an all-zero tree — where no element is selectable by
  /// weight — degrades to element 0 rather than reading past the end.
  /// Every descent funnels its u01 >= 1 / rounding-overran cases here, so
  /// this clamp is what bounds Sample/SampleFlat for ALL inputs.
  std::size_t LastPositive() const {
    if (size_ == 0) return 0;
    std::size_t index = size_ - 1;
    while (index > 0 && Weight(index) <= 0.0) --index;
    return index;
  }

  /// `condition ? value : +0.0` computed in the bit domain (no int→fp
  /// conversion, no branch); exact because masking all bits off IS +0.0.
  static double MaskDouble(double value, bool condition) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    bits &= 0ULL - static_cast<std::uint64_t>(condition);
    double masked;
    std::memcpy(&masked, &bits, sizeof(masked));
    return masked;
  }

  /// Two-element fast path shared by both descents: exactly the decisions
  /// the loop would make (compare tree_[2] at bit 2, tree_[1] at bit 1).
  std::size_t SampleTwo(double remaining) const {
    if (tree_[2] <= remaining) return LastPositive();  // rounding overran
    return tree_[1] <= remaining ? 1 : 0;
  }

  // tree_[k] (1-based) holds the sum of the k & -k elements ending at k.
  // Padded to 2 x mask_ nodes with +inf beyond size_ so the branchless
  // descents need no bounds check (see SampleFlat).
  std::vector<double> tree_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;  // highest power of two <= size_
  double total_ = 0.0;
};

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_FENWICK_HPP_
