// Fenwick (binary indexed) tree over non-negative weights, specialised for
// proportional sampling.
//
// This is the data structure behind the O(log m) Monte Carlo hot path: the
// protocol models draw the next proposer proportionally to stake with
// Sample() (one prefix-sum descent) and reinforce the winner with Add()
// (one update path), replacing the O(m) cumulative scan that capped
// simulations at small miner populations.  Build() is O(m) and is used at
// construction and after batched stake releases (reward withholding), where
// rebuilding once beats m individual update paths.  RestorePath() undoes
// one element's updates in O(log m) by copying its path back from a
// pristine tree, which is how StakeState::Reset restarts a game without
// touching the elements the game never credited.
//
// Weights live in the tree as partial sums only; Weight() recovers a single
// element in O(log m) for tests and debugging.  Which elements weigh
// exactly zero is kept beside the tree, and only when one does: node sums
// over different ranges round differently, so the tree alone cannot tell
// a zero weight from a few ulps of rounding (see Sample).
//
// The stepping loop draws four winners per call with the four-lane
// SampleFlat: four descents in lock-step, so the node loads of one level
// are in flight together instead of one latency-bound chain of dependent
// loads per block.  A compounding game (ML-PoS, FSL-PoS) passes
// the reward each winner is credited: every lane then reads the tree as
// the earlier lanes' Adds would have left it, with the same float
// operations in the same order.  Static-stake games (PoW, NEO) credit
// nothing to the tree and take the correction-free instantiation.

#ifndef FAIRCHAIN_SUPPORT_FENWICK_HPP_
#define FAIRCHAIN_SUPPORT_FENWICK_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace fairchain {

/// Fenwick tree over `size()` non-negative double weights.
class FenwickSampler {
 public:
  /// Draws per lock-step SampleFlat call.  Four descents keep enough loads
  /// in flight to hide most of a deep tree's latency; eight measured no
  /// faster at m = 10^5 and slower at m = 100 to 10^4.
  static constexpr std::size_t kLanes = 4;
  using LaneUniforms = std::array<double, kLanes>;
  using LaneIndices = std::array<std::size_t, kLanes>;

  FenwickSampler() = default;

  /// Rebuilds the tree over `weights` in O(m); negative entries are a
  /// precondition violation (the callers validate stakes on construction).
  void Build(const std::vector<double>& weights);

  /// Adds `delta` (>= 0) to element `i` in O(log m).  Defined inline: this
  /// is the per-step reinforcement of every compounding protocol, and the
  /// batched RunSteps loops rely on it folding into their inner loop.  The
  /// two-element game updates straight-line (adding a masked +0.0 is exact
  /// on these non-negative sums, so the update set matches the loop's).
  void Add(std::size_t i, double delta) {
    total_ += delta;
    if (draw_limit_ != size_) [[unlikely]] {
      zero_[i] &= static_cast<std::uint8_t>(delta == 0.0);
    }
    if (size_ == 2) {
      tree_[1] += MaskDouble(delta, FullMask(i == 0));
      tree_[2] += delta;
      return;
    }
    for (std::size_t k = i + 1; k <= size_; k += k & (~k + 1)) {
      tree_[k] += delta;
    }
  }

  /// Copies, from `pristine` (a tree of the same size), the nodes on
  /// element i's Add path and the total, in O(log m).  Add(i, .) writes
  /// only those nodes, and Build computes every node from the weights in
  /// that node's own range, so once every element whose weight changed has
  /// been restored this way the tree is bit-identical to `pristine`.
  void RestorePath(std::size_t i, const FenwickSampler& pristine) {
    total_ = pristine.total_;
    for (std::size_t k = i + 1; k <= size_; k += k & (~k + 1)) {
      tree_[k] = pristine.tree_[k];
    }
    if (draw_limit_ != size_ || pristine.draw_limit_ != size_) {
      RestoreZero(i, pristine);
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
  /// selected.  In exact arithmetic a zero weight's prefix sums tie with
  /// its predecessor's, but the descent compares the target against node
  /// sums over different ranges, which round differently: a target within
  /// a few ulps of the boundary can land on a zero-weight element, or run
  /// past every prefix sum.  Then the next positive-weight element wins,
  /// or the last one when none follows — mirroring the linear scan's
  /// return-last fallback.  (Within those ulps either neighbour of a zero
  /// run is as right as double sums can tell.)  The result is ALWAYS in
  /// [0, max(size, 1)): u01 at or beyond 1.0, an all-zero tree, and even
  /// an empty tree clamp to an in-range index (0 in the degenerate cases)
  /// instead of reading out of bounds.
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
    // it is the 0-based winner — unless rounding overran every prefix or
    // landed on a zero weight (see Winner).
    return Winner(index);
  }

  /// Same selection as Sample — bit-for-bit, for every input — via a
  /// BRANCHLESS descent: the take/skip decision becomes a mask that keeps
  /// or clears both the index step and the subtrahend (exactly t or
  /// exactly +0.0, in the bit domain), so a mispredictable decision never
  /// flushes the pipeline.  Fastest when the distribution is FLAT or
  /// heavy-tailed but static (PoW / NEO, whose stakes never change: each
  /// level's decision is a fresh coin flip the predictor cannot learn).
  /// For one draw at a time on a concentrated evolving tree the
  /// always-executed compare-mask-subtract chain loses to Sample's
  /// predicted skips, so a compounding game's single steps stay on Sample;
  /// four draws at a time, every model takes the lane overloads below.
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
      const std::uint64_t take = FullMask(t <= remaining);
      index += bit & take;
      remaining -= MaskDouble(t, take);
    }
    return Winner(index);
  }

  /// Four SampleFlat selections in one call: lane k returns exactly
  /// SampleFlat(u01[k]), bit for bit, for every input.  The lanes descend
  /// in lock-step, one tree level at a time, so their four independent
  /// node loads overlap instead of each draw paying its own chain of
  /// dependent cache misses — the win on deep static trees (a 10^5-miner
  /// tree is 17 levels over 1 MB).  For draws that no credit between them
  /// can move: PoW / NEO, whose stakes never change.
  LaneIndices SampleFlat(const LaneUniforms& u01) const {
    return SampleLanes<false>(u01, 0.0);
  }

  /// The same lock-step descent for draws that each credit `delta` (>= 0)
  /// to their winner: lane k returns exactly Sample(u01[k]) as it would
  /// read after Add(winner[l], delta) for every lane l < k, in lane order,
  /// for every input.  One credit changes only the nodes over its winner,
  /// so at each level a lane adds `delta` for each earlier lane that
  /// credits the node it probes, in lane order — the float additions Add
  /// would have made to that node — and the total grows by `delta` per
  /// earlier lane the same way.  Adding a masked +0.0 for the other lanes
  /// is exact on these non-negative sums, as in Add's two-element path.
  /// The tree itself is not changed: the caller makes the Adds.
  LaneIndices SampleFlat(const LaneUniforms& u01, double delta) const {
    return SampleLanes<true>(u01, delta);
  }

  /// True when some element weighs exactly zero.
  bool has_zero_weight() const { return draw_limit_ != size_; }

 private:
  /// The one lock-step descent; kCredited adds the earlier lanes' credits
  /// (see the two SampleFlat overloads above).
  template <bool kCredited>
  LaneIndices SampleLanes(const LaneUniforms& u01, double delta) const {
    LaneIndices index{};
    std::array<double, kLanes> remaining;
    double total = total_;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      remaining[lane] = u01[lane] * total;
      if constexpr (kCredited) total += delta;
    }
    if constexpr (!kCredited) {
      if (size_ == 2) {
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          index[lane] = SampleTwo(remaining[lane]);
        }
        return index;
      }
    }
    for (std::size_t bit = mask_; bit != 0; bit >>= 1) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        double t = tree_[index[lane] + bit];
        if constexpr (kCredited) {
          // The node holds elements [index, index + bit).  Earlier lane l
          // credits it iff its winner lies there: it shared this lane's
          // prefix and skipped the node, i.e. its already-updated index
          // still equals this lane's (one that took the node now sits at
          // an odd multiple of bit, which no prefix at this level is).
          for (std::size_t l = 0; l < lane; ++l) {
            t += MaskDouble(delta, FullMask(index[l] == index[lane]));
          }
        }
        const std::uint64_t take = FullMask(t <= remaining[lane]);
        index[lane] += bit & take;
        remaining[lane] -= MaskDouble(t, take);
      }
    }
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (index[lane] < draw_limit_) [[likely]] continue;
      const std::size_t raw = index[lane];
      index[lane] = PositiveNear(raw);
      if constexpr (kCredited) {
        // The later lanes credited `raw`'s nodes, not the winner's.
        if (index[lane] != raw) {
          RedrawAfter(lane, u01, delta, &index);
          break;
        }
      }
    }
    return index;
  }

  /// Lanes after `lane` drawn again one at a time, each against the known
  /// winners of the lanes before it: the exact fallback once a lane's
  /// winner differs from its raw descent index (a rounding overrun, or a
  /// landing on a zero weight).  Zero-weight flags are read as they stand:
  /// a credit changes one only by landing on a zero weight, which happens
  /// only in an all-zero tree, and there every draw returns element 0
  /// with or without it.
  void RedrawAfter(std::size_t lane, const LaneUniforms& u01, double delta,
                   LaneIndices* index) const;

  /// Maps a descent's raw index — the number of prefix sums at or below
  /// the target — to the selected element.  A population without a zero
  /// weight pays the one predicted compare the overrun check always cost;
  /// the rest (rounding overran every prefix, any draw over a tree with a
  /// zero weight, an empty tree) goes out of line.
  std::size_t Winner(std::size_t index) const {
    if (index < draw_limit_) [[likely]] return index;
    return PositiveNear(index);
  }

  /// The first positive-weight element at or after `index`, else the last
  /// one before it.  Clamped so it can never produce an out-of-range
  /// index: an empty or default-constructed tree returns 0 (size_ - 1
  /// would wrap to SIZE_MAX), and an all-zero tree — where no element is
  /// selectable by weight — degrades to element 0 rather than reading
  /// past the end.  Every descent funnels its u01 >= 1, rounding-overran
  /// and zero-weight cases here, so this clamp is what bounds every
  /// descent for ALL inputs.
  std::size_t PositiveNear(std::size_t index) const;

  /// RestorePath's half for the zero-weight flags.
  void RestoreZero(std::size_t i, const FenwickSampler& pristine);

  /// All ones if `condition`, else zero: a descent decision as a mask.
  /// Deciding once and masking both the index step and the subtrahend
  /// keeps every lane of the lock-step descent a conditional move (with a
  /// bool per use, gcc 12 turns the last lane's into a branch).
  static std::uint64_t FullMask(bool condition) {
    return 0ULL - static_cast<std::uint64_t>(condition);
  }

  /// `value` under a full mask, +0.0 under a zero one, computed in the bit
  /// domain (no int→fp conversion, no branch); exact because masking all
  /// bits off IS +0.0.
  static double MaskDouble(double value, std::uint64_t mask) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    bits &= mask;
    double masked;
    std::memcpy(&masked, &bits, sizeof(masked));
    return masked;
  }

  /// Two-element fast path shared by every descent: exactly the decisions
  /// the loop would make (compare tree_[2] at bit 2, tree_[1] at bit 1).
  /// Only the overrun needs PositiveNear: tree_[1] and tree_[2] start
  /// from the same w0 and receive the same credits to element 0, so while
  /// w1 is zero they are equal and index 1 is never reached, and a zero
  /// w0 (tree_[1] = 0) is always at or below the target.
  std::size_t SampleTwo(double remaining) const {
    if (tree_[2] <= remaining) return PositiveNear(2);  // rounding overran
    return tree_[1] <= remaining ? 1 : 0;
  }

  // tree_[k] (1-based) holds the sum of the k & -k elements ending at k.
  // Padded to 2 x mask_ nodes with +inf beyond size_ so the branchless
  // descents need no bounds check (see SampleFlat).
  std::vector<double> tree_;
  // zero_[i] != 0 iff element i weighs exactly 0; Build, Add and
  // RestorePath keep it exact.  Empty when no element does (the
  // registry's populations).  draw_limit_ is size_ while zero_ is empty
  // and 0 otherwise: a descent's index below it is the winner as it
  // stands, so draws over a population without a zero weight never touch
  // zero_, and every other draw checks it.
  std::vector<std::uint8_t> zero_;
  std::size_t draw_limit_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;  // highest power of two <= size_
  double total_ = 0.0;
};

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_FENWICK_HPP_
