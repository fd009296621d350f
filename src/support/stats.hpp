// Streaming and batch statistics used by the Monte Carlo engine.
//
// RunningStats implements Welford's numerically stable online algorithm with
// pairwise merging (so per-thread accumulators can be combined without bias).
// Quantile() uses the linear-interpolation definition (type 7 in Hyndman &
// Fan), matching the percentile bands the paper plots (5th / 95th).

#ifndef FAIRCHAIN_SUPPORT_STATS_HPP_
#define FAIRCHAIN_SUPPORT_STATS_HPP_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace fairchain {

/// Online mean / variance / extrema accumulator (Welford).
class RunningStats {
 public:
  RunningStats() = default;

  /// Adds one observation.  Inline, so a caller's loop can overlap this
  /// chain with independent ones (ReduceToResult's single pass).
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merges another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);

  /// Number of observations.
  std::uint64_t count() const { return count_; }
  /// Sample mean (0 when empty).
  double Mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance (0 when count < 2).
  double Variance() const;
  /// Unbiased sample standard deviation.
  double StdDev() const;
  /// Standard error of the mean.
  double StdError() const;
  /// Smallest observation (+inf when empty).
  double Min() const { return min_; }
  /// Largest observation (-inf when empty).
  double Max() const { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Kahan-compensated summation: exact to double precision for long series.
class KahanSum {
 public:
  /// Adds a term (inline, like RunningStats::Add).
  void Add(double x) {
    const double y = x - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }
  /// Current compensated total.
  double Total() const { return sum_ + compensation_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Returns the q-quantile (q in [0,1]) of `values` by linear interpolation.
/// The input is copied and partially sorted; throws on empty input.
double Quantile(std::vector<double> values, double q);

/// Computes several quantiles in one sort pass (more efficient than repeated
/// Quantile calls).  `qs` entries must lie in [0,1]; throws on empty input.
std::vector<double> Quantiles(std::vector<double> values,
                              const std::vector<double>& qs);

/// Allocation-free core of Quantiles: sorts `values` IN PLACE (the buffer
/// is left sorted) and writes the quantiles into `out`, resized to
/// qs.size().  Callers that reduce many same-sized samples reuse one
/// buffer pair across calls — the Monte Carlo per-checkpoint reduction
/// path.  Same validation as Quantiles.
void QuantilesInPlace(std::vector<double>& values,
                      const std::vector<double>& qs,
                      std::vector<double>* out);

/// Fraction of `values` strictly outside [lo, hi].
double FractionOutside(const std::vector<double>& values, double lo, double hi);

/// Fixed-width histogram over [lo, hi) with `bins` buckets plus underflow /
/// overflow counters; used by examples to render reward distributions.
class Histogram {
 public:
  /// Creates a histogram; throws std::invalid_argument when hi <= lo or
  /// bins == 0.
  Histogram(double lo, double hi, std::size_t bins);

  /// Inserts an observation.
  void Add(double x);

  /// Count in bucket `i` (i < bins()).
  std::uint64_t BucketCount(std::size_t i) const { return counts_[i]; }
  /// Inclusive lower edge of bucket `i`.
  double BucketLow(std::size_t i) const;
  /// Exclusive upper edge of bucket `i`.
  double BucketHigh(std::size_t i) const;

  std::size_t bins() const { return counts_.size(); }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }

  /// Renders a fixed-width ASCII bar chart (one bucket per line).
  std::string ToAscii(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_STATS_HPP_
