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

/// Computes several quantiles in one pass (more efficient than repeated
/// Quantile calls).  `qs` entries must lie in [0,1]; throws on empty input
/// or a NaN sample.
std::vector<double> Quantiles(std::vector<double> values,
                              const std::vector<double>& qs);

/// Allocation-free core of Quantiles: permutes `values` IN PLACE (into an
/// unspecified order) and writes the quantiles into `out`, resized to
/// qs.size() — the same bits Quantiles gives.  Instead of sorting, it
/// selects only the order statistics the interpolation reads: values go
/// to buckets by an index monotone in the value, and only the buckets
/// holding those ranks are sorted.
/// `scratch` holds the bucket counts; callers that reduce many same-sized
/// samples reuse one (values, out, scratch) triple across calls — the
/// Monte Carlo per-checkpoint reduction path.  Same validation as
/// Quantiles, and a NaN sample throws std::invalid_argument too.
void QuantilesInPlace(std::vector<double>& values,
                      const std::vector<double>& qs, std::vector<double>* out,
                      std::vector<std::size_t>* scratch);

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_STATS_HPP_
