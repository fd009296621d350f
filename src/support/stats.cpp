#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace fairchain {

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

double RunningStats::StdError() const {
  if (count_ == 0) return 0.0;
  return StdDev() / std::sqrt(static_cast<double>(count_));
}

namespace {

double InterpolatedQuantile(const std::vector<double>& sorted, double q) {
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  // x_lo + frac * (x_hi - x_lo), NOT x_lo(1-frac) + x_hi*frac: the latter
  // wobbles by an ulp when x_lo == x_hi, which made adjacent quantiles of a
  // constant sample non-monotone (caught by the verify layer's sanity
  // oracle).  This form is exact at coincident endpoints and monotone in q.
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("Quantile: empty input");
  if (!(q >= 0.0 && q <= 1.0)) {  // rejects NaN too
    throw std::invalid_argument("Quantile: q outside [0, 1]");
  }
  std::sort(values.begin(), values.end());
  return InterpolatedQuantile(values, q);
}

std::vector<double> Quantiles(std::vector<double> values,
                              const std::vector<double>& qs) {
  std::vector<double> out;
  QuantilesInPlace(values, qs, &out);
  return out;
}

void QuantilesInPlace(std::vector<double>& values,
                      const std::vector<double>& qs,
                      std::vector<double>* out) {
  if (values.empty()) throw std::invalid_argument("Quantiles: empty input");
  for (const double q : qs) {
    if (!(q >= 0.0 && q <= 1.0)) {  // rejects NaN too
      throw std::invalid_argument("Quantiles: q outside [0, 1]");
    }
  }
  std::sort(values.begin(), values.end());
  out->resize(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    (*out)[i] = InterpolatedQuantile(values, qs[i]);
  }
}

double FractionOutside(const std::vector<double>& values, double lo,
                       double hi) {
  if (values.empty()) return 0.0;
  std::size_t outside = 0;
  for (const double v : values) {
    if (v < lo || v > hi) ++outside;
  }
  return static_cast<double>(outside) / static_cast<double>(values.size());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
}

void Histogram::Add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  std::size_t bucket = static_cast<std::size_t>((x - lo_) / width_);
  if (bucket >= counts_.size()) bucket = counts_.size() - 1;
  ++counts_[bucket];
}

double Histogram::BucketLow(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::BucketHigh(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

std::string Histogram::ToAscii(std::size_t max_width) const {
  std::uint64_t peak = 1;
  for (const auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(max_width));
    out << "[";
    out.setf(std::ios::fixed);
    out.precision(4);
    out << BucketLow(i) << ", " << BucketHigh(i) << ") ";
    out << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return out.str();
}

}  // namespace fairchain
