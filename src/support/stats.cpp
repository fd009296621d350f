#include "support/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace fairchain {

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

// Type-7 interpolation over a sample of n values whose order statistic of
// rank r (0-based) is x(r).  Every quantile path goes through this one
// function, which also names the ranks a quantile reads (see
// QuantilesInPlace).
template <typename OrderStatistic>
double InterpolatedQuantile(std::size_t n, double q, OrderStatistic x) {
  if (q <= 0.0) return x(0);
  if (q >= 1.0) return x(n - 1);
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= n) return x(n - 1);
  // x_lo + frac * (x_hi - x_lo), NOT x_lo(1-frac) + x_hi*frac: the latter
  // wobbles by an ulp when x_lo == x_hi, which made adjacent quantiles of a
  // constant sample non-monotone (caught by the verify layer's sanity
  // oracle).  This form is exact at coincident endpoints and monotone in q.
  const double x_lo = x(lo);
  return x_lo + frac * (x(lo + 1) - x_lo);
}

double InterpolatedQuantile(const std::vector<double>& sorted, double q) {
  return InterpolatedQuantile(sorted.size(), q,
                              [&](std::size_t rank) { return sorted[rank]; });
}

void CheckLevels(const std::vector<double>& qs) {
  for (const double q : qs) {
    if (!(q >= 0.0 && q <= 1.0)) {  // rejects NaN too
      throw std::invalid_argument("Quantiles: q outside [0, 1]");
    }
  }
}

// More levels than this read too many ranks to be worth selecting.
constexpr std::size_t kMaxSelectedLevels = 8;
// Marks a bucket that holds a rank some quantile reads.
constexpr std::size_t kReadBucket =
    std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);

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
  std::vector<std::size_t> scratch;
  QuantilesInPlace(values, qs, &out, &scratch);
  return out;
}

void QuantilesInPlace(std::vector<double>& values,
                      const std::vector<double>& qs, std::vector<double>* out,
                      std::vector<std::size_t>* scratch) {
  if (values.empty()) throw std::invalid_argument("Quantiles: empty input");
  CheckLevels(qs);
  const std::size_t n = values.size();
  out->resize(qs.size());
  double lowest = values[0];
  double highest = values[0];
  for (const double v : values) {
    if (v != v) throw std::invalid_argument("Quantiles: NaN sample");
    lowest = std::min(lowest, v);
    highest = std::max(highest, v);
  }
  const double width = highest - lowest;
  const double scale = static_cast<double>(n) / width;
  // A constant sample, an infinite value, a range that overflows or one
  // too narrow to scale (subnormal) has no useful buckets.
  if (qs.size() > kMaxSelectedLevels || !(width > 0.0) ||
      !std::isfinite(width) || !std::isfinite(scale)) {
    std::sort(values.begin(), values.end());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      (*out)[i] = InterpolatedQuantile(values, qs[i]);
    }
    return;
  }

  // Bucket b of n holds the values with floor((v - lowest) * scale) == b
  // (the last one also takes the top's rounding overshoot).  Rounded
  // subtraction, multiplication by a positive scale and truncation are
  // all monotone, so every value in a bucket is <= every value in a later
  // one: a bucket's values, sorted, are the sample's order statistics over
  // the bucket's range of ranks.
  const auto bucket = [&](double v) {
    // Through a signed conversion, which is one instruction; the product
    // is at most about n.
    return std::min(n - 1, static_cast<std::size_t>(static_cast<std::int64_t>(
                               (v - lowest) * scale)));
  };
  std::vector<std::size_t>& first_rank = *scratch;
  first_rank.assign(n + 1, 0);
  for (const double v : values) ++first_rank[bucket(v) + 1];
  for (std::size_t b = 1; b <= n; ++b) first_rank[b] += first_rank[b - 1];

  // The buckets holding the ranks the interpolation reads (at most two
  // per level), in ascending order, with their first ranks and sizes.
  std::array<std::size_t, 2 * kMaxSelectedLevels> read;
  std::size_t read_count = 0;
  for (const double q : qs) {
    InterpolatedQuantile(n, q, [&](std::size_t rank) {
      read[read_count++] = static_cast<std::size_t>(
          std::upper_bound(first_rank.begin(), first_rank.end(), rank) -
          first_rank.begin() - 1);
      return 0.0;
    });
  }
  std::sort(read.begin(), read.begin() + read_count);
  read_count = static_cast<std::size_t>(
      std::unique(read.begin(), read.begin() + read_count) - read.begin());
  std::array<std::size_t, 2 * kMaxSelectedLevels> read_first;
  std::array<std::size_t, 2 * kMaxSelectedLevels> read_size;
  for (std::size_t k = 0; k < read_count; ++k) {
    read_first[k] = first_rank[read[k]];
    read_size[k] = first_rank[read[k] + 1] - read_first[k];
  }
  // Marks each read bucket with its slot (its counts are copied out
  // above) and moves the read buckets' values to the front, noting each
  // one's least and greatest value.  Bucket order is value order, so the
  // front, sorted, is the read buckets' order statistics back to back; a
  // sample of few distinct values (an early checkpoint's λ column) makes
  // every read bucket constant, and then nothing needs sorting.
  for (std::size_t k = 0; k < read_count; ++k) {
    first_rank[read[k]] = kReadBucket | k;
  }
  std::array<double, 2 * kMaxSelectedLevels> least;
  std::array<double, 2 * kMaxSelectedLevels> greatest;
  least.fill(highest);
  greatest.fill(lowest);
  std::size_t front = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values[i];
    const std::size_t mark = first_rank[bucket(v)];
    if (mark & kReadBucket) {
      const std::size_t k = mark ^ kReadBucket;
      least[k] = std::min(least[k], v);
      greatest[k] = std::max(greatest[k], v);
      std::swap(values[front++], values[i]);
    }
  }
  bool constant = true;
  for (std::size_t k = 0; k < read_count; ++k) {
    constant = constant && least[k] == greatest[k];
  }
  if (!constant) {
    std::sort(values.begin(),
              values.begin() + static_cast<std::ptrdiff_t>(front));
  }
  const auto order_statistic = [&](std::size_t rank) {
    std::size_t offset = 0;
    std::size_t k = 0;
    while (rank >= read_first[k] + read_size[k]) offset += read_size[k++];
    return constant ? least[k] : values[offset + rank - read_first[k]];
  };
  for (std::size_t i = 0; i < qs.size(); ++i) {
    (*out)[i] = InterpolatedQuantile(n, qs[i], order_statistic);
  }
}

}  // namespace fairchain
