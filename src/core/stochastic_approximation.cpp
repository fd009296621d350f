#include "core/stochastic_approximation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "protocol/win_probability.hpp"

namespace fairchain::core {

double SlPosDriftTwoMiner(double z) {
  if (z < 0.0 || z > 1.0) {
    throw std::invalid_argument("SlPosDriftTwoMiner: z must be in [0, 1]");
  }
  return protocol::SlPosTwoMinerWinProbability(z, 1.0 - z) - z;
}

namespace {

double BisectZero(const std::function<double(double)>& f, double lo,
                  double hi, double tolerance) {
  double flo = f(lo);
  for (int iter = 0; iter < 200 && hi - lo > tolerance; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if ((flo <= 0.0) == (fmid <= 0.0)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

bool ClassifyStable(const std::function<double(double)>& f, double z) {
  // Stable iff f points toward z on both sides:  f(z-h) > 0 and f(z+h) < 0.
  const double h = 1e-4;
  const double left = z - h;
  const double right = z + h;
  bool stable_left = true;
  bool stable_right = true;
  if (left >= 0.0) stable_left = f(left) > 0.0;
  if (right <= 1.0) stable_right = f(right) < 0.0;
  return stable_left && stable_right;
}

}  // namespace

std::vector<DriftZero> FindDriftZeros(const std::function<double(double)>& f,
                                      std::size_t grid, double tolerance) {
  if (grid < 2) throw std::invalid_argument("FindDriftZeros: grid too small");
  std::vector<DriftZero> zeros;
  auto add_zero = [&](double z) {
    for (const auto& existing : zeros) {
      if (std::fabs(existing.location - z) < 1e-6) return;
    }
    zeros.push_back(DriftZero{z, ClassifyStable(f, z)});
  };
  const double step = 1.0 / static_cast<double>(grid);
  double prev_x = 0.0;
  double prev_f = f(0.0);
  if (std::fabs(prev_f) < tolerance) add_zero(0.0);
  for (std::size_t k = 1; k <= grid; ++k) {
    const double x = static_cast<double>(k) * step;
    const double fx = f(x);
    if (std::fabs(fx) < tolerance) {
      add_zero(x);
    } else if ((prev_f < 0.0 && fx > 0.0) || (prev_f > 0.0 && fx < 0.0)) {
      add_zero(BisectZero(f, prev_x, x, tolerance));
    }
    prev_x = x;
    prev_f = fx;
  }
  std::sort(zeros.begin(), zeros.end(),
            [](const DriftZero& a, const DriftZero& b) {
              return a.location < b.location;
            });
  return zeros;
}

std::vector<DriftZero> SlPosTwoMinerZeros() {
  return FindDriftZeros([](double z) { return SlPosDriftTwoMiner(z); });
}

}  // namespace fairchain::core
