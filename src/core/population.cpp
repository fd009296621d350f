#include "core/population.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

namespace fairchain::core {

namespace {

/// Returns `x` once it is checked to be a valid wealth (finite, >= 0) for
/// miner `i`.  Both paths check an entry before ordering it: std::sort is
/// undefined for NaN.
double CheckedWealth(std::size_t i, double x) {
  if (!(std::isfinite(x) && x >= 0.0)) {
    throw std::invalid_argument("MeasurePopulation: wealth " +
                                std::to_string(i) +
                                " must be finite and >= 0, got " +
                                std::to_string(x));
  }
  return x;
}

/// The metric pass both measurement paths share, over the ascending wealth
/// vector (non-empty, entries finite and >= 0).
PopulationSnapshot MeasureAscending(std::span<const double> ascending) {
  const std::size_t m = ascending.size();
  double total = 0.0;
  double weighted = 0.0;  // Σ rank_i * x_(i), ranks 1..m over ascending order
  double hhi = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double x = ascending[i];
    total += x;
    weighted += static_cast<double>(i + 1) * x;
    hhi += x * x;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("MeasurePopulation: zero total wealth");
  }

  PopulationSnapshot snapshot;
  const double dm = static_cast<double>(m);
  // Gini over the sorted sample:  (2 Σ i x_(i)) / (m Σ x) - (m + 1)/m,
  // clamped against FP noise at perfect equality.
  snapshot.gini =
      std::max(0.0, 2.0 * weighted / (dm * total) - (dm + 1.0) / dm);
  snapshot.hhi = hhi / (total * total);

  const std::size_t decile = TopDecileCount(m);
  const double half = total / 2.0;
  double from_top = 0.0;
  double top_decile = 0.0;
  std::size_t nakamoto = 0;
  bool majority_reached = false;
  for (std::size_t taken = 1; taken <= m; ++taken) {
    from_top += ascending[m - taken];
    if (taken == decile) top_decile = from_top;
    if (!majority_reached && from_top > half) {
      nakamoto = taken;
      majority_reached = true;
    }
    if (taken >= decile && majority_reached) break;
  }
  // A degenerate exact 50/50 split never strictly exceeds half; every miner
  // together always does up to FP noise, so fall back to m.
  if (!majority_reached) nakamoto = m;
  snapshot.nakamoto = static_cast<double>(nakamoto);
  snapshot.top_decile_share = top_decile / total;
  return snapshot;
}

}  // namespace

std::size_t TopDecileCount(std::size_t miners) {
  return std::max<std::size_t>(1, (miners + 9) / 10);
}

PopulationSnapshot MeasurePopulation(const std::vector<double>& wealth,
                                     std::vector<double>* scratch) {
  if (wealth.empty()) {
    throw std::invalid_argument("MeasurePopulation: empty wealth vector");
  }
  scratch->resize(wealth.size());
  for (std::size_t i = 0; i < wealth.size(); ++i) {
    (*scratch)[i] = CheckedWealth(i, wealth[i]);
  }
  std::sort(scratch->begin(), scratch->end());
  return MeasureAscending(*scratch);
}

PopulationMeter::PopulationMeter(const protocol::StakeState& state)
    : order_(state.miner_count()),
      credited_(state.miner_count()),
      ascending_(state.miner_count()) {
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  // Ties may land in any order: equal stakes are equal bits.
  std::sort(order_.begin(), order_.end(),
            [&state](std::size_t a, std::size_t b) {
              return state.initial_stake(a) < state.initial_stake(b);
            });
}

PopulationSnapshot PopulationMeter::Measure(const protocol::StakeState& state) {
  const std::size_t m = order_.size();
  if (state.miner_count() != m) {
    throw std::invalid_argument(
        "PopulationMeter: state has a different miner count");
  }
  const std::span<const std::size_t> credited = state.credited_miners();
  const std::size_t d = credited.size();
  for (std::size_t k = 0; k < d; ++k) {
    const std::size_t i = credited[k];
    credited_[k] = state.initial_stake(i) + state.income(i);
  }
  std::sort(credited_.begin(), credited_.begin() + d);
  // StakeState keeps initial stakes and credits finite and >= 0, so a
  // wealth can only go bad by overflowing to +inf, which sorts last (never
  // NaN, so the sort above is defined); then find and name the miner.
  if (d != 0 && !std::isfinite(credited_[d - 1])) {
    for (const std::size_t i : credited) {
      (void)CheckedWealth(i, state.initial_stake(i) + state.income(i));
    }
  }
  if (d == m) return MeasureAscending(credited_);

  // Merge: walk the initial order, skipping the credited miners (exactly
  // those with nonzero income), and emit each sorted credited wealth just
  // before the first untouched wealth above it.
  std::size_t next = 0;
  std::size_t out = 0;
  for (const std::size_t i : order_) {
    if (state.income(i) != 0.0) continue;
    const double x = state.initial_stake(i);
    while (next < d && credited_[next] < x) {
      ascending_[out++] = credited_[next++];
    }
    ascending_[out++] = x;
  }
  std::copy(credited_.begin() + static_cast<std::ptrdiff_t>(next),
            credited_.begin() + static_cast<std::ptrdiff_t>(d),
            ascending_.begin() + static_cast<std::ptrdiff_t>(out));
  return MeasureAscending(ascending_);
}

}  // namespace fairchain::core
