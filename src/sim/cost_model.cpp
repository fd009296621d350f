#include "sim/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace fairchain::sim {

namespace {

// One calibration point: ns per (step, replication) at `miners` miners,
// taken from BENCH_hotpath.json's BM_Batched_* families (1e9 /
// items_per_second).
struct PriorPoint {
  double miners;
  double ns_per_step;
};

struct PriorTable {
  const char* protocol;
  const PriorPoint* points;
  std::size_t count;
};

constexpr PriorPoint kPowPoints[] = {
    {2, 6.51}, {10, 14.78}, {100, 22.16},
    {1000, 30.69}, {10000, 48.56}, {100000, 81.02}};
constexpr PriorPoint kMlPosPoints[] = {
    {2, 7.82}, {10, 23.0}, {100, 38.18},
    {1000, 56.3}, {10000, 70.34}, {100000, 127.4}};
constexpr PriorPoint kFslPosPoints[] = {
    {2, 8.06}, {10, 28.42}, {100, 40.3},
    {1000, 53.75}, {10000, 84.19}, {100000, 125.78}};
constexpr PriorPoint kSlPosPoints[] = {
    {2, 16.82}, {10, 39.3}, {100, 326.27}, {1000, 2684.15}};
// C-PoS runs two epoch paths.  The m <= 32 points are the count path,
// from BM_Batched_CPosEpochInflation (v = 0.1, as in every paper cell),
// scaled by the ratio of the kept m = 100 point to the same run's
// BM_Batched_CPosEpoch/100, so they share the other rows' units.  The
// m >= 100 points are the unchanged slot path.
constexpr PriorPoint kCPosPoints[] = {
    {2, 68.48}, {5, 210.1}, {10, 389.57}, {32, 1010.57}, {100, 1699.16},
    {1000, 2357.74}, {10000, 3432.94}, {100000, 4478.97}};

constexpr PriorTable kPriorTables[] = {
    {"pow", kPowPoints, std::size(kPowPoints)},
    {"mlpos", kMlPosPoints, std::size(kMlPosPoints)},
    {"fslpos", kFslPosPoints, std::size(kFslPosPoints)},
    {"slpos", kSlPosPoints, std::size(kSlPosPoints)},
    {"cpos", kCPosPoints, std::size(kCPosPoints)},
};

// Chain-dynamics event machines (BM_ChainStep: 12.9–16.8 ns/event across
// the delay range) — flat in the miner count, chain games are two-party.
constexpr double kChainNsPerStep = 15.0;

// Committee protocols (neo/algorand/eos) have no batched calibration
// family yet; the MlPos curve is the closest stake-weighted shape.
constexpr const PriorTable& DefaultTable() { return kPriorTables[1]; }

// Log-linear interpolation in the miner count, clamped at the table ends.
double InterpolateNsPerStep(const PriorTable& table, double miners) {
  miners = std::max(miners, 1.0);
  if (miners <= table.points[0].miners) return table.points[0].ns_per_step;
  const PriorPoint& last = table.points[table.count - 1];
  if (miners >= last.miners) return last.ns_per_step;
  for (std::size_t i = 1; i < table.count; ++i) {
    const PriorPoint& hi = table.points[i];
    if (miners > hi.miners) continue;
    const PriorPoint& lo = table.points[i - 1];
    const double t = (std::log(miners) - std::log(lo.miners)) /
                     (std::log(hi.miners) - std::log(lo.miners));
    return lo.ns_per_step + t * (hi.ns_per_step - lo.ns_per_step);
  }
  return last.ns_per_step;
}

double PriorNsPerStep(const CampaignCell& cell) {
  if (cell.chain_dynamics) return kChainNsPerStep;
  for (const PriorTable& table : kPriorTables) {
    if (cell.protocol == table.protocol) {
      return InterpolateNsPerStep(table,
                                  static_cast<double>(cell.miners));
    }
  }
  return InterpolateNsPerStep(DefaultTable(),
                              static_cast<double>(cell.miners));
}

}  // namespace

double EstimateReplicationNs(const CampaignCell& cell, std::uint64_t steps) {
  return std::max(1.0, PriorNsPerStep(cell) * static_cast<double>(steps));
}

}  // namespace fairchain::sim
