// Tests for the campaign cost model: prior ordering across protocol
// families, miner-count interpolation, and the safety properties the
// planner relies on (estimates are always finite and positive).

#include "sim/cost_model.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "sim/scenario_spec.hpp"

namespace fairchain::sim {
namespace {

CampaignCell Cell(const std::string& protocol, std::size_t miners = 2) {
  CampaignCell cell;
  cell.protocol = protocol;
  cell.miners = miners;
  return cell;
}

CampaignCell ChainCell(const std::string& dynamics) {
  CampaignCell cell;
  cell.protocol = dynamics;
  cell.chain_dynamics = true;
  return cell;
}

TEST(CostModelTest, PriorsOrderProtocolsByKernelWeight) {
  // The spread the planner exists to balance: a C-PoS epoch splits P
  // slots and credits every miner per step while a PoW step is one
  // weighted draw.  The model
  // must reproduce the coarse ordering cpos >> slpos > mlpos > pow at the
  // same steps and miner count.
  const std::uint64_t steps = 1000;
  const double pow_ns = EstimateReplicationNs(Cell("pow"), steps);
  const double mlpos_ns = EstimateReplicationNs(Cell("mlpos"), steps);
  const double slpos_ns = EstimateReplicationNs(Cell("slpos"), steps);
  const double cpos_ns = EstimateReplicationNs(Cell("cpos"), steps);
  EXPECT_GT(mlpos_ns, pow_ns);
  EXPECT_GT(slpos_ns, mlpos_ns);
  EXPECT_GT(cpos_ns, slpos_ns);
  // C-PoS at two miners really is an order of magnitude above PoW.
  EXPECT_GT(cpos_ns, 10.0 * pow_ns);
}

TEST(CostModelTest, EstimatesScaleLinearlyInSteps) {
  const double at_1k = EstimateReplicationNs(Cell("pow"), 1000);
  const double at_4k = EstimateReplicationNs(Cell("pow"), 4000);
  EXPECT_DOUBLE_EQ(at_4k, 4.0 * at_1k);
}

TEST(CostModelTest, MinerCountInterpolatesMonotonically) {
  // Priors are tabulated at powers of ten; anything between interpolates
  // log-linearly, so cost must grow monotonically with the miner count.
  const double at_2 = EstimateReplicationNs(Cell("pow", 2), 1000);
  const double at_10 = EstimateReplicationNs(Cell("pow", 10), 1000);
  const double at_50 = EstimateReplicationNs(Cell("pow", 50), 1000);
  const double at_100 = EstimateReplicationNs(Cell("pow", 100), 1000);
  EXPECT_LT(at_2, at_10);
  EXPECT_LT(at_10, at_50);
  EXPECT_LT(at_50, at_100);
}

TEST(CostModelTest, ChainCellsUseTheChainPrior) {
  // Chain dynamics run the event machine, not the incentive kernels: both
  // dynamics share one flat prior regardless of name.
  const double selfish = EstimateReplicationNs(ChainCell("selfish"), 500);
  const double forkrace = EstimateReplicationNs(ChainCell("forkrace"), 500);
  EXPECT_DOUBLE_EQ(selfish, forkrace);
  EXPECT_GT(selfish, 0.0);
}

TEST(CostModelTest, UnknownProtocolFallsBackFinite) {
  const double estimate =
      EstimateReplicationNs(Cell("no-such-protocol"), 1000);
  EXPECT_TRUE(std::isfinite(estimate));
  EXPECT_GT(estimate, 0.0);
}

}  // namespace
}  // namespace fairchain::sim
