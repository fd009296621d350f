// Link-coverage smoke test: instantiates at least one public type from every
// layer library (support, math, crypto, protocol, core, chain, sim) so that
// a refactor which orphans a target from the build graph — or breaks the
// support -> math -> protocol -> core -> chain -> sim / crypto -> store link
// order — fails this binary's link step instead of passing silently.

#include <gtest/gtest.h>

#include "chain/chain_replication.hpp"
#include "core/bounds.hpp"
#include "crypto/sha256.hpp"
#include "math/special.hpp"
#include "protocol/pow.hpp"
#include "protocol/stake_state.hpp"
#include "sim/scenario_registry.hpp"
#include "support/rng.hpp"
#include "support/version.hpp"

namespace {

TEST(BuildSmokeTest, SupportLayerLinks) {
  fairchain::RngStream rng(42);
  EXPECT_EQ(rng.NextU64(), fairchain::RngStream(42).NextU64());
  EXPECT_STRNE(fairchain::kVersionString, "");
}

TEST(BuildSmokeTest, MathLayerLinks) {
  // Beta(1, 1) is uniform: its CDF is the identity.
  EXPECT_NEAR(fairchain::math::BetaCdf(1.0, 1.0, 0.4), 0.4, 1e-12);
}

TEST(BuildSmokeTest, CryptoLayerLinks) {
  const fairchain::crypto::Digest digest =
      fairchain::crypto::Sha256Digest("fairchain");
  EXPECT_EQ(fairchain::crypto::DigestToHex(digest).size(), 64u);
}

TEST(BuildSmokeTest, ProtocolLayerLinks) {
  fairchain::protocol::PowModel pow(1.0);
  fairchain::protocol::StakeState state({1.0, 2.0, 3.0});
  fairchain::RngStream rng(7);
  pow.Step(state, rng);
  EXPECT_EQ(state.miner_count(), 3u);
}

TEST(BuildSmokeTest, CoreLayerLinks) {
  const fairchain::core::BetaParams limit =
      fairchain::core::MlPosLimitDistribution(0.5, 0.5);
  EXPECT_DOUBLE_EQ(limit.alpha, 1.0);
  EXPECT_DOUBLE_EQ(limit.beta, 1.0);
}

TEST(BuildSmokeTest, SimLayerLinks) {
  const auto& registry = fairchain::sim::ScenarioRegistry::BuiltIn();
  EXPECT_GE(registry.size(), 10u);
  EXPECT_TRUE(registry.Contains("table1"));
}

TEST(BuildSmokeTest, ChainLayerLinks) {
  fairchain::chain::ChainGameSpec spec;
  spec.dynamics = fairchain::chain::ParseChainDynamics("forkrace");
  fairchain::chain::ChainGameState state;
  fairchain::RngStream rng(42);
  fairchain::chain::StepChainEvents(spec, state, rng, /*events=*/10);
  EXPECT_EQ(state.events, 10u);
  EXPECT_EQ(state.tracked_blocks + state.other_blocks, 10u);
}

}  // namespace
