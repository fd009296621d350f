// Quickstart: is ML-PoS fair to a miner holding 20% of the stake?
//
// Demonstrates the three-step fairchain workflow:
//   1. describe the game as a one-cell scenario (protocol, share, reward),
//   2. run it through the campaign runner,
//   3. check expectational and robust ((ε,δ)-) fairness.
//
// Build & run:  ./build/example_quickstart

#include <cstdio>

#include "core/bounds.hpp"
#include "sim/campaign.hpp"

int main() {
  using namespace fairchain;

  // Miner A holds a = 20% of all stakes; each block pays w = 1% of the
  // initial circulation and the reward compounds into future stake.
  const double a = 0.2;
  const double w = 0.01;

  // One campaign cell: ML-PoS (Section 2 of the paper), 2,000 replications
  // of a 5,000-block mining game.
  sim::ScenarioSpec spec;
  spec.name = "quickstart";
  spec.protocols = {"mlpos"};
  spec.allocations = {a};
  spec.rewards = {w};
  spec.steps = 5000;
  spec.replications = 2000;
  spec.seed = 42;
  // Robust fairness target: lambda within ±10% of a, 90% of the time.
  spec.fairness = core::FairnessSpec{0.1, 0.1};
  const core::FairnessSpec& fairness = spec.fairness;

  const core::SimulationResult result =
      sim::CampaignRunner().Run(spec, {}).front().result;

  const auto expectational = result.Expectational();
  const auto& final_stats = result.Final();

  std::printf("protocol            : %s\n", result.protocol.c_str());
  std::printf("initial share a     : %.3f\n", a);
  std::printf("mean lambda         : %.4f  (expectational fairness: %s)\n",
              expectational.sample_mean,
              expectational.consistent ? "HOLDS" : "VIOLATED");
  std::printf("5th-95th pct band   : [%.4f, %.4f]\n", final_stats.p05,
              final_stats.p95);
  std::printf("fair area           : [%.4f, %.4f]\n", fairness.FairLow(a),
              fairness.FairHigh(a));
  std::printf("unfair probability  : %.3f  (robust fairness: %s)\n",
              final_stats.unfair_probability,
              final_stats.unfair_probability <= fairness.delta ? "HOLDS"
                                                               : "VIOLATED");

  // The analytic explanation: lambda converges to Beta(a/w, (1-a)/w).
  const double limit_unfair =
      core::MlPosLimitUnfairProbability(a, w, fairness.epsilon);
  std::printf("beta-limit unfair   : %.3f  (analytic, n -> infinity)\n",
              limit_unfair);
  const double w_max = core::MlPosMaxRewardForFairness(a, fairness);
  std::printf("max fair reward w   : %.6f  (Theorem 4.3; current w = %g)\n",
              w_max, w);
  return 0;
}
