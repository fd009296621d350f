// Ablation: C-PoS shard count P (Theorem 4.10's 1/P factor).
//
// Sweeps P over {1, 2, 4, 8, 16, 32, 64} at w = 0.01 for v in {0, 0.1},
// reporting terminal unfair probability, empirical lambda variance, and
// the Theorem 4.10 Azuma bound.  P = 1, v = 0 is exactly ML-PoS; each
// doubling of P halves the condition LHS.

#include <cstdio>

#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "protocol/c_pos.hpp"

int main() {
  using namespace fairchain;
  namespace exp = core::experiments;

  auto config = bench::FigureConfig(exp::kDefaultSteps, 6000, 25);
  bench::Banner("Ablation", "C-PoS shard count sweep (a = 0.2, w = 0.01)",
                config);
  const core::FairnessSpec spec = exp::DefaultSpec();
  core::MonteCarloEngine engine(config, spec);

  for (const double v : {0.0, 0.1}) {
    Table table({"shards P", "unfair prob", "lambda stddev", "Azuma bound",
                 "Thm 4.10 satisfied"});
    table.SetTitle("C-PoS shard ablation, v = " + std::to_string(v));
    for (const std::uint32_t P : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      protocol::CPosModel model(exp::kDefaultW, v, P);
      const auto result = engine.RunTwoMiner(model, exp::kDefaultA);
      table.AddRow();
      table.Cell(static_cast<std::uint64_t>(P));
      table.Cell(result.Final().unfair_probability, 4);
      table.Cell(result.Final().std_dev, 5);
      table.Cell(core::CPosUnfairUpperBound(config.steps, exp::kDefaultW, v,
                                            P, exp::kDefaultA, spec.epsilon),
                 4);
      table.Cell(std::string(
          core::CPosSatisfiesBound(config.steps, exp::kDefaultW, v, P,
                                   exp::kDefaultA, spec)
              ? "yes"
              : "no"));
    }
    table.Emit();
  }

  std::printf(
      "Both levers of Theorem 4.10 are visible: the lambda spread falls "
      "like ~1/sqrt(P),\nand inflation multiplies the effect — v = 0.1 "
      "with P >= 2 is already robustly fair.\n");
  return 0;
}
