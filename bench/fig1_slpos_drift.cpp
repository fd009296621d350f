// Figure 1: "Probability of winning the next block for SL-PoS."
//
// The paper's Figure 1 illustrates why SL-PoS monopolises: at stake share
// Z_n = 0.3 the win probability is below 30% (drift down), at 0.7 above 70%
// (drift up), and Z_n = 0.5 is a knife edge.  This bench prints the win
// probability and drift f(Z) over a share grid (the plotted curve) and the
// drift's zero set with stability classification (Theorem 4.9).  The
// selection rule itself is checked against simulated lotteries by
// SlPosModelTest.FirstBlockWinFrequencyMatchesClosedForm, and the
// game-level leg (the drift played out over whole mining games) is the
// registry scenario: `fairchain campaign fig1`.

#include <cstdio>

#include "core/stochastic_approximation.hpp"
#include "protocol/win_probability.hpp"
#include "support/table.hpp"

int main() {
  using namespace fairchain;

  std::printf(
      "================================================================\n"
      "Figure 1 — SL-PoS next-block win probability and drift\n"
      "================================================================\n\n");

  Table curve({"share Z", "win probability", "proportional", "drift f(Z)",
               "direction"});
  curve.SetTitle("Two-miner SL-PoS selection rule (Section 2.3 closed form)");
  for (int i = 1; i <= 19; ++i) {
    const double z = static_cast<double>(i) / 20.0;
    const double win = protocol::SlPosTwoMinerWinProbability(z, 1.0 - z);
    const double drift = core::SlPosDriftTwoMiner(z);
    curve.AddRow();
    curve.Cell(z, 2);
    curve.Cell(win, 4);
    curve.Cell(z, 4);
    curve.Cell(drift, 4);
    curve.Cell(std::string(drift < -1e-12   ? "toward 0"
                           : drift > 1e-12 ? "toward 1"
                                           : "equilibrium"));
  }
  curve.Emit();

  Table zeros({"zero point", "stable", "interpretation"});
  zeros.SetTitle("Zero set of the drift (Theorem 4.9)");
  for (const auto& zero : core::SlPosTwoMinerZeros()) {
    zeros.AddRow();
    zeros.Cell(zero.location, 4);
    zeros.Cell(std::string(zero.stable ? "yes" : "no"));
    zeros.Cell(std::string(
        zero.location < 0.25   ? "miner A wiped out"
        : zero.location > 0.75 ? "miner A monopolises"
                               : "knife edge: never converged to"));
  }
  zeros.Emit();

  std::printf(
      "Shape vs paper: win probability below the diagonal for Z < 1/2 and\n"
      "above it for Z > 1/2; zeros {0, 1/2, 1} with 1/2 unstable — the\n"
      "mechanism behind SL-PoS monopolization.\n");
  return 0;
}
