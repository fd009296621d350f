// Closed-form and numeric next-block win probabilities of SL-PoS
// (Equation (1) and Lemma 6.1 of the paper).
//
// These are the selection rule *before* any reward feedback: given the
// current stakes, what is the chance each miner proposes the next block?
// SlPosModel::WinProbability and the SL-PoS drift of Equation (2) call
// them, and the bench for Figure 1 prints them.  The proportional rule of
// PoW / ML-PoS / C-PoS / FSL-PoS is StakeState::StakeShare, which those
// models' WinProbability returns.

#ifndef FAIRCHAIN_PROTOCOL_WIN_PROBABILITY_HPP_
#define FAIRCHAIN_PROTOCOL_WIN_PROBABILITY_HPP_

#include <cstddef>
#include <vector>

namespace fairchain::protocol {

/// SL-PoS two-miner win probability for miner A, continuous-hash limit
/// (Equation (1)):  s_a / (2 s_b) when s_a <= s_b, else 1 - s_b / (2 s_a).
/// Stakes must be >= 0 with a positive total (throws otherwise); a
/// zero-stake miner never wins.
double SlPosTwoMinerWinProbability(double s_a, double s_b);

/// SL-PoS multi-miner win probability (Lemma 6.1):
///   Pr[i wins] = S_i * Integral_0^{1/S_max} Prod_{j != i} (1 - S_j z) dz,
/// evaluated by Gauss-Legendre quadrature (exact: polynomial integrand).
/// Requires all stakes > 0.
double SlPosMultiMinerWinProbability(const std::vector<double>& stakes,
                                     std::size_t i);

/// All miners' SL-PoS win probabilities in one pass; sums to 1 (up to
/// quadrature error, which tests bound at 1e-12).
std::vector<double> SlPosWinProbabilities(const std::vector<double>& stakes);

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_WIN_PROBABILITY_HPP_
