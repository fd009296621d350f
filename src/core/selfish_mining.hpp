// Selfish mining (Eyal & Sirer 2014) — the incentive attack the paper
// flags as future work ("we aim to take into account malicious attacks on
// incentives that can change reward distribution"; Sections 6.5, 8).
//
// A selfish pool with hash share alpha withholds found blocks and releases
// them strategically; gamma is the fraction of honest power that mines on
// the pool's branch during a tie.  The pool's long-run revenue share is
//
//            alpha (1-alpha)^2 (4 alpha + gamma (1 - 2 alpha)) - alpha^3
//   R = ---------------------------------------------------------------- ,
//                    1 - alpha (1 + (2 - alpha) alpha)
//
// which exceeds the fair share alpha once alpha > (1-gamma)/(3-2gamma).
// In fairchain's vocabulary: selfish mining breaks PoW's *expectational*
// fairness (E[lambda] != alpha), turning the honest-PoW column of the
// paper's Table into an attack-dependent quantity.
//
// This module provides the closed form and the profitability threshold.
// The event-level state machine lives in one place, the chain-dynamics
// kernel (chain/chain_replication.hpp, ChainDynamics::kSelfish), which the
// tests cross-validate against the formula.

#ifndef FAIRCHAIN_CORE_SELFISH_MINING_HPP_
#define FAIRCHAIN_CORE_SELFISH_MINING_HPP_

namespace fairchain::core {

/// Closed-form long-run revenue share of a selfish pool (Eyal-Sirer
/// equation (8)).  alpha in (0, 0.5], gamma in [0, 1].
///
/// Domain note (why the formula stops at 0.5 while the chain kernel accepts
/// any alpha in (0, 1)): the closed form is the stationary revenue of the
/// withholding state machine, whose lead is a random walk with drift
/// alpha - (1 - alpha).  For alpha > 0.5 the walk is transient — the pool
/// outpaces the honest chain forever, its revenue share tends to 1, and
/// equation (8)'s denominator changes sign, so evaluating it would return
/// a meaningless number.  The selfish chain kernel remains well defined
/// there (any finite horizon has a definite share approaching 1);
/// this function deliberately throws instead of extrapolating.
double SelfishMiningRevenue(double alpha, double gamma);

/// The profitability threshold: selfish mining beats honest mining when
/// alpha > (1 - gamma) / (3 - 2 gamma).
double SelfishMiningThreshold(double gamma);

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_SELFISH_MINING_HPP_
