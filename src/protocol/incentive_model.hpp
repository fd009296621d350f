// IncentiveModel: the abstract interface every blockchain incentive
// mechanism implements.
//
// A model advances a StakeState by one "step" — a block for PoW / ML-PoS /
// SL-PoS / FSL-PoS, a mining epoch for C-PoS / Algorand / EOS — crediting
// rewards according to the protocol's rules.  Models are immutable and
// thread-compatible: all mutable state lives in StakeState and RngStream, so
// a single model instance can drive thousands of parallel replications.

#ifndef FAIRCHAIN_PROTOCOL_INCENTIVE_MODEL_HPP_
#define FAIRCHAIN_PROTOCOL_INCENTIVE_MODEL_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "protocol/stake_state.hpp"
#include "support/rng.hpp"

namespace fairchain::protocol {

/// Abstract incentive mechanism (Section 2 of the paper).
class IncentiveModel {
 public:
  virtual ~IncentiveModel() = default;

  /// Human-readable protocol name ("PoW", "ML-PoS", ...).
  virtual std::string name() const = 0;

  /// Executes one reward step: selects proposer(s) using `rng` and credits
  /// rewards into `state`.  Implementations must not call
  /// StakeState::AdvanceStep — the driver does, so decorators can observe
  /// boundaries.
  virtual void Step(StakeState& state, RngStream& rng) const = 0;

  /// Advances `state` by `step_count` whole steps — the batched hot path.
  ///
  /// Semantics are defined BY Step: RunSteps must perform exactly the state
  /// transitions and RNG draws (same count, same order) of
  ///
  ///     for (uint64 s = 0; s < step_count; ++s) { Step(state, rng);
  ///                                               state.AdvanceStep(); }
  ///
  /// which is also the base-class implementation — the reference the
  /// per-protocol conformance tests pin every override against
  /// (tests/protocol/run_steps_conformance_test.cpp).  `step_begin` is the
  /// number of steps completed before the call and must equal
  /// `state.step()` (throws std::invalid_argument otherwise): passing it
  /// explicitly lets checkpoint-segment drivers mis-count loudly instead of
  /// recording λ at silently shifted steps.
  ///
  /// Overrides exist for the paper's six protocols so one virtual call
  /// amortises over a whole checkpoint segment and the inner loop inlines
  /// the sampler descent and credit arms (no per-step virtual dispatch, no
  /// allocation).
  virtual void RunSteps(StakeState& state, std::uint64_t step_begin,
                        std::uint64_t step_count, RngStream& rng) const;

  /// Total reward issued per step (w, or w + v for compound protocols);
  /// used to normalise λ and for analytic bounds.
  virtual double RewardPerStep() const = 0;

  /// Probability that miner `i` proposes the next block given the current
  /// state (for epoch protocols: the per-slot selection probability).
  /// Closed forms from Section 2 / Lemma 6.1.
  virtual double WinProbability(const StakeState& state,
                                std::size_t i) const = 0;

  /// True when credited rewards feed back into future mining power
  /// (the defining property of PoS; false for PoW and NEO).
  virtual bool RewardCompounds() const = 0;

  /// Runs a full game of `steps` steps on `state` (Step + AdvanceStep).
  void RunGame(StakeState& state, RngStream& rng, std::uint64_t steps) const;
};

/// Validates a per-block/epoch reward parameter; throws on w <= 0.
void ValidateReward(double w, const char* what);

/// Shared RunSteps precondition: throws std::invalid_argument unless
/// `state.step() == step_begin`.  Every override calls this first.
void CheckRunStepsBegin(const StakeState& state, std::uint64_t step_begin);

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_INCENTIVE_MODEL_HPP_
