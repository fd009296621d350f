// IncentiveModel: the abstract interface every blockchain incentive
// mechanism implements, and SteppedModel, the one stepping loop all of
// them share.
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
  /// rewards into `state`.  This is the protocol's law, written once.
  /// Implementations must not call StakeState::AdvanceStep — the driver
  /// does, so decorators can observe boundaries.
  virtual void Step(StakeState& state, RngStream& rng) const = 0;

  /// Advances `state` by `step_count` whole steps — the batched hot path:
  ///
  ///     for (uint64 s = 0; s < step_count; ++s) { Step(state, rng);
  ///                                               state.AdvanceStep(); }
  ///
  /// `step_begin` is the number of steps completed before the call and
  /// must equal `state.step()` (throws std::invalid_argument otherwise):
  /// passing it explicitly lets checkpoint-segment drivers mis-count
  /// loudly instead of recording λ at silently shifted steps.  The one
  /// implementation is SteppedModel::RunSteps.
  virtual void RunSteps(StakeState& state, std::uint64_t step_begin,
                        std::uint64_t step_count, RngStream& rng) const = 0;

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

/// Throws std::invalid_argument unless `w` is finite and > 0 (`what` names
/// the parameter).  The one reward predicate: the model constructors and
/// ScenarioSpec::Validate both call it, and it is what makes the unchecked
/// StakeState credit arms safe (rewards are never negative, NaN or inf).
void ValidateReward(double w, const char* what);

/// Throws std::invalid_argument unless `v` is finite and >= 0: the
/// inflation reward of C-PoS and EOS.
void ValidateInflation(double v, const char* what);

/// RunSteps precondition: throws std::invalid_argument unless
/// `state.step() == step_begin`.
void CheckRunStepsBegin(const StakeState& state, std::uint64_t step_begin);

/// The stepping loop of every model: `Model` derives from
/// SteppedModel<Model> and defines `Step` (final, and in its header so the
/// loop inlines it).  One virtual RunSteps call then amortises over a whole
/// checkpoint segment while the per-step call to Model::Step is direct —
/// no per-step dispatch, no allocation — and the loop cannot drift from
/// Step because it is nothing but Step.
template <typename Model>
class SteppedModel : public IncentiveModel {
 public:
  void RunSteps(StakeState& state, std::uint64_t step_begin,
                std::uint64_t step_count, RngStream& rng) const final {
    CheckRunStepsBegin(state, step_begin);
    const Model& model = static_cast<const Model&>(*this);
    for (std::uint64_t s = 0; s < step_count; ++s) {
      model.Model::Step(state, rng);
      state.AdvanceStep();
    }
  }
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_INCENTIVE_MODEL_HPP_
