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

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "protocol/stake_state.hpp"
#include "support/fenwick.hpp"
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

/// A model whose Step is one proportional draw and a credit to its winner
/// declares the second half of its law as `Credit(state, winner)`, and
/// what that credit adds to the winner's draw weight as
/// `DrawWeightGain()`.  Its Step must be exactly Credit of one
/// SampleProportionalToStake draw: ML-PoS (and FSL-PoS through it), whose
/// credit compounds the reward w into the winner's stake, a gain of w.
template <typename Model>
concept LaneModel =
    requires(const Model& model, StakeState& state, std::size_t winner) {
      model.Credit(state, winner);
      { model.DrawWeightGain() } -> std::convertible_to<double>;
    };

/// A LaneModel whose credit never moves a stake declares its gain
/// `static constexpr` and 0, and its Step draws through
/// SampleProportionalToStaticStake (PoW, and NEO through it): its lanes
/// take the sampler's correction-free descent.
template <typename Model>
concept StaticStakeModel = LaneModel<Model> && requires {
  requires Model::DrawWeightGain() == 0.0;
};

/// The stepping loop of every model: `Model` derives from
/// SteppedModel<Model> and defines `Step` (final, and in its header so the
/// loop inlines it).  One virtual RunSteps call then amortises over a whole
/// checkpoint segment while the per-step call to Model::Step is direct —
/// no per-step dispatch, no allocation — and the loop cannot drift from
/// Step because it is nothing but Step.
///
/// A LaneModel steps FenwickSampler::kLanes blocks at a time: that many
/// draws with their descents in lock-step, then each winner's Credit
/// followed by AdvanceStep, in block order; the rest of the segment goes
/// through Step.  Draws, winners, credit order and RNG consumption are
/// those of the one-at-a-time loop.  A static-stake model's credits are
/// income only, so nothing between its draws can move a stake (and a
/// withholding boundary has nothing pending to release).  A compounding
/// model's lanes add each earlier winner's gain to the nodes they read,
/// which is exact only while every credit goes into the tree at once, and
/// pays only from kCompoundingLanesMinMiners miners on without a zero stake
/// (StakeState::CompoundingLanesApply, fixed for the segment); otherwise
/// it steps one at a time.
template <typename Model>
class SteppedModel : public IncentiveModel {
 public:
  void RunSteps(StakeState& state, std::uint64_t step_begin,
                std::uint64_t step_count, RngStream& rng) const final {
    CheckRunStepsBegin(state, step_begin);
    const Model& model = static_cast<const Model&>(*this);
    std::uint64_t s = 0;
    if constexpr (LaneModel<Model>) {
      if (StaticStakeModel<Model> || state.CompoundingLanesApply()) {
        for (; step_count - s >= FenwickSampler::kLanes;
             s += FenwickSampler::kLanes) {
          for (const std::size_t winner : DrawLanes(model, state, rng)) {
            model.Model::Credit(state, winner);
            state.AdvanceStep();
          }
        }
      }
    }
    for (; s < step_count; ++s) {
      model.Model::Step(state, rng);
      state.AdvanceStep();
    }
  }

 private:
  static FenwickSampler::LaneIndices DrawLanes(const Model& model,
                                               const StakeState& state,
                                               RngStream& rng) {
    if constexpr (StaticStakeModel<Model>) {
      return state.SampleProportionalToStaticStakeLanes(rng);
    } else {
      return state.SampleProportionalToStakeLanes(
          rng, model.Model::DrawWeightGain());
    }
  }
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_INCENTIVE_MODEL_HPP_
