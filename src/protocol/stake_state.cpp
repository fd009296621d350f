#include "protocol/stake_state.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace fairchain::protocol {

StakeState::StakeState(std::vector<double> initial,
                       std::uint64_t withhold_period)
    : initial_(std::move(initial)), withhold_period_(withhold_period) {
  if (initial_.empty()) {
    throw std::invalid_argument("StakeState: at least one miner required");
  }
  for (std::size_t i = 0; i < initial_.size(); ++i) {
    if (!std::isfinite(initial_[i]) || initial_[i] < 0.0) {
      throw std::invalid_argument(
          "StakeState: initial stake " + std::to_string(i) +
          " must be finite and >= 0, got " + std::to_string(initial_[i]));
    }
    // -0.0 becomes +0.0: a zero-amount credit would turn it into +0.0
    // without dirtying the miner, and Reset could not restore the sign.
    initial_[i] += 0.0;
    initial_total_ += initial_[i];
  }
  if (!(initial_total_ > 0.0)) {
    throw std::invalid_argument("StakeState: initial stakes sum to zero");
  }
  if (!std::isfinite(initial_total_)) {
    throw std::invalid_argument("StakeState: initial stakes sum to infinity");
  }
  stake_ = initial_;
  income_.assign(initial_.size(), 0.0);
  pending_.assign(initial_.size(), 0.0);
  dirty_.resize(initial_.size() + 1);
  total_stake_ = initial_total_;
  sampler_.Build(stake_);
  pristine_sampler_ = sampler_;
}

void StakeState::Credit(std::size_t i, double amount, bool compounds) {
  if (!std::isfinite(amount) || amount < 0.0) {
    throw std::invalid_argument(
        "StakeState::Credit: amount for miner " + std::to_string(i) +
        " must be finite and >= 0, got " + std::to_string(amount));
  }
  if (compounds) {
    CreditStake(i, amount);
  } else {
    CreditIncome(i, amount);
  }
}

void StakeState::ReleaseWithheld() {
  bool released = false;
  for (std::size_t i = 0; i < stake_.size(); ++i) {
    if (pending_[i] != 0.0) {
      stake_[i] += pending_[i];
      total_stake_ += pending_[i];
      pending_[i] = 0.0;
      released = true;
    }
  }
  if (released) {
    // A boundary can release up to m pending rewards at once; one O(m)
    // rebuild beats m separate O(log m) update paths.
    RebuildTree();
    ++stake_version_;
  }
}

void StakeState::RebuildTree() const {
  sampler_.Build(stake_);
  tree_stale_ = false;
}

double StakeState::PendingTotal() const {
  double total = 0.0;
  for (const double p : pending_) total += p;
  return total;
}

void StakeState::Reset() {
  // Only a dirty miner's stake, income, pending reward or tree path can
  // differ from the initial state: every credit that changes them is a
  // positive credit to that miner, and a rebuild of a stale tree changes
  // only nodes over a dirty miner.  PoW and NEO never touch the tree, so
  // an unmoved stake_version_ skips the path restores.
  const bool tree_moved = stake_version_ != reset_version_;
  for (std::size_t k = 0; k < dirty_count_; ++k) {
    const std::size_t i = dirty_[k];
    stake_[i] = initial_[i];
    income_[i] = 0.0;
    pending_[i] = 0.0;
    if (tree_moved) sampler_.RestorePath(i, pristine_sampler_);
  }
  dirty_count_ = 0;
  tree_stale_ = false;
  total_stake_ = initial_total_;
  total_income_ = 0.0;
  step_ = 0;
  ++stake_version_;
  reset_version_ = stake_version_;
}

void StakeState::WealthVector(std::vector<double>* out) const {
  out->resize(initial_.size());
  for (std::size_t i = 0; i < initial_.size(); ++i) {
    (*out)[i] = initial_[i] + income_[i];
  }
}

}  // namespace fairchain::protocol
