#include "protocol/stake_state.hpp"

#include <stdexcept>

namespace fairchain::protocol {

StakeState::StakeState(std::vector<double> initial,
                       std::uint64_t withhold_period)
    : initial_(std::move(initial)), withhold_period_(withhold_period) {
  if (initial_.empty()) {
    throw std::invalid_argument("StakeState: at least one miner required");
  }
  for (const double s : initial_) {
    if (s < 0.0) {
      throw std::invalid_argument("StakeState: negative initial stake");
    }
    initial_total_ += s;
  }
  if (!(initial_total_ > 0.0)) {
    throw std::invalid_argument("StakeState: initial stakes sum to zero");
  }
  stake_ = initial_;
  income_.assign(initial_.size(), 0.0);
  pending_.assign(initial_.size(), 0.0);
  total_stake_ = initial_total_;
  sampler_.Build(stake_);
}

void StakeState::Credit(std::size_t i, double amount, bool compounds) {
  if (amount < 0.0) {
    throw std::invalid_argument("StakeState::Credit: negative amount");
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
    sampler_.Build(stake_);
    ++stake_version_;
  }
}

double StakeState::PendingTotal() const {
  double total = 0.0;
  for (const double p : pending_) total += p;
  return total;
}

void StakeState::Reset() {
  stake_ = initial_;
  for (auto& value : income_) value = 0.0;
  for (auto& value : pending_) value = 0.0;
  total_stake_ = initial_total_;
  total_income_ = 0.0;
  step_ = 0;
  sampler_.Build(stake_);
  ++stake_version_;
}

void StakeState::WealthVector(std::vector<double>* out) const {
  out->resize(initial_.size());
  for (std::size_t i = 0; i < initial_.size(); ++i) {
    (*out)[i] = initial_[i] + income_[i];
  }
}

}  // namespace fairchain::protocol
