#include "core/replication_workspace.hpp"

#include <stdexcept>

namespace fairchain::core {

void ReplicationWorkspace::Bind(const std::vector<double>& initial_stakes,
                                std::uint64_t withhold_period) {
  if (state_.has_value() && bound_withhold_ == withhold_period &&
      state_->miner_count() == initial_stakes.size()) {
    bool same = true;
    for (std::size_t i = 0; i < initial_stakes.size(); ++i) {
      if (state_->initial_stake(i) != initial_stakes[i]) {
        same = false;
        break;
      }
    }
    // Same cell configuration: keep every buffer (state vectors, sampler
    // tree, population meter) exactly as allocated.  The caller Resets per
    // replication, so no further normalisation is needed here.
    if (same) return;
  }
  population_meter_.reset();
  state_.emplace(initial_stakes, withhold_period);
  bound_withhold_ = withhold_period;
}

PopulationMeter& ReplicationWorkspace::population_meter() {
  if (!state_.has_value()) {
    throw std::logic_error(
        "ReplicationWorkspace: population_meter before Bind");
  }
  if (!population_meter_.has_value()) population_meter_.emplace(*state_);
  return *population_meter_;
}

ReplicationWorkspace& ThreadLocalReplicationWorkspace() {
  thread_local ReplicationWorkspace workspace;
  return workspace;
}

}  // namespace fairchain::core
