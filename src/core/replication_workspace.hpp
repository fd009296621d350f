// ReplicationWorkspace: the per-worker arena of the Monte Carlo hot path.
//
// One workspace owns everything a replication mutates — the game state
// (including its Fenwick stake sampler) and the wealth / population-metric
// scratch buffers — and is reused across replications, chunks, and cells.
// Binding to a cell's (initial stakes, withholding period) allocates; every
// subsequent replication of the same cell only Reset()s in place, which
// undoes just the miners the previous replication credited (O(d log m) for
// d of them, not O(m); see StakeState), so steady-state stepping performs
// ZERO heap allocations (pinned by bench/hotpath_bench.cpp's allocation
// counter).
//
// Threading: a workspace is NOT thread-safe; the execution backends give
// every worker its own via ThreadLocalReplicationWorkspace().  Results
// never depend on which workspace ran a replication — all randomness comes
// from the per-replication RNG stream, and Bind/Reset restore identical
// initial state.

#ifndef FAIRCHAIN_CORE_REPLICATION_WORKSPACE_HPP_
#define FAIRCHAIN_CORE_REPLICATION_WORKSPACE_HPP_

#include <cstdint>
#include <optional>
#include <vector>

#include "protocol/stake_state.hpp"

namespace fairchain::core {

/// Per-worker arena: game state + measurement buffers, reused across
/// replications.
class ReplicationWorkspace {
 public:
  ReplicationWorkspace() = default;

  ReplicationWorkspace(const ReplicationWorkspace&) = delete;
  ReplicationWorkspace& operator=(const ReplicationWorkspace&) = delete;

  /// Prepares the workspace for replications of a game with the given
  /// initial stakes and withholding period.  Rebinding with the parameters
  /// of the previous Bind is free (the state is merely Reset); a different
  /// configuration reconstructs the state (the only allocating path).
  /// Throws std::invalid_argument for invalid stakes (see StakeState).
  void Bind(const std::vector<double>& initial_stakes,
            std::uint64_t withhold_period);

  /// The bound game state; valid until the next Bind.  Callers Reset() it
  /// at every replication boundary.
  protocol::StakeState& state() { return *state_; }

  /// True once Bind has been called.
  bool bound() const { return state_.has_value(); }

  /// Wealth vector buffer for population-metric checkpoints.
  std::vector<double>* wealth_buffer() { return &wealth_; }

  /// Sort scratch for core::MeasurePopulation.
  std::vector<double>* population_scratch() { return &scratch_; }

 private:
  std::optional<protocol::StakeState> state_;
  std::uint64_t bound_withhold_ = 0;
  std::vector<double> wealth_;
  std::vector<double> scratch_;
};

/// This thread's workspace, default-constructed on first use.  The serial
/// backend, every thread-pool worker, and any external caller stepping
/// replications on its own thread share replications through this one
/// arena per thread.
ReplicationWorkspace& ThreadLocalReplicationWorkspace();

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_REPLICATION_WORKSPACE_HPP_
