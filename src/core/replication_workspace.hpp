// ReplicationWorkspace: the per-worker arena of the Monte Carlo hot path.
//
// One workspace owns everything a replication mutates — the game state
// (including its Fenwick stake sampler) and the population meter (the
// cell's ascending initial order plus merge buffers, see
// core/population.hpp) — and is reused across replications, chunks, and
// cells.  Binding to a cell's (initial stakes, withholding period)
// allocates, and so does the first population_meter() call after it (only
// runs with population metrics on build the meter); every subsequent
// replication of the same cell only Reset()s in place, which undoes just
// the miners the previous replication credited (O(d log m) for d of them,
// not O(m); see StakeState), so steady-state stepping performs ZERO heap
// allocations (pinned by bench/hotpath_bench.cpp's allocation counter).
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

#include "core/population.hpp"
#include "protocol/stake_state.hpp"

namespace fairchain::core {

/// Per-worker arena: game state + population meter, reused across
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

  /// The population meter of the bound cell, built (sorted and sized to
  /// m) on the first call after a Bind that changed the cell.  Throws
  /// std::logic_error before the first Bind.
  PopulationMeter& population_meter();

 private:
  std::optional<protocol::StakeState> state_;
  std::uint64_t bound_withhold_ = 0;
  std::optional<PopulationMeter> population_meter_;
};

/// This thread's workspace, default-constructed on first use.  The serial
/// backend, every thread-pool worker, and any external caller stepping
/// replications on its own thread share replications through this one
/// arena per thread.
ReplicationWorkspace& ThreadLocalReplicationWorkspace();

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_REPLICATION_WORKSPACE_HPP_
