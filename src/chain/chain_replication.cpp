#include "chain/chain_replication.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fairchain::chain {

namespace {

// Probability that group with hash share `share` finds a block within one
// propagation window of `delay` mean block intervals: block discovery is
// Poisson with rate `share` per interval, so P = 1 - exp(-share * delay).
double WindowProbability(double share, double delay) {
  return -std::expm1(-share * delay);
}

}  // namespace

bool IsKnownChainDynamicsName(const std::string& name) {
  return name == "selfish" || name == "forkrace";
}

ChainDynamics ParseChainDynamics(const std::string& name) {
  if (name == "selfish") return ChainDynamics::kSelfish;
  if (name == "forkrace") return ChainDynamics::kForkRace;
  throw std::invalid_argument(
      "ParseChainDynamics: unknown chain dynamics '" + name +
      "' (known: selfish, forkrace)");
}

void ChainGameSpec::Validate() const {
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    throw std::invalid_argument(
        "ChainGameSpec: alpha must lie in (0, 1)");
  }
  if (!(gamma >= 0.0) || !(gamma <= 1.0)) {
    throw std::invalid_argument(
        "ChainGameSpec: gamma must lie in [0, 1]");
  }
  if (!std::isfinite(delay) || delay < 0.0) {
    throw std::invalid_argument(
        "ChainGameSpec: delay must be finite and >= 0");
  }
}

void ChainGameState::Reset() { *this = ChainGameState{}; }

double ChainGameState::Lambda(const ChainGameSpec& spec) const {
  // Selfish: settle the private lead virtually, as if the pool published
  // it at the horizon; an unresolved tie race stays unattributed.
  // ForkRace: attribute open branches to their owners so a checkpoint
  // falling mid-race still reflects every discovered block.
  const std::uint64_t tracked =
      tracked_blocks +
      (spec.dynamics == ChainDynamics::kSelfish ? lead : tracked_branch);
  const std::uint64_t other =
      other_blocks +
      (spec.dynamics == ChainDynamics::kSelfish ? 0 : other_branch);
  const std::uint64_t total = tracked + other;
  if (total == 0) return spec.alpha;
  return static_cast<double>(tracked) / static_cast<double>(total);
}

double ChainGameState::OrphanRate() const {
  if (events == 0) return 0.0;
  return static_cast<double>(orphaned_blocks) /
         static_cast<double>(events);
}

double ChainGameState::ReorgDepthMean() const {
  if (reorg_count == 0) return 0.0;
  return static_cast<double>(reorg_depth_sum) /
         static_cast<double>(reorg_count);
}

namespace {

// One Eyal–Sirer block event: one Bernoulli(alpha) draw for the finder,
// plus one Bernoulli(gamma) draw when an honest block decides a tie race.
// The draw order is pinned by a golden in
// tests/chain/chain_replication_test.cpp.
void StepSelfishEvent(const ChainGameSpec& spec, ChainGameState& state,
                      RngStream& rng) {
  const bool selfish_found = rng.NextBernoulli(spec.alpha);
  if (state.tie_race) {
    // Both branches have length 1; this block decides the race.  The
    // displaced tie block is a depth-1 reorg for whichever side loses.
    state.tie_race = false;
    if (selfish_found) {
      state.tracked_blocks += 2;
    } else if (rng.NextBernoulli(spec.gamma)) {
      state.tracked_blocks += 1;
      state.other_blocks += 1;
    } else {
      state.other_blocks += 2;
    }
    state.orphaned_blocks += 1;
    state.reorg_count += 1;
    state.reorg_depth_sum += 1;
    state.reorg_depth_max = std::max<std::uint64_t>(state.reorg_depth_max, 1);
    return;
  }
  if (selfish_found) {
    ++state.lead;
    return;
  }
  // Honest miners found a block.
  switch (state.lead) {
    case 0:
      state.other_blocks += 1;
      return;
    case 1:
      // Pool publishes its single withheld block: 1-1 race.
      state.tie_race = true;
      state.lead = 0;
      return;
    case 2:
      // Pool publishes everything and wins; the honest block orphans
      // (depth-1 reorg of the honest tip).
      state.tracked_blocks += 2;
      state.lead = 0;
      break;
    default:
      // Lead > 2: the pool reveals one block, which commits; the honest
      // block is destined to orphan and the advantage shrinks by one.
      state.tracked_blocks += 1;
      state.lead -= 1;
      break;
  }
  state.orphaned_blocks += 1;
  state.reorg_count += 1;
  state.reorg_depth_sum += 1;
  state.reorg_depth_max = std::max<std::uint64_t>(state.reorg_depth_max, 1);
}

// One fork-race block event.  `q_tracked` / `q_other` are the window
// probabilities WindowProbability(share, delay) of each group.
void StepForkRaceEvent(const ChainGameSpec& spec, ChainGameState& state,
                       double q_tracked, double q_other, RngStream& rng) {
  using ForkPhase = ChainGameState::ForkPhase;
  switch (state.phase) {
    case ForkPhase::kSynced: {
      const bool tracked_found = rng.NextBernoulli(spec.alpha);
      const bool fork =
          rng.NextBernoulli(tracked_found ? q_other : q_tracked);
      if (!fork) {
        if (tracked_found) {
          state.tracked_blocks += 1;
        } else {
          state.other_blocks += 1;
        }
        return;
      }
      // The other side finds a competitor within the window: this block
      // opens a branch and the forced next block is theirs.
      if (tracked_found) {
        state.tracked_branch = 1;
        state.pending_tracked = false;
      } else {
        state.other_branch = 1;
        state.pending_tracked = true;
      }
      state.phase = ForkPhase::kForced;
      return;
    }
    case ForkPhase::kForced:
      // The window draw already fixed this block's owner (fork opening or
      // race catch-up); no randomness is consumed.
      if (state.pending_tracked) {
        state.tracked_branch += 1;
      } else {
        state.other_branch += 1;
      }
      state.phase = ForkPhase::kRace;
      return;
    case ForkPhase::kRace: {
      // Equal branches: the extender pulls ahead, then the other side
      // either evens up within the window (forced next block) or the lead
      // survives and the race resolves.
      const bool tracked_extends = rng.NextBernoulli(spec.alpha);
      if (tracked_extends) {
        state.tracked_branch += 1;
      } else {
        state.other_branch += 1;
      }
      const bool contested =
          rng.NextBernoulli(tracked_extends ? q_other : q_tracked);
      if (contested) {
        state.pending_tracked = !tracked_extends;
        state.phase = ForkPhase::kForced;
        return;
      }
      // Resolve: the longer branch commits whole, the loser orphans whole.
      const std::uint64_t depth =
          tracked_extends ? state.other_branch : state.tracked_branch;
      if (tracked_extends) {
        state.tracked_blocks += state.tracked_branch;
      } else {
        state.other_blocks += state.other_branch;
      }
      state.orphaned_blocks += depth;
      state.reorg_count += 1;
      state.reorg_depth_sum += depth;
      state.reorg_depth_max =
          std::max(state.reorg_depth_max, depth);
      state.tracked_branch = 0;
      state.other_branch = 0;
      state.phase = ForkPhase::kSynced;
      return;
    }
  }
}

}  // namespace

void StepChainEvents(const ChainGameSpec& spec, ChainGameState& state,
                     RngStream& rng, std::uint64_t events) {
  if (spec.dynamics == ChainDynamics::kSelfish) {
    for (std::uint64_t i = 0; i < events; ++i) {
      StepSelfishEvent(spec, state, rng);
    }
  } else {
    const double q_tracked = WindowProbability(spec.alpha, spec.delay);
    const double q_other = WindowProbability(1.0 - spec.alpha, spec.delay);
    for (std::uint64_t i = 0; i < events; ++i) {
      StepForkRaceEvent(spec, state, q_tracked, q_other, rng);
    }
  }
  state.events += events;
}

std::size_t ChainMatrixSize(const core::SimulationConfig& config) {
  return kChainMetricCount * config.checkpoints.size() *
         static_cast<std::size_t>(config.replications);
}

std::size_t ChainReplicationRowCount(const core::SimulationConfig& config) {
  return (1 + kChainMetricCount) * config.checkpoints.size();
}

void RunChainReplicationRange(const ChainGameSpec& spec,
                              const core::SimulationConfig& config,
                              std::size_t begin, std::size_t end,
                              double* out) {
  spec.Validate();
  // A descending schedule would underflow a segment length into a ~2^64
  // event spin, and a checkpoint past `steps` would simulate beyond the
  // horizon; Validate rejects both and an empty schedule, as
  // core::RunReplicationRange does.
  config.Validate();
  if (end > config.replications || begin > end) {
    throw std::invalid_argument(
        "RunChainReplicationRange: replication range out of bounds");
  }

  obs::Span range_span("mc.chain_replication_range", end - begin);
  const std::size_t cp = config.checkpoints.size();
  const std::size_t span = end - begin;
  const RngStream root(config.seed);
  ChainGameState state;
  // Per-range totals, flushed into the global counters once at the end —
  // the hot loop must stay pure arithmetic.
  std::uint64_t blocks_total = 0;
  std::uint64_t orphans_total = 0;
  std::uint64_t reorgs_total = 0;
  for (std::size_t r = begin; r < end; ++r) {
    RngStream rng = root.Split(r);
    state.Reset();
    std::uint64_t previous_step = 0;
    for (std::size_t c = 0; c < cp; ++c) {
      const std::uint64_t step = config.checkpoints[c];
      StepChainEvents(spec, state, rng, step - previous_step);
      previous_step = step;
      const std::size_t column = r - begin;
      out[c * span + column] = state.Lambda(spec);
      out[(1 * cp + c) * span + column] = state.OrphanRate();
      out[(2 * cp + c) * span + column] = state.ReorgDepthMean();
      out[(3 * cp + c) * span + column] =
          static_cast<double>(state.reorg_depth_max);
    }
    blocks_total += state.events;
    orphans_total += state.orphaned_blocks;
    reorgs_total += state.reorg_count;
  }
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("chain.block_events_total").Add(blocks_total);
  metrics.GetCounter("chain.orphans_total").Add(orphans_total);
  metrics.GetCounter("chain.reorgs_total").Add(reorgs_total);
}

void ReduceChainMetrics(const core::SimulationConfig& config,
                        std::span<const double> chain_matrix,
                        core::SimulationResult& result) {
  if (chain_matrix.size() != ChainMatrixSize(config)) {
    throw std::invalid_argument(
        "ReduceChainMetrics: chain matrix size mismatch");
  }
  const std::size_t cp = config.checkpoints.size();
  const auto replications = static_cast<std::size_t>(config.replications);
  if (result.checkpoints.size() != cp) {
    throw std::invalid_argument(
        "ReduceChainMetrics: result/checkpoint count mismatch");
  }
  for (std::size_t c = 0; c < cp; ++c) {
    double orphan_sum = 0.0;
    double depth_sum = 0.0;
    double depth_max = 0.0;
    for (std::size_t r = 0; r < replications; ++r) {
      orphan_sum += chain_matrix[(0 * cp + c) * replications + r];
      depth_sum += chain_matrix[(1 * cp + c) * replications + r];
      depth_max =
          std::max(depth_max, chain_matrix[(2 * cp + c) * replications + r]);
    }
    core::CheckpointStats& stats = result.checkpoints[c];
    stats.orphan_rate = orphan_sum / static_cast<double>(replications);
    stats.reorg_depth_mean = depth_sum / static_cast<double>(replications);
    stats.reorg_depth_max = depth_max;
  }
}

}  // namespace fairchain::chain
