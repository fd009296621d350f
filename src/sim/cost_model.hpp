// Per-cell execution-cost model for campaign planning.
//
// The campaign planner needs RELATIVE per-replication costs, not absolute
// ones: chunks are sized to a target of ~equal nanoseconds, so only the
// ratios between cells matter.  Estimates come from priors calibrated
// against BENCH_hotpath.json: ns-per-step samples of the batched kernel
// families (BM_Batched_* at several miner counts, BM_ChainStep for the
// chain event machine), interpolated log-linearly in the miner count.
// C-PoS at two miners costs ~32x a PoW step, which is exactly the spread
// the planner exists to balance.
//
// The estimate is a pure function of (cell, steps), so a campaign's plan
// depends only on its spec and concurrency, never on what ran earlier in
// the process.  Estimates NEVER affect simulation output — only chunk
// geometry and dispatch order, which the determinism contract
// (campaign.hpp) makes output-invariant.

#ifndef FAIRCHAIN_SIM_COST_MODEL_HPP_
#define FAIRCHAIN_SIM_COST_MODEL_HPP_

#include <cstdint>

#include "sim/scenario_spec.hpp"

namespace fairchain::sim {

/// Modeled wall nanoseconds of ONE replication of `cell` at `steps` steps.
/// Always finite and > 0 — unknown protocols fall back to a mid-range
/// prior rather than failing, since a wrong estimate only skews chunk
/// sizes, never results.
double EstimateReplicationNs(const CampaignCell& cell, std::uint64_t steps);

}  // namespace fairchain::sim

#endif  // FAIRCHAIN_SIM_COST_MODEL_HPP_
