// The in-process worker pool: one closed batch of tasks over per-worker
// deques with work stealing.
//
// Determinism is preserved because callers derive every replication's RNG
// stream from the replication index, never from the executing thread.

#ifndef FAIRCHAIN_SUPPORT_THREAD_POOL_HPP_
#define FAIRCHAIN_SUPPORT_THREAD_POOL_HPP_

#include <cstdint>
#include <functional>
#include <vector>

namespace fairchain {

/// Runs one fixed batch of tasks across `threads` workers with per-worker
/// deques and work stealing, blocking until every task has finished.
///
/// Task i is dealt onto deque i % threads; a worker pops its OWN deque
/// front-to-back (preserving the batch's locality — consecutive chunks of
/// one campaign cell stay on one worker while it keeps up), and when its
/// deque drains it STEALS from the back of the busiest sibling — so a
/// worker that finishes a run of cheap tasks immediately relieves whoever
/// holds the expensive ones.  Tasks must not submit further tasks: the
/// batch is closed, which is what makes "every deque empty" a correct
/// termination condition.
///
/// Returns the number of successful steals (tasks executed by a worker
/// other than the one they were dealt to).
///
/// Failure semantics: the first exception a task throws is captured, the
/// other workers still finish the batch, and the exception is rethrown on
/// the calling thread after every worker has joined — the same contract as
/// core::RunSharded.  With one worker the batch runs inline and an
/// exception propagates at once.
///
/// Determinism: stealing only changes WHICH worker runs a task and WHEN,
/// never what the task computes — callers uphold the index-derived-RNG /
/// disjoint-output contract (core/execution_backend).
std::uint64_t RunStealingBatch(unsigned threads,
                               std::vector<std::function<void()>> tasks);

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_THREAD_POOL_HPP_
