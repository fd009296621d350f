// Process-sharded chunk execution: fork N worker processes, stream results
// back over pipes.
//
// RunSharded is the ShardBackend's Run.  The caller brings a flat list of
// independent chunks (in the campaign runner: one (cell, replication-range)
// pair each) and the order to dispatch them in.  Chunk ownership is
// DEMAND-DRIVEN: the parent holds one grant queue (the caller's `order`)
// and hands out one chunk per worker at a time — each worker is primed
// with one grant at fork, and earns its next grant by finishing the
// previous chunk.  A worker that
// drains cheap chunks therefore immediately absorbs the queue's expensive
// tail instead of idling behind a static j%N partition.  WHICH worker
// computes a chunk is timing-dependent; WHAT every chunk computes and
// where its payload lands never is, so output stays byte-identical to the
// serial backend at any shard count (the campaign determinism contract).
//
// Per the execution-backend contract (core/execution_backend.hpp), every
// chunk's payload is pre-addressed: `compute(j)` returns the chunk's
// doubles and `consume(j, payload, busy_ns)` scatters them into the
// caller's result matrices.  Because payloads commute (disjoint target
// ranges), the parent may consume them in ANY arrival order; deterministic output
// is the caller's reduction/emission cursor, exactly as with the
// in-process backends.
//
// Wire protocol (host byte order — the workers are forks of this very
// process, never remote).  Each worker has TWO pipes: a data pipe
// (worker -> parent) and a command pipe (parent -> worker).
//
// Worker -> parent, on the data pipe:
//   chunk message:   [kChunkMagic u64][chunk index u64][count u64]
//                    [count doubles]
//   request message: [kRequestMagic u64][chunks sent so far u64]
//   error message:   [kErrorMagic u64][length u64][length bytes of what()]
//   done message:    [kDoneMagic u64][chunks streamed u64]
//   span message:    [kSpanMagic u64][length u64][length bytes of
//                    obs::TraceCollector::DrainSerializedSpans payload]
// Parent -> worker, on the command pipe:
//   grant message:   [kGrantMagic u64][chunk index u64]
//                    (index kNoMoreWork = drain: send the done message
//                    and exit)
//
// A worker's life is a strict alternation: read grant, compute the chunk,
// stream its chunk message, flush spans, send a request, repeat — so the
// parent sees request k only after chunk k is fully on the wire, and at
// most ONE chunk per worker is ever in flight.  The parent runs one
// reader thread per worker which validates the full framing — magic,
// grant/request sequencing, that a chunk message matches the worker's
// outstanding grant, payload length, span payload well-formedness, the
// done count, and the worker's exit status.
//
// Failure semantics: when a worker dies, the chunks it was granted but
// never delivered are NOT re-granted, and the surviving workers keep
// draining the remaining queue to completion — then RunSharded throws,
// naming the dead shard.  Nothing is emitted for cells missing a chunk,
// but every cell whose chunks all arrived has been consumed (and, in the
// campaign runner, committed to the store), so a resumed run recomputes
// only the affected cells.  It never returns partial results silently.
//
// Fault-injection sites (support/fault_injection.hpp): a worker passes
// shard-message after each chunk header and shard-chunk after each
// complete chunk message (before requesting its next grant), so crash
// tests can sever the stream at either boundary and stall tests can force
// worst-case grant interleavings.

#ifndef FAIRCHAIN_CORE_SHARD_EXECUTOR_HPP_
#define FAIRCHAIN_CORE_SHARD_EXECUTOR_HPP_

#include <cstddef>
#include <vector>

#include "core/execution_backend.hpp"

namespace fairchain::core {

/// Executes the chunks of `order` (a permutation of [0, order.size()),
/// granted in that order) across `shard_count` forked worker processes via
/// the demand-driven grant protocol and feeds every payload to `consume`.
/// `compute` runs inside the workers, on a copy-on-write snapshot of the
/// parent taken at the call, single-threaded; `consume` runs on the
/// parent's per-worker reader threads, concurrently across shards.
///
/// Scheduler metrics are recorded parent-side, because a child's clock
/// readings die with the fork: `busy_ns` (grant written -> payload fully
/// received) goes to consume and into the `campaign.shard_busy_ns.<s>`
/// counter of the worker that computed the chunk, and each earned grant's
/// request -> grant round trip into the `campaign.grant_ns` histogram.
///
/// Returns only when all payloads are consumed, all workers are reaped,
/// and the framing was valid end to end; throws std::runtime_error
/// otherwise (dead worker, torn message, bad framing, worker-side or
/// consume exception) — after the surviving workers have drained every
/// still-grantable chunk.  POSIX only.
void RunSharded(unsigned shard_count, const std::vector<std::size_t>& order,
                const ChunkComputeFn& compute, const ChunkConsumeFn& consume);

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_SHARD_EXECUTOR_HPP_
