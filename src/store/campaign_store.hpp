// Content-addressed, durable campaign store — the resume/cache layer.
//
// Every finished campaign cell is persisted as one entry keyed by
// SHA-256(canonical cell description), where the description covers
// everything that determines the simulated result: the code-version
// stamp, the protocol and its parameters, the exact stake vector, the
// seed, the horizon/replications/checkpoints, and the fairness spec (see
// sim::CellStorePreimage).  Identical cells — across campaigns, scenario
// names, shard counts, and backends — therefore share one entry, so:
//   * `campaign --store DIR` re-run after a crash skips every cell that
//     finished (resume),
//   * an identical campaign re-run completes entirely from cache,
//   * a code upgrade changes the stamp, which changes every key: stale
//     results are never served.
//
// Durability discipline (the DragonBallChain persistence idiom: write
// sideways, commit atomically, verify on read):
//   * Entries commit via write-to-temp + rename(2).  A writer SIGKILLed
//     mid-entry leaves only a `*.tmp.*` orphan, which lookups never open;
//     the committed namespace only ever contains complete files.
//   * Every entry carries its key, the code-version stamp, the canonical
//     preimage, and a SHA-256 over the payload.  Load() re-verifies all
//     of them; truncation, bit flips, stamp mismatches, or key mismatches
//     come back as kCorrupt / kVersionMismatch — NEVER as a hit — so the
//     caller recomputes and overwrites.  Silently serving a wrong row is
//     structurally impossible: the payload hash has to match first.
//
// Entry layout (binary, little-endian):
//   "FCSTORE1"                     8-byte magic
//   key digest                     32 bytes
//   code version                   length-prefixed string
//   preimage                       length-prefixed string (debuggability:
//                                  `xxd` on an entry shows what it caches)
//   payload                        length-prefixed EncodeSimulationResult
//   payload SHA-256                32 bytes
//
// Thread safety: Load/Put may be called concurrently from campaign
// workers; stats live in atomic obs::MetricsRegistry counters, files are
// written under unique temp names (pid + sequence number).

#ifndef FAIRCHAIN_STORE_CAMPAIGN_STORE_HPP_
#define FAIRCHAIN_STORE_CAMPAIGN_STORE_HPP_

#include <cstdint>
#include <mutex>
#include <string>

#include "core/monte_carlo.hpp"
#include "crypto/sha256.hpp"

namespace fairchain::store {

/// Bump on ANY change to the entry layout, the result codec, or the
/// simulation semantics that existing keys cannot capture.  Part of the
/// code-version stamp, so a bump invalidates every cached cell at once.
/// Revision 3: C-PoS cells with m <= P draw slot counts as a binomial
/// chain, so their results moved for unchanged cell descriptions.
inline constexpr int kStoreSchemaRevision = 3;

/// The stamp written into (and checked against) every entry:
/// "<library version>+schema<revision>".
const std::string& DefaultCodeVersion();

/// A content address: the SHA-256 of a canonical cell description, kept
/// together with its preimage for debuggability and header echo.
struct CellKey {
  crypto::Digest digest{};
  std::string preimage;

  /// Lowercase hex of the digest — the entry's file basename.
  std::string Hex() const;
};

/// Hashes a canonical cell description into its content address.
CellKey MakeCellKey(std::string preimage);

enum class LoadStatus {
  kHit,              ///< verified entry, result is valid
  kMiss,             ///< no entry under this key
  kCorrupt,          ///< entry exists but fails verification — recompute
  kVersionMismatch,  ///< entry written by a different code version
};

struct LoadResult {
  LoadStatus status = LoadStatus::kMiss;
  core::SimulationResult result;  ///< populated only for kHit
  std::string detail;             ///< human-readable failure description
};

/// Monotonic per-store counters (one store object = one campaign run's
/// accounting; the CLI prints them).  Backed by the process-wide
/// obs::MetricsRegistry ("store.hits", "store.misses", ...): the store
/// snapshots the counters at construction and stats() reports the delta,
/// so per-store accounting and `--metrics` export share one source of
/// truth.
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t version_mismatches = 0;
  std::uint64_t writes = 0;
  std::uint64_t write_failures = 0;
};

class CampaignStore {
 public:
  /// Opens (creating if needed) the store directory.  `code_version`
  /// defaults to DefaultCodeVersion(); tests inject synthetic stamps to
  /// exercise the mismatch path.  Throws std::runtime_error when the
  /// directory cannot be created.
  explicit CampaignStore(std::string directory,
                         std::string code_version = DefaultCodeVersion());

  const std::string& directory() const { return directory_; }
  const std::string& code_version() const { return code_version_; }

  /// Absolute path of `key`'s entry file.
  std::string EntryPath(const CellKey& key) const;

  /// Looks `key` up and fully verifies the entry (magic, key echo,
  /// version stamp, payload hash, decode).  Never throws on a bad entry —
  /// corruption is a recoverable cache miss, reported in the status.
  LoadResult Load(const CellKey& key);

  /// Atomically commits `result` under `key` (write temp, fsync-free
  /// rename; an interrupted Put never touches the committed entry).
  /// Returns false and counts a write failure when the filesystem refuses
  /// (disk full, permissions) — caching is best-effort, the campaign's
  /// own output is already correct.
  bool Put(const CellKey& key, const core::SimulationResult& result);

  StoreStats stats() const;

 private:
  std::string directory_;
  std::string code_version_;
  mutable std::mutex mutex_;
  StoreStats baseline_;  ///< registry totals when this store was opened
  std::uint64_t temp_sequence_ = 0;
};

}  // namespace fairchain::store

#endif  // FAIRCHAIN_STORE_CAMPAIGN_STORE_HPP_
