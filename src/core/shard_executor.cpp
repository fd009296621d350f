#include "core/shard_executor.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/fault_injection.hpp"

namespace fairchain::core {

#ifdef _WIN32

void RunSharded(unsigned, const std::vector<std::size_t>&,
                const ChunkComputeFn&, const ChunkConsumeFn&) {
  throw std::runtime_error(
      "RunSharded: the process-sharded backend requires fork/pipe (POSIX)");
}

#else

namespace {

constexpr std::uint64_t kChunkMagic = 0xFA17C8A1'C0DE0001ULL;
constexpr std::uint64_t kErrorMagic = 0xFA17C8A1'C0DE0002ULL;
constexpr std::uint64_t kDoneMagic = 0xFA17C8A1'C0DE0003ULL;
constexpr std::uint64_t kSpanMagic = 0xFA17C8A1'C0DE0004ULL;
constexpr std::uint64_t kRequestMagic = 0xFA17C8A1'C0DE0005ULL;
constexpr std::uint64_t kGrantMagic = 0xFA17C8A1'C0DE0006ULL;

// Grant-index sentinel: no more work, drain and exit.
constexpr std::uint64_t kNoMoreWork =
    std::numeric_limits<std::uint64_t>::max();

// Span payloads are a few dozen bytes per span over at most one ring; a
// worker can never legitimately exceed this, so larger lengths are torn
// framing.
constexpr std::uint64_t kMaxSpanPayload = 1ULL << 26;

// Full write with EINTR retry; returns false on any unrecoverable error
// (e.g. EPIPE after the other end died).
bool WriteAll(int fd, const void* data, std::size_t len) {
  const char* cursor = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t written = write(fd, cursor, len);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    cursor += written;
    len -= static_cast<std::size_t>(written);
  }
  return true;
}

// Full read with EINTR retry.  Returns len on success, 0 on clean EOF at
// the first byte, and the (short) byte count on EOF mid-buffer.
std::size_t ReadAll(int fd, void* data, std::size_t len) {
  char* cursor = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = read(fd, cursor + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return got;
    }
    if (n == 0) return got;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

std::uint64_t NanosecondsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

bool WriteU64(int fd, std::uint64_t value) {
  return WriteAll(fd, &value, sizeof(value));
}

bool ReadU64(int fd, std::uint64_t* value) {
  return ReadAll(fd, value, sizeof(*value)) == sizeof(*value);
}

// Grant writes race worker deaths: a SIGKILLed worker turns the parent's
// next grant write into EPIPE, which must surface as a recorded shard
// failure — not as a process-fatal SIGPIPE.  Ignored around the whole
// RunSharded scope (installed before fork, so workers inherit it and
// their writes after a parent death fail with EPIPE -> _exit(3), exactly
// as before).
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    installed_ = sigaction(SIGPIPE, &ignore, &previous_) == 0;
  }
  ~ScopedIgnoreSigpipe() {
    if (installed_) sigaction(SIGPIPE, &previous_, nullptr);
  }
  ScopedIgnoreSigpipe(const ScopedIgnoreSigpipe&) = delete;
  ScopedIgnoreSigpipe& operator=(const ScopedIgnoreSigpipe&) = delete;

 private:
  struct sigaction previous_ {};
  bool installed_ = false;
};

// The worker-side loop: alternate grant -> compute -> stream -> request
// until the sentinel, then the done marker.  Never returns normally — the
// worker always _exit()s so no inherited stdio buffer, atexit hook, or
// gtest state replays in the child.
[[noreturn]] void RunWorker(unsigned shard, const ChunkComputeFn& compute,
                            int data_fd, int cmd_fd) {
  // The fork snapshotted the parent's recorded spans; discard them so this
  // worker streams only what it records itself.
  obs::TraceCollector::Global().OnShardWorkerStart();
  // Streams everything recorded since the last flush.  Called after each
  // complete chunk message and before the done marker, so a worker killed
  // between chunks has already shipped every committed span — only spans
  // of the chunk in flight can be lost.
  auto flush_spans = [data_fd] {
    if (!obs::TraceEnabled()) return true;
    const std::string spans =
        obs::TraceCollector::Global().DrainSerializedSpans();
    if (spans.empty()) return true;
    return WriteU64(data_fd, kSpanMagic) &&
           WriteU64(data_fd, static_cast<std::uint64_t>(spans.size())) &&
           WriteAll(data_fd, spans.data(), spans.size());
  };
  std::uint64_t sent = 0;
  try {
    for (;;) {
      std::uint64_t magic = 0;
      std::uint64_t index = 0;
      if (!ReadU64(cmd_fd, &magic) || magic != kGrantMagic ||
          !ReadU64(cmd_fd, &index)) {
        _exit(3);
      }
      if (index == kNoMoreWork) break;
      const std::vector<double> payload =
          compute(static_cast<std::size_t>(index));
      if (!WriteU64(data_fd, kChunkMagic) || !WriteU64(data_fd, index)) {
        _exit(3);
      }
      // Torn-message fault point: the header is on the wire, the payload
      // is not.
      MaybeInjectFault("shard-message", shard, sent + 1);
      if (!WriteU64(data_fd, static_cast<std::uint64_t>(payload.size())) ||
          !WriteAll(data_fd, payload.data(),
                    payload.size() * sizeof(double))) {
        _exit(3);
      }
      ++sent;
      if (!flush_spans()) _exit(3);
      // Clean-death / stall fault point: the chunk is fully streamed, the
      // next grant is not yet requested — a stalled worker here holds no
      // work, so the other workers drain the whole remaining queue (the
      // worst-case interleaving the scheduler golden tests force).
      MaybeInjectFault("shard-chunk", shard, sent);
      if (!WriteU64(data_fd, kRequestMagic) || !WriteU64(data_fd, sent)) {
        _exit(3);
      }
    }
    if (!flush_spans()) _exit(3);
    if (!WriteU64(data_fd, kDoneMagic) || !WriteU64(data_fd, sent)) _exit(3);
    _exit(0);
  } catch (const std::exception& error) {
    const std::string what = error.what();
    if (WriteU64(data_fd, kErrorMagic) &&
        WriteU64(data_fd, static_cast<std::uint64_t>(what.size()))) {
      WriteAll(data_fd, what.data(), what.size());
    }
    _exit(1);
  }
}

// The parent-side grant queue, shared by every reader thread.
struct GrantQueue {
  std::mutex mutex;
  std::vector<std::size_t> order;
  std::size_t next = 0;

  // Returns kNoMoreWork when exhausted.
  std::uint64_t Pop() {
    std::lock_guard<std::mutex> lock(mutex);
    if (next >= order.size()) return kNoMoreWork;
    return static_cast<std::uint64_t>(order[next++]);
  }
};

// One shard's parent-side state.
struct ShardStream {
  pid_t pid = -1;
  int data_fd = -1;  ///< read end of the worker's data pipe
  int cmd_fd = -1;   ///< write end of the worker's command pipe
  std::uint64_t received = 0;
  bool done_seen = false;
  // The single outstanding grant (the protocol allows at most one).
  bool has_outstanding = false;
  std::uint64_t outstanding = 0;
  std::chrono::steady_clock::time_point grant_time;
  std::string error;  // empty = clean so far
};

// Writes one grant to the worker and records it as outstanding.  Returns
// false when the worker is unreachable (dead child -> EPIPE).
bool SendGrant(ShardStream& stream, std::uint64_t index) {
  if (!WriteU64(stream.cmd_fd, kGrantMagic) ||
      !WriteU64(stream.cmd_fd, index)) {
    return false;
  }
  if (index != kNoMoreWork) {
    stream.has_outstanding = true;
    stream.outstanding = index;
    stream.grant_time = std::chrono::steady_clock::now();
  }
  return true;
}

// Drains one worker's stream, serving its grant requests from the shared
// queue and validating the framing; fills stream.error on the first
// deviation and stops.  Chunks this worker was granted but never
// delivered are NOT re-granted — the run fails loudly after the other
// workers finish draining the queue.
void ReadShardStream(ShardStream& stream, unsigned shard, GrantQueue& queue,
                     std::size_t chunk_count, const ChunkConsumeFn& consume) {
  auto& metrics = obs::MetricsRegistry::Global();
  obs::LatencyHistogram& grant_ns = metrics.GetHistogram("campaign.grant_ns");
  obs::Counter& shard_busy_ns =
      metrics.GetCounter("campaign.shard_busy_ns." + std::to_string(shard));
  while (true) {
    std::uint64_t magic = 0;
    const std::size_t got = ReadAll(stream.data_fd, &magic, sizeof(magic));
    if (got == 0) {
      stream.error = stream.done_seen
                         ? ""  // clean EOF after the done marker
                         : "stream ended before the done marker (worker "
                           "died after " +
                               std::to_string(stream.received) + " chunks)";
      return;
    }
    if (got != sizeof(magic)) {
      stream.error = "torn message header";
      return;
    }
    if (stream.done_seen) {
      stream.error = "message after the done marker";
      return;
    }
    if (magic == kErrorMagic) {
      std::uint64_t length = 0;
      if (!ReadU64(stream.data_fd, &length) || length > (1u << 20)) {
        stream.error = "torn error message";
        return;
      }
      std::string what(length, '\0');
      if (ReadAll(stream.data_fd, what.data(), length) != length) {
        stream.error = "torn error message";
        return;
      }
      stream.error = "worker raised: " + what;
      return;
    }
    if (magic == kSpanMagic) {
      std::uint64_t length = 0;
      if (!ReadU64(stream.data_fd, &length) || length > kMaxSpanPayload) {
        stream.error = "torn span message";
        return;
      }
      std::string spans(static_cast<std::size_t>(length), '\0');
      if (ReadAll(stream.data_fd, spans.data(), spans.size()) !=
          spans.size()) {
        stream.error = "torn span message";
        return;
      }
      if (!obs::TraceCollector::Global().ImportShardSpans(shard, spans)) {
        stream.error = "malformed span payload";
        return;
      }
      continue;
    }
    if (magic == kRequestMagic) {
      std::uint64_t seq = 0;
      if (!ReadU64(stream.data_fd, &seq)) {
        stream.error = "torn request message";
        return;
      }
      if (stream.has_outstanding || seq != stream.received) {
        stream.error = "request out of sequence (worker reports " +
                       std::to_string(seq) + " chunks, parent consumed " +
                       std::to_string(stream.received) + ")";
        return;
      }
      const auto request_time = std::chrono::steady_clock::now();
      const std::uint64_t index = queue.Pop();
      if (!SendGrant(stream, index)) {
        stream.error = "worker died awaiting a grant";
        return;
      }
      if (index != kNoMoreWork) {
        grant_ns.Record(NanosecondsSince(request_time));
      }
      continue;
    }
    if (magic == kDoneMagic) {
      std::uint64_t sent = 0;
      if (!ReadU64(stream.data_fd, &sent)) {
        stream.error = "torn done marker";
        return;
      }
      if (stream.has_outstanding || sent != stream.received) {
        stream.error = "done marker after " + std::to_string(sent) +
                       " chunks (parent consumed " +
                       std::to_string(stream.received) + ")";
        return;
      }
      stream.done_seen = true;
      continue;  // expect clean EOF next
    }
    if (magic != kChunkMagic) {
      stream.error = "bad message magic";
      return;
    }
    std::uint64_t index = 0;
    std::uint64_t count = 0;
    if (!ReadU64(stream.data_fd, &index) ||
        !ReadU64(stream.data_fd, &count)) {
      stream.error = "worker died mid-message (torn chunk header)";
      return;
    }
    if (!stream.has_outstanding || index != stream.outstanding ||
        index >= chunk_count) {
      stream.error = "chunk " + std::to_string(index) +
                     " does not match the outstanding grant" +
                     (stream.has_outstanding
                          ? " (" + std::to_string(stream.outstanding) + ")"
                          : " (none outstanding)");
      return;
    }
    std::vector<double> payload(static_cast<std::size_t>(count));
    const std::size_t want = payload.size() * sizeof(double);
    if (ReadAll(stream.data_fd, payload.data(), want) != want) {
      stream.error = "worker died mid-message (torn chunk payload, chunk " +
                     std::to_string(index) + ")";
      return;
    }
    const std::uint64_t busy_ns = NanosecondsSince(stream.grant_time);
    try {
      obs::Span consume_span("shard.consume", index);
      consume(static_cast<std::size_t>(index), std::move(payload), busy_ns);
    } catch (const std::exception& error) {
      stream.error = std::string("consume failed: ") + error.what();
      return;
    }
    shard_busy_ns.Add(busy_ns);
    stream.has_outstanding = false;
    ++stream.received;
  }
}

}  // namespace

void RunSharded(unsigned shard_count, const std::vector<std::size_t>& order,
                const ChunkComputeFn& compute, const ChunkConsumeFn& consume) {
  if (shard_count == 0) {
    throw std::invalid_argument("RunSharded: shard_count must be >= 1");
  }
  const std::size_t chunk_count = order.size();
  if (chunk_count == 0) return;
  std::vector<bool> seen(chunk_count, false);
  for (const std::size_t j : order) {
    if (j >= chunk_count || seen[j]) {
      throw std::invalid_argument(
          "RunSharded: order must be a permutation of the chunk indices");
    }
    seen[j] = true;
  }

  GrantQueue queue;
  queue.order = order;

  // All pipes exist before the first fork so every worker can close every
  // descriptor that is not its own pair.
  std::vector<int> data_read(shard_count, -1);
  std::vector<int> data_write(shard_count, -1);
  std::vector<int> cmd_read(shard_count, -1);
  std::vector<int> cmd_write(shard_count, -1);
  auto close_all = [&](unsigned upto) {
    for (unsigned t = 0; t < upto; ++t) {
      close(data_read[t]);
      close(data_write[t]);
      close(cmd_read[t]);
      close(cmd_write[t]);
    }
  };
  for (unsigned s = 0; s < shard_count; ++s) {
    int data_fds[2];
    int cmd_fds[2];
    if (pipe(data_fds) != 0) {
      close_all(s);
      throw std::runtime_error("RunSharded: pipe() failed");
    }
    if (pipe(cmd_fds) != 0) {
      close(data_fds[0]);
      close(data_fds[1]);
      close_all(s);
      throw std::runtime_error("RunSharded: pipe() failed");
    }
    data_read[s] = data_fds[0];
    data_write[s] = data_fds[1];
    cmd_read[s] = cmd_fds[0];
    cmd_write[s] = cmd_fds[1];
  }

  // Grant writes must fail with EPIPE, not kill the process; workers
  // inherit the disposition (see ScopedIgnoreSigpipe).
  ScopedIgnoreSigpipe ignore_sigpipe;

  // Inherited stdio buffers would be replayed by a worker that crashes
  // through a buffered FILE*; flush everything before snapshotting.
  std::fflush(nullptr);

  std::vector<ShardStream> streams(shard_count);
  for (unsigned s = 0; s < shard_count; ++s) {
    const pid_t pid = fork();
    if (pid < 0) {
      close_all(shard_count);
      for (unsigned t = 0; t < s; ++t) {
        kill(streams[t].pid, SIGKILL);
        waitpid(streams[t].pid, nullptr, 0);
      }
      throw std::runtime_error("RunSharded: fork() failed");
    }
    if (pid == 0) {
      for (unsigned t = 0; t < shard_count; ++t) {
        close(data_read[t]);
        close(cmd_write[t]);
        if (t != s) {
          close(data_write[t]);
          close(cmd_read[t]);
        }
      }
      RunWorker(s, compute, data_write[s], cmd_read[s]);
    }
    streams[s].pid = pid;
    streams[s].data_fd = data_read[s];
    streams[s].cmd_fd = cmd_write[s];
  }
  for (unsigned s = 0; s < shard_count; ++s) {
    close(data_write[s]);
    close(cmd_read[s]);
  }

  // Prime every worker with its first grant, in shard order — a pure
  // function of (grant_order, shard count), so fault tests can pin which
  // chunk a worker computes first.  Later grants are earned on demand.
  for (unsigned s = 0; s < shard_count; ++s) {
    const std::uint64_t index = queue.Pop();
    if (!SendGrant(streams[s], index)) {
      streams[s].error = "worker died before its first grant";
    }
  }

  // One reader per worker: payloads are consumed as they arrive, in any
  // cross-shard order (they commute — disjoint target ranges), and each
  // reader serves its own worker's grant requests so no shard ever waits
  // on another shard's reader.
  std::vector<std::thread> readers;
  readers.reserve(shard_count);
  for (unsigned s = 0; s < shard_count; ++s) {
    if (!streams[s].error.empty()) continue;
    readers.emplace_back([&streams, s, &queue, chunk_count, &consume] {
      ReadShardStream(streams[s], s, queue, chunk_count, consume);
    });
  }
  for (std::thread& reader : readers) reader.join();
  // Closing the command pipes unblocks any worker still waiting on a
  // grant after its reader bailed out (it reads EOF and exits).
  for (unsigned s = 0; s < shard_count; ++s) {
    close(cmd_write[s]);
    close(data_read[s]);
  }

  // Reap every worker, then report the first failure: a reader-detected
  // framing error wins over the exit status (it names the chunk), but a
  // clean stream from a crashed worker is still an error.
  std::string failure;
  for (unsigned s = 0; s < shard_count; ++s) {
    int status = 0;
    while (waitpid(streams[s].pid, &status, 0) < 0 && errno == EINTR) {
    }
    std::string exit_note;
    if (WIFSIGNALED(status)) {
      exit_note = "killed by signal " + std::to_string(WTERMSIG(status));
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      exit_note = "exited with status " + std::to_string(WEXITSTATUS(status));
    }
    std::string shard_failure;
    if (!streams[s].error.empty()) {
      shard_failure = streams[s].error;
      if (!exit_note.empty()) shard_failure += "; " + exit_note;
    } else if (!exit_note.empty() || !streams[s].done_seen) {
      shard_failure = exit_note.empty() ? "incomplete stream" : exit_note;
    }
    if (!shard_failure.empty() && failure.empty()) {
      failure = "shard " + std::to_string(s) + ": " + shard_failure;
    }
  }
  if (!failure.empty()) {
    throw std::runtime_error(
        "RunSharded: " + failure +
        " — results are incomplete, nothing was emitted for the affected "
        "cells (re-run, or resume from the campaign store)");
  }
}

#endif  // _WIN32

}  // namespace fairchain::core
