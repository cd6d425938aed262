//===- ipc/Shards.h - Verdict-only shard dispatch interface ---------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one executor behind the three verdict-only scans (determinism,
/// Lemma 4.7 transition injectivity, each level of the Lemma 4.14
/// ambiguity product) and its seam to the out-of-process worker pool.
/// A scan exports plain data per chunk — indices, booleans — and every
/// witness is re-derived serially in the shared session. runShardChunks
/// cuts the scan's index range into contiguous chunks and runs them on
/// threads; each chunk either scans in-process against pooled sessions or
/// goes through a ShardDispatcher, which carries exactly that data shape
/// across a process boundary. The phases therefore stay byte-identical
/// whether a chunk ran on a thread or in a child process.
///
/// Header-only and free of engine dependencies on purpose: transducer/
/// and automata/ reference the interface without linking the engine, and
/// the engine's WorkerSupervisor implements it without the phases knowing
/// about processes, pipes, or restarts.
///
/// Failure contract: a shard call that cannot be completed (worker crashed
/// twice, pool exhausted) returns a failed Result, and runShardChunks
/// reports the first failed chunk through shardFailure — the phase then
/// degrades through the partial-report machinery. Dispatchers never fall
/// back to running the shard in-process; crash isolation is the point.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_IPC_SHARDS_H
#define GENIC_IPC_SHARDS_H

#include "support/Result.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace genic {

/// "No event in this shard" marker for the scan calls. In-process scans
/// return size_t indices with SIZE_MAX for no event; both travel as one
/// uint64_t.
constexpr uint64_t ShardNoEvent = UINT64_MAX;
static_assert(SIZE_MAX == ShardNoEvent, "scan indices must fit uint64_t");

/// One (P, Q, D) configuration of the ambiguity product frontier, in the
/// coordinator's state numbering.
struct AmbShardConfig {
  uint64_t P = 0;
  uint64_t Q = 0;
  bool D = false;
};

/// One step discovery made by an ambiguity chunk: at frontier index
/// \p Cfg (absolute, coordinator numbering), expanded-step indices \p I1
/// and \p I2 overlapped (or the overlap query failed, \p IsError). The
/// level merge re-derives the target key, target states and divergence bit
/// from its own expanded product, and re-checks IsError entries in the
/// shared session, wherever the chunk ran.
struct AmbShardDiscovery {
  uint64_t Cfg = 0;
  uint64_t I1 = 0;
  uint64_t I2 = 0;
  bool IsError = false;
};

/// An ambiguity chunk's verdict data, in-process or shipped: the first
/// frontier index with a finisher-overlap event (ShardNoEvent if none)
/// plus the step discoveries in scan order.
struct AmbShardResult {
  uint64_t FinEvent = ShardNoEvent;
  std::vector<AmbShardDiscovery> Discoveries;
};

/// The status a scan driver reports for a shard that failed with \p E: a
/// budget status (the request's deadline cut the shard short) keeps its
/// code, so the phase degrades as budget-exhausted exactly like an
/// in-process scan; anything else poisons the phase to SolverError.
inline Status shardFailure(const char *Scan, const Status &E) {
  std::string Message = std::string(Scan) + " shard failed: " + E.message();
  switch (E.code()) {
  case StatusCode::Timeout:
    return Status::timeout(std::move(Message));
  case StatusCode::Cancelled:
    return Status::cancelled(std::move(Message));
  default:
    return Status::solverError(std::move(Message));
  }
}

/// Fans verdict-only scan shards to some execution substrate (in practice
/// the engine's WorkerSupervisor over genic-worker processes). Calls are
/// thread-safe and blocking; concurrent calls draw from a pool of
/// workers. All indices refer to the canonical orders both sides derive
/// independently from the loaded program (hash-consing makes re-lowering
/// deterministic): the suspicious-pair list for determinism, the
/// lookahead-rule list for transition injectivity, and the expanded
/// product for ambiguity (guarded by \p Fingerprint).
class ShardDispatcher {
public:
  virtual ~ShardDispatcher() = default;

  /// Number of worker processes backing the dispatcher (> 0).
  virtual unsigned procs() const = 0;

  /// Scans suspicious pairs [Begin, End); returns the first index whose
  /// pair-violation query was sat or failed, or ShardNoEvent.
  virtual Result<uint64_t> determinismShard(uint64_t Begin, uint64_t End) = 0;

  /// Scans lookahead rules [Begin, End); returns the first index whose
  /// transition-injectivity query was sat or failed, or ShardNoEvent.
  virtual Result<uint64_t> transitionInjectivityShard(uint64_t Begin,
                                                     uint64_t End) = 0;

  /// Starts building the output automaton and product that ambiguity
  /// shards scan against, on every worker, and returns without waiting. The coordinator calls it before its own build of the
  /// same product so the builds overlap; a shard that reaches a worker
  /// still building waits for it. Failures are not reported here: the
  /// next shard on that worker owns them.
  virtual void prepareAmbiguity() = 0;

  /// Scans one chunk of an ambiguity BFS level against the output
  /// automaton's product. \p Fingerprint is the coordinator's
  /// structural hash of the expanded product — a worker whose own
  /// expansion disagrees refuses the shard. \p CfgBase is the absolute
  /// frontier index of LevelChunk[0]; \p VisitedKeys snapshots the
  /// visited set (prior levels only, per the merge contract).
  virtual Result<AmbShardResult>
  ambiguityShard(uint64_t Fingerprint, uint64_t CfgBase,
                 const std::vector<uint64_t> &VisitedKeys,
                 const std::vector<AmbShardConfig> &LevelChunk) = 0;
};

/// Runs scan \p Scan over the index range [0, \p N): min(N, 4W) contiguous
/// chunks on a pool of min(W, N) threads, W being the worker processes of
/// \p Workers when it has any and max(1, \p Jobs) otherwise. \p Chunk is
/// called as Chunk(Begin, End, Dispatcher) and returns a Result<T>; the
/// dispatcher is null when the chunk should scan in-process. Returns the
/// chunks' results in chunk order (so concatenating them follows index
/// order), or the first failed chunk's status through shardFailure.
/// \p Span gets a "workers" argument when the chunks go out of process.
template <typename T, typename ChunkFn>
Result<std::vector<T>> runShardChunks(const char *Scan, size_t N,
                                      unsigned Jobs, ShardDispatcher *Workers,
                                      TraceSpan &Span, ChunkFn &&Chunk) {
  if (Workers && Workers->procs() == 0)
    Workers = nullptr;
  size_t Width = Workers ? Workers->procs() : std::max(1u, Jobs);
  size_t NumChunks = std::min(N, Width * 4);
  if (Workers)
    Span.arg("workers", static_cast<int64_t>(Width));
  std::vector<T> Out(NumChunks);
  std::vector<Status> Failed(NumChunks);
  ThreadPool TP(std::min(Width, N), Scan);
  for (size_t C = 0; C != NumChunks; ++C)
    TP.submit([&, C] {
      Result<T> R = Chunk(N * C / NumChunks, N * (C + 1) / NumChunks, Workers);
      if (R)
        Out[C] = std::move(*R);
      else
        Failed[C] = R.status();
    });
  TP.wait();
  for (const Status &E : Failed)
    if (!E)
      return shardFailure(Scan, E);
  return Out;
}

} // namespace genic

#endif // GENIC_IPC_SHARDS_H
