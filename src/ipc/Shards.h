//===- ipc/Shards.h - Verdict-only shard dispatch interface ---------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seam between the verification phases and the out-of-process worker
/// pool. The phases (determinism, Lemma 4.7 transition injectivity, the
/// Lemma 4.14 ambiguity product) already run their parallel scans under a
/// verdict-only contract: chunks export plain data — indices, booleans —
/// and every witness is re-derived serially in the shared session. A
/// ShardDispatcher carries exactly that data shape across a process
/// boundary, so the phases stay byte-identical whether a chunk ran on a
/// thread or in a child process.
///
/// Header-only and dependency-free on purpose: transducer/ and automata/
/// reference the interface without linking the engine, and the engine's
/// WorkerSupervisor implements it without the phases knowing about
/// processes, pipes, or restarts.
///
/// Failure contract: a shard call that cannot be completed (worker crashed
/// twice, pool exhausted) returns a failed Result whose Status the caller
/// must propagate — the phase then degrades to SolverError through the
/// partial-report machinery. Dispatchers never fall back to running the
/// shard in-process; crash isolation is the point.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_IPC_SHARDS_H
#define GENIC_IPC_SHARDS_H

#include "support/Result.h"

#include <cstdint>
#include <vector>

namespace genic {

/// "No event in this shard" marker for the scan calls.
constexpr uint64_t ShardNoEvent = UINT64_MAX;

/// One (P, Q, D) configuration of the ambiguity product frontier, in the
/// coordinator's state numbering.
struct AmbShardConfig {
  uint64_t P = 0;
  uint64_t Q = 0;
  bool D = false;
};

/// One step discovery made by an ambiguity shard: at frontier index
/// \p Cfg (absolute, coordinator numbering), expanded-step indices \p I1
/// and \p I2 overlapped (or the overlap query failed, \p IsError). The
/// coordinator re-derives every other Discovery field — target key,
/// divergence bit — from its own expanded product, and re-checks IsError
/// entries in the shared session, exactly as the in-process merge does.
struct AmbShardDiscovery {
  uint64_t Cfg = 0;
  uint64_t I1 = 0;
  uint64_t I2 = 0;
  bool IsError = false;
};

/// An ambiguity shard's verdict data: the first frontier index with a
/// finisher-overlap event (ShardNoEvent if none) plus the step
/// discoveries in scan order.
struct AmbShardResult {
  uint64_t FinEvent = ShardNoEvent;
  std::vector<AmbShardDiscovery> Discoveries;
};

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
  /// shards with \p Hull scan against, on every worker, and returns
  /// without waiting. The coordinator calls it before its own build of the
  /// same product so the builds overlap; a shard that reaches a worker
  /// still building waits for it. Failures are not reported here: the
  /// next shard on that worker owns them.
  virtual void prepareAmbiguity(bool Hull) = 0;

  /// Scans one chunk of an ambiguity BFS level against the output
  /// automaton built with \p Hull. \p Fingerprint is the coordinator's
  /// structural hash of the expanded product — a worker whose own
  /// expansion disagrees refuses the shard. \p CfgBase is the absolute
  /// frontier index of LevelChunk[0]; \p VisitedKeys snapshots the
  /// visited set (prior levels only, per the merge contract).
  virtual Result<AmbShardResult>
  ambiguityShard(bool Hull, uint64_t Fingerprint, uint64_t CfgBase,
                 const std::vector<uint64_t> &VisitedKeys,
                 const std::vector<AmbShardConfig> &LevelChunk) = 0;
};

} // namespace genic

#endif // GENIC_IPC_SHARDS_H
