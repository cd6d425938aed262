//===- engine/WorkerSupervisor.h - Crash-isolated verification shards -----===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator-side owner of the out-of-process solver workers: spawns
/// genic-worker processes over socketpairs, loads each with the request's
/// program source and robustness contract, and dispatches verdict-only
/// verification shards (determinism pairs, transition-injectivity rules,
/// ambiguity product-level chunks) to them — so a Z3 segfault, OOM kill, or
/// injected crash@N takes down one worker process, not the run.
///
/// Failure policy (the crash → SolverError contract):
///
///   * A worker that stops answering — closed pipe, SIGKILL/SIGSEGV exit,
///     or a shard deadline expiring — is reaped and its slot restarted
///     with exponential backoff, up to a bounded restart budget per slot.
///   * The failed shard is retried ONCE on a freshly spawned worker. A
///     second failure degrades the shard to Status::solverError, which the
///     scan drivers surface as a degraded phase (partial report, documented
///     exit code) — never a silent in-process fallback.
///   * A reply that carries an error (e.g. an injected throw fault inside
///     the worker) is NOT a crash: it maps straight to the corresponding
///     Status without a retry, exactly like the in-process path.
///   * prep (prepareAmbiguity) is not a shard and never fails anything by
///     itself: a worker that dies in prep is reaped and counted as a crash
///     like any other, its restart is counted when the next shard respawns
///     it, and that shard owns the retry/degrade policy above. A prep
///     error reply is dropped; the worker keeps the failed build and its
///     next amb shard returns that error. Preps never count in shards,
///     retries, or degraded.
///   * Once the request's cancellation token has fired (deadline or
///     explicit cancel), any shard failure — crash, unusable slot, or
///     error reply — is reported as Status::cancelled: the budget cut the
///     shard short, so the run ends budget-exhausted (exit 4), as an
///     in-process scan would, not solver-error (exit 5). The scan drivers
///     keep budget codes (shardFailure in ipc/Shards.h).
///   * Teardown never waits on a product build nobody will scan: the
///     destructor, and collect() of a cancelled or over-deadline request,
///     SIGKILL every worker still in prep (not counted as a crash).
///
/// Determinism: workers rebuild the program from the same source text
/// (hash-consing makes the derivation reproducible) and return only plain
/// verdict data; every winning event is re-checked in the coordinator's
/// shared session. The merge logic consuming these shards is chunk-
/// boundary-invariant, so reports are byte-identical to in-process runs.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_ENGINE_WORKERSUPERVISOR_H
#define GENIC_ENGINE_WORKERSUPERVISOR_H

#include "ipc/Message.h"
#include "ipc/Shards.h"
#include "support/Deadline.h"
#include "support/Metrics.h"
#include "support/Result.h"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace genic {

/// Everything a worker needs to mirror the coordinator's run, fixed at
/// launch (one supervisor serves one request).
struct WorkerSupervisorConfig {
  /// Worker processes to run. launch() requires >= 1.
  unsigned Procs = 1;
  /// Path to the genic-worker binary. Empty resolves GENIC_WORKER from the
  /// environment, then "genic-worker" next to the running executable.
  std::string WorkerBinary;
  /// The program source workers parse and lower on load.
  std::string Source;
  /// Per-query solver soft timeout (ms); 0 keeps the worker default.
  unsigned SolverTimeoutMs = 0;
  /// Wall-clock budget for the whole request; each worker starts its own
  /// deadline at load time. 0 = no deadline.
  double BudgetSeconds = 0;
  /// describeFaultPlan() of the request's fault plan ("-" = none). Workers
  /// arm crash faults, so a crash@N plan actually kills them.
  std::string FaultSpec = "-";
  /// The request's cancellation (deadline or explicit cancel); once it has
  /// fired, collect() kills workers still in prep instead of waiting.
  CancellationToken Cancel;
  /// Ask workers to record trace events for collect().
  bool Trace = false;
  /// Request epoch worker spans are stamped with (0 = untagged).
  uint64_t TraceReq = 0;
  /// Restarts allowed per slot before it is declared dead.
  unsigned MaxRestartsPerSlot = 3;
  /// Deadline for one shard round-trip (guards against a hung worker);
  /// also the load/ping deadline.
  int ShardDeadlineMs = 600000;
};

/// Owns the worker fleet for one request and implements ShardDispatcher
/// over it. Thread-safe: shard calls may come concurrently from the scan
/// drivers' dispatch pools; each call checks out one worker slot for its
/// round-trip. prepareAmbiguity(), collect() and the destructor are called
/// from the request's own thread.
class WorkerSupervisor : public ShardDispatcher {
public:
  /// Creates the supervisor with \p Cfg.Procs empty slots. Workers are
  /// spawned lazily at first checkout, so a run that never ships a shard
  /// never forks. Fails only on unusable configuration (no procs, no
  /// resolvable binary).
  static Result<std::unique_ptr<WorkerSupervisor>>
  launch(const WorkerSupervisorConfig &Cfg);

  /// Sends quit to live workers and reaps every child.
  ~WorkerSupervisor() override;

  unsigned procs() const override;
  Result<uint64_t> determinismShard(uint64_t Begin, uint64_t End) override;
  Result<uint64_t> transitionInjectivityShard(uint64_t Begin,
                                              uint64_t End) override;
  /// Checks out each live, idle slot and runs the prep round trip on it
  /// in a background thread (spawning the worker first if needed). The
  /// slot stays Busy until the worker has built the product, so the first
  /// ambiguity shard simply waits for a prepped slot.
  void prepareAmbiguity() override;
  Result<AmbShardResult>
  ambiguityShard(uint64_t Fingerprint, uint64_t CfgBase,
                 const std::vector<uint64_t> &VisitedKeys,
                 const std::vector<AmbShardConfig> &LevelChunk) override;

  /// Joins in-flight preps (killing them if the request was cancelled),
  /// then drains every live worker's metrics and trace buffers into
  /// \p Metrics (counters under "workerproc." prefixes are added by merge)
  /// and the global TraceRecorder, each worker's events under its own tid
  /// range.
  /// Data recorded by a worker that crashed is lost — the supervision
  /// counters below still account for the crash itself.
  void collect(MetricsRegistry *Metrics);

  /// Supervision accounting, exposed in the coordinator's metrics at
  /// collect() time ("workerproc.shards", ".retries", ".crashes",
  /// ".restarts", ".degraded").
  struct Stats {
    uint64_t ShardsDispatched = 0;
    uint64_t ShardRetries = 0;
    uint64_t WorkerCrashes = 0;
    uint64_t WorkerRestarts = 0;
    uint64_t ShardsDegraded = 0;
  };
  Stats stats() const;

  /// Point-in-time view of one worker slot for statusz: the live pid (-1
  /// before first spawn / after death), whether a shard round-trip is in
  /// flight on it, and how many times supervision respawned it.
  struct SlotState {
    unsigned Index = 0;
    int Pid = -1;
    bool Busy = false;
    bool Dead = false;
    unsigned Restarts = 0;
  };
  std::vector<SlotState> slotStates() const;

private:
  struct Slot;
  explicit WorkerSupervisor(WorkerSupervisorConfig Cfg);

  /// Runs \p Request under supervise(). A failure after the request's
  /// cancellation token has fired is reported as Cancelled (budget
  /// exhausted), whatever supervision saw.
  Result<IpcMessage> dispatch(const IpcMessage &Request);

  /// Runs \p Request on a checked-out worker, with the crash-retry policy
  /// described above. Returns the reply or the degrading Status.
  Result<IpcMessage> supervise(const IpcMessage &Request);

  /// One request/reply exchange on \p S. On failure the slot is killed,
  /// reaped, and marked for respawn.
  Result<IpcMessage> roundTrip(Slot &S, const IpcMessage &Request);

  Status ensureSpawned(Slot &S);
  void killSlot(Slot &S);
  /// Counts a failed round trip as a crash, unless teardown caused it.
  void noteCrash(const Slot &S);
  /// Marks \p S dead once its restart budget is spent; false if dead.
  bool liveLocked(Slot &S);
  /// Whether \p S is in a prep that teardown is abandoning.
  bool abandonedLocked(const Slot &S) const;
  /// Waits for every prep thread; with \p Abandon, first shuts down the
  /// channel of each worker still in prep so its thread kills it.
  void joinPreps(bool Abandon);
  Slot *checkout();
  void checkin(Slot *S);

  WorkerSupervisorConfig Cfg;
  std::string Binary;
  mutable std::mutex Mu;
  std::condition_variable SlotFree;
  std::vector<std::unique_ptr<Slot>> Slots;
  Stats TheStats;
  bool AbandonPreps = false; ///< Set by joinPreps(true) while it joins.
};

/// Resolves the worker binary path per WorkerSupervisorConfig::WorkerBinary;
/// empty result means nothing resolvable was found.
std::string resolveWorkerBinary(const std::string &Explicit);

} // namespace genic

#endif // GENIC_ENGINE_WORKERSUPERVISOR_H
