//===- engine/WorkerSupervisor.cpp ----------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "engine/WorkerSupervisor.h"

#include "ipc/Frame.h"
#include "ipc/WorkerProtocol.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <thread>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace genic;

/// Tid range assigned to worker \p Index's trace events in the merged
/// trace: far above any realistic coordinator thread count, disjoint per
/// worker.
static int workerTidBase(unsigned Index) {
  return 1000 * static_cast<int>(Index + 1);
}

struct WorkerSupervisor::Slot {
  unsigned Index = 0;
  pid_t Pid = -1; ///< Written under Mu (statusz and teardown read it).
  int Fd = -1;    ///< Written under Mu (teardown shuts it down).
  bool Busy = false;
  bool Prepping = false; ///< Busy with a prep round trip, not a shard.
  bool Dead = false;     ///< Restart budget exhausted.
  unsigned Restarts = 0;
  /// The slot's latest prep round trip; joined before the next one and by
  /// joinPreps().
  std::thread Prep;
};

std::string genic::resolveWorkerBinary(const std::string &Explicit) {
  if (!Explicit.empty())
    return Explicit;
  if (const char *Env = std::getenv("GENIC_WORKER"); Env && *Env)
    return Env;
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "";
  Buf[N] = '\0';
  std::string Exe(Buf);
  size_t Slash = Exe.rfind('/');
  std::string Candidate =
      (Slash == std::string::npos ? std::string() : Exe.substr(0, Slash + 1)) +
      "genic-worker";
  return ::access(Candidate.c_str(), X_OK) == 0 ? Candidate : "";
}

WorkerSupervisor::WorkerSupervisor(WorkerSupervisorConfig Cfg)
    : Cfg(std::move(Cfg)) {}

Result<std::unique_ptr<WorkerSupervisor>>
WorkerSupervisor::launch(const WorkerSupervisorConfig &Cfg) {
  if (Cfg.Procs == 0)
    return Status::error("worker supervisor needs at least one process");
  std::string Binary = resolveWorkerBinary(Cfg.WorkerBinary);
  if (Binary.empty())
    return Status::error(
        "cannot resolve the genic-worker binary: pass --worker-binary, set "
        "GENIC_WORKER, or install genic-worker next to this executable");
  std::unique_ptr<WorkerSupervisor> Sup(new WorkerSupervisor(Cfg));
  Sup->Binary = std::move(Binary);
  for (unsigned I = 0; I < Cfg.Procs; ++I) {
    auto S = std::make_unique<Slot>();
    S->Index = I;
    Sup->Slots.push_back(std::move(S));
  }
  return Sup;
}

WorkerSupervisor::~WorkerSupervisor() {
  // Nothing will scan against a product still being built.
  joinPreps(/*Abandon=*/true);
  for (auto &S : Slots) {
    if (S->Fd >= 0) {
      IpcMessage Q;
      Q.setStr("op", workerop::Quit);
      (void)writeFrame(S->Fd, encodeIpcMessage(Q), /*DeadlineMs=*/1000);
      (void)readFrame(S->Fd, /*DeadlineMs=*/1000);
      ::close(S->Fd);
      S->Fd = -1;
    }
    if (S->Pid > 0) {
      // Normally already exiting after quit; the kill is a no-op then and
      // the wait reaps either way.
      ::kill(S->Pid, SIGKILL);
      ::waitpid(S->Pid, nullptr, 0);
      S->Pid = -1;
    }
  }
}

unsigned WorkerSupervisor::procs() const { return Cfg.Procs; }

WorkerSupervisor::Stats WorkerSupervisor::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return TheStats;
}

std::vector<WorkerSupervisor::SlotState> WorkerSupervisor::slotStates() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<SlotState> Out;
  Out.reserve(Slots.size());
  for (const auto &S : Slots) {
    SlotState St;
    St.Index = S->Index;
    St.Pid = S->Pid;
    St.Busy = S->Busy;
    St.Dead = S->Dead;
    St.Restarts = S->Restarts;
    Out.push_back(St);
  }
  return Out;
}

bool WorkerSupervisor::liveLocked(Slot &S) {
  if (S.Restarts > Cfg.MaxRestartsPerSlot)
    S.Dead = true;
  return !S.Dead;
}

bool WorkerSupervisor::abandonedLocked(const Slot &S) const {
  return S.Prepping && AbandonPreps;
}

WorkerSupervisor::Slot *WorkerSupervisor::checkout() {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    bool AnyLive = false;
    for (auto &S : Slots) {
      if (!liveLocked(*S))
        continue;
      AnyLive = true;
      if (!S->Busy) {
        S->Busy = true;
        return S.get();
      }
    }
    if (!AnyLive)
      return nullptr;
    SlotFree.wait(Lock);
  }
}

void WorkerSupervisor::checkin(Slot *S) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    S->Busy = S->Prepping = false;
  }
  SlotFree.notify_one();
}

void WorkerSupervisor::killSlot(Slot &S) {
  int Fd;
  pid_t Pid;
  {
    // Unpublish first, so a teardown racing with this never shuts down a
    // reused descriptor.
    std::lock_guard<std::mutex> Lock(Mu);
    Fd = S.Fd;
    Pid = S.Pid;
    S.Fd = -1;
    S.Pid = -1;
    if (Fd >= 0 || Pid > 0)
      ++S.Restarts;
  }
  if (Fd >= 0)
    ::close(Fd);
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
  }
}

void WorkerSupervisor::noteCrash(const Slot &S) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!abandonedLocked(S))
    ++TheStats.WorkerCrashes;
}

Status WorkerSupervisor::ensureSpawned(Slot &S) {
  if (S.Fd >= 0)
    return Status::ok();

  // Exponential backoff before a respawn (never before the first spawn):
  // 50ms doubling per restart, capped at 1s. Keeps a crash-looping worker
  // from hammering fork/exec while staying far below any shard deadline.
  if (S.Restarts > 0) {
    unsigned Shift = std::min(S.Restarts - 1, 4u);
    int DelayMs = std::min(50 << Shift, 1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    std::lock_guard<std::mutex> Lock(Mu);
    if (abandonedLocked(S))
      return Status::cancelled("prep abandoned before respawn");
    ++TheStats.WorkerRestarts;
  }

  // Both ends are close-on-exec from birth: slots spawn concurrently, and
  // a worker exec'd by another thread must not inherit this channel —
  // a stray copy of the worker's end would hide its death (no EOF) until
  // the shard deadline.
  int Sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Sv) != 0)
    return Status::error(std::string("socketpair failed: ") +
                         std::strerror(errno));
  // Formatted before the fork: the child of a threaded process may only
  // make async-signal-safe calls until exec.
  std::string FdArg = std::to_string(Sv[1]);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Sv[0]);
    ::close(Sv[1]);
    return Status::error(std::string("fork failed: ") + std::strerror(errno));
  }
  if (Pid == 0) {
    // Child: keep only our end of the channel, across the exec, then
    // become genic-worker.
    ::close(Sv[0]);
    ::fcntl(Sv[1], F_SETFD, 0);
    ::execl(Binary.c_str(), "genic-worker", "--fd", FdArg.c_str(),
            static_cast<char *>(nullptr));
    _exit(127);
  }
  ::close(Sv[1]);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    S.Pid = Pid;
    S.Fd = Sv[0];
    // Teardown began between the fork and now: shut the channel down
    // ourselves, so the load below fails at once.
    if (abandonedLocked(S))
      ::shutdown(S.Fd, SHUT_RDWR);
  }

  IpcMessage Load;
  Load.setStr("op", workerop::Load);
  Load.setStr("source", Cfg.Source);
  Load.setStr("fault", Cfg.FaultSpec);
  Load.setU64("solver-timeout-ms", Cfg.SolverTimeoutMs);
  Load.setU64("budget-ms",
              static_cast<uint64_t>(Cfg.BudgetSeconds * 1000.0));
  Load.setU64("trace", Cfg.Trace ? 1 : 0);
  Load.setU64("trace-req", Cfg.TraceReq);
  Load.setU64("trace-epoch-ns",
              static_cast<uint64_t>(TraceRecorder::global().epochNs()));
  Result<IpcMessage> R = roundTrip(S, Load);
  if (!R)
    return R.status();
  Status St = replyStatus(*R);
  if (!St.isOk()) {
    // The worker is alive but refused the program (it parses on its own
    // copy); not a crash, but the slot is useless for this request.
    killSlot(S);
    return St;
  }
  return Status::ok();
}

Result<IpcMessage> WorkerSupervisor::roundTrip(Slot &S,
                                               const IpcMessage &Request) {
  Status W = writeFrame(S.Fd, encodeIpcMessage(Request), Cfg.ShardDeadlineMs);
  if (!W.isOk()) {
    noteCrash(S);
    killSlot(S);
    return W;
  }
  Result<std::string> Payload = readFrame(S.Fd, Cfg.ShardDeadlineMs);
  if (!Payload) {
    // Closed pipe = the worker died (SIGSEGV, SIGKILL, crash@N); deadline
    // = it hung. Either way it is unusable: kill, reap, count the crash.
    noteCrash(S);
    killSlot(S);
    return Payload.status();
  }
  Result<IpcMessage> Reply = decodeIpcMessage(*Payload);
  if (!Reply) {
    noteCrash(S);
    killSlot(S);
    return Reply.status();
  }
  return Reply;
}

Result<IpcMessage> WorkerSupervisor::dispatch(const IpcMessage &Request) {
  Result<IpcMessage> R = supervise(Request);
  // Once the request's deadline has fired, a failed shard was cut short by
  // the budget: the worker's own copy of the deadline cancelled its
  // queries, or teardown killed it mid-shard. Report budget exhaustion,
  // as the in-process scan would, not a solver fault.
  if (!R && !R.status().isBudget() && Cfg.Cancel.cancelled())
    return Status::cancelled(R.status().message());
  return R;
}

Result<IpcMessage> WorkerSupervisor::supervise(const IpcMessage &Request) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++TheStats.ShardsDispatched;
  }
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    Slot *S = checkout();
    if (!S) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++TheStats.ShardsDegraded;
      return Status::solverError(
          "no live worker slots remain (restart budget exhausted)");
    }
    Status Sp = ensureSpawned(*S);
    if (!Sp.isOk()) {
      checkin(S);
      if (Attempt == 0) {
        std::lock_guard<std::mutex> Lock(Mu);
        ++TheStats.ShardRetries;
        continue;
      }
      std::lock_guard<std::mutex> Lock(Mu);
      ++TheStats.ShardsDegraded;
      return Status::solverError("worker unavailable: " + Sp.message());
    }
    Result<IpcMessage> R = roundTrip(*S, Request);
    checkin(S);
    if (R) {
      // A reply-level error (injected throw, refused fingerprint, bad
      // range) is deterministic worker behavior, not a crash: surface it
      // without a retry, exactly like the in-process scan would.
      Status RS = replyStatus(*R);
      if (!RS.isOk())
        return RS;
      return R;
    }
    if (Attempt == 0) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++TheStats.ShardRetries;
      continue;
    }
    std::lock_guard<std::mutex> Lock(Mu);
    ++TheStats.ShardsDegraded;
    return Status::solverError("worker crashed twice on one shard: " +
                               R.status().message());
  }
  unreachable("dispatch loop exits via return");
}

Result<uint64_t> WorkerSupervisor::determinismShard(uint64_t Begin,
                                                    uint64_t End) {
  IpcMessage Req;
  Req.setStr("op", workerop::Det);
  Req.setU64("begin", Begin);
  Req.setU64("end", End);
  Result<IpcMessage> R = dispatch(Req);
  if (!R)
    return R.status();
  return R->getU64("event");
}

Result<uint64_t> WorkerSupervisor::transitionInjectivityShard(uint64_t Begin,
                                                              uint64_t End) {
  IpcMessage Req;
  Req.setStr("op", workerop::Ti);
  Req.setU64("begin", Begin);
  Req.setU64("end", End);
  Result<IpcMessage> R = dispatch(Req);
  if (!R)
    return R.status();
  return R->getU64("event");
}

void WorkerSupervisor::prepareAmbiguity() {
  IpcMessage Req;
  Req.setStr("op", workerop::Prep);
  for (auto &SP : Slots) {
    Slot &S = *SP;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!liveLocked(S) || S.Busy)
        continue;
      S.Busy = S.Prepping = true;
    }
    if (S.Prep.joinable())
      S.Prep.join();
    try {
      S.Prep = std::thread([this, &S, Req] {
        // Failures are dropped: the slot is already reaped, and the next
        // shard on it respawns the worker and owns the retry/degrade policy.
        // An exception (allocation failure) must not escape the thread; it
        // leaves the channel in an unknown state, so the slot is reaped too.
        try {
          if (ensureSpawned(S).isOk())
            (void)roundTrip(S, Req);
        } catch (...) {
          killSlot(S);
        }
        bool Abandoned;
        {
          std::lock_guard<std::mutex> Lock(Mu);
          Abandoned = abandonedLocked(S);
        }
        // A worker that finished just as teardown shut its channel down is
        // unusable; reap it here rather than let collect trip over it.
        if (Abandoned)
          killSlot(S);
        checkin(&S);
      });
    } catch (const std::system_error &) {
      // No thread, no prep: the first shard on this slot builds instead.
      checkin(&S);
    }
  }
}

void WorkerSupervisor::joinPreps(bool Abandon) {
  if (Abandon) {
    // Shutting the channel down wakes the prep thread's blocked read with
    // end-of-file; it then SIGKILLs and reaps the worker itself, so no pid
    // is ever signalled after another thread reaped it.
    std::lock_guard<std::mutex> Lock(Mu);
    AbandonPreps = true;
    for (auto &S : Slots)
      if (S->Prepping && S->Fd >= 0)
        ::shutdown(S->Fd, SHUT_RDWR);
  }
  for (auto &S : Slots)
    if (S->Prep.joinable())
      S->Prep.join();
  std::lock_guard<std::mutex> Lock(Mu);
  AbandonPreps = false;
}

Result<AmbShardResult> WorkerSupervisor::ambiguityShard(
    uint64_t Fingerprint, uint64_t CfgBase,
    const std::vector<uint64_t> &VisitedKeys,
    const std::vector<AmbShardConfig> &LevelChunk) {
  IpcMessage Req;
  Req.setStr("op", workerop::Amb);
  Req.setU64("fp", Fingerprint);
  Req.setU64("cfg-base", CfgBase);
  Req.setU64List("visited", VisitedKeys);
  std::vector<uint64_t> P, Q, D;
  P.reserve(LevelChunk.size());
  Q.reserve(LevelChunk.size());
  D.reserve(LevelChunk.size());
  for (const AmbShardConfig &C : LevelChunk) {
    P.push_back(C.P);
    Q.push_back(C.Q);
    D.push_back(C.D ? 1 : 0);
  }
  Req.setU64List("cfg-p", P);
  Req.setU64List("cfg-q", Q);
  Req.setU64List("cfg-d", D);

  Result<IpcMessage> R = dispatch(Req);
  if (!R)
    return R.status();
  Result<uint64_t> Fin = R->getU64("fin");
  if (!Fin)
    return Fin.status();
  Result<std::vector<uint64_t>> Cfg = R->getU64List("disc-cfg");
  Result<std::vector<uint64_t>> I1 = R->getU64List("disc-i1");
  Result<std::vector<uint64_t>> I2 = R->getU64List("disc-i2");
  Result<std::vector<uint64_t>> Err = R->getU64List("disc-err");
  if (!Cfg || !I1 || !I2 || !Err)
    return Status::error("malformed ambiguity shard reply");
  if (I1->size() != Cfg->size() || I2->size() != Cfg->size() ||
      Err->size() != Cfg->size())
    return Status::error("ambiguity shard reply arrays disagree in length");
  AmbShardResult Out;
  Out.FinEvent = *Fin;
  Out.Discoveries.reserve(Cfg->size());
  for (size_t I = 0; I != Cfg->size(); ++I)
    Out.Discoveries.push_back(
        {(*Cfg)[I], (*I1)[I], (*I2)[I], (*Err)[I] != 0});
  return Out;
}

void WorkerSupervisor::collect(MetricsRegistry *Metrics) {
  // A prep still running is waited for, so its metrics and trace are
  // drained with the rest; a cancelled or over-deadline request kills the
  // worker instead. After that the phases have joined their dispatch pools
  // and every prep is joined, so this thread owns every slot without a
  // checkout.
  joinPreps(/*Abandon=*/Cfg.Cancel.cancelled());
  for (auto &SP : Slots) {
    Slot &S = *SP;
    if (S.Fd < 0)
      continue;
    IpcMessage Req;
    Req.setStr("op", workerop::Collect);
    Result<IpcMessage> R = roundTrip(S, Req);
    if (!R || !replyStatus(*R).isOk())
      continue; // Crashed or refused at collect; its buffers are lost.
    if (Metrics) {
      if (Result<MetricsSnapshot> Snap = decodeMetricsSnapshot(*R))
        Metrics->merge(*Snap);
    }
    if (R->has("trace")) {
      if (Result<std::vector<ExternalTraceEvent>> Events =
              decodeTraceEvents(R->getStr("trace").unwrap()))
        TraceRecorder::global().addExternalEvents(*Events,
                                                  workerTidBase(S.Index));
    }
  }
  if (Metrics) {
    Stats St = stats();
    Metrics->counter("workerproc.shards").set(St.ShardsDispatched);
    Metrics->counter("workerproc.retries").set(St.ShardRetries);
    Metrics->counter("workerproc.crashes").set(St.WorkerCrashes);
    Metrics->counter("workerproc.restarts").set(St.WorkerRestarts);
    Metrics->counter("workerproc.degraded").set(St.ShardsDegraded);
  }
}
