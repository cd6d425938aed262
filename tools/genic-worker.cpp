//===- tools/genic-worker.cpp - Out-of-process verification shard host ----===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The child side of the WorkerSupervisor channel: a single-threaded loop
/// reading framed IpcMessages from an inherited socketpair fd, serving the
/// worker-protocol ops (see ipc/WorkerProtocol.h), and writing exactly one
/// reply per request. The process rebuilds the program from the source text
/// the load op carries — hash-consing makes re-parsing and re-lowering
/// yield a structurally identical machine, which is what lets shards speak
/// in plain indices — and runs the exported scan-chunk bodies, so a shard
/// verdict here is byte-identical to the same chunk on a coordinator
/// thread.
///
/// This is the only process that arms Kind::Crash fault plans: a crash@N
/// spec SIGKILLs this process mid-query, exercising the supervisor's
/// crash-detection and retry machinery without any special test hooks.
///
//===----------------------------------------------------------------------===//

#include "automata/Ambiguity.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "ipc/Frame.h"
#include "ipc/Message.h"
#include "ipc/WorkerProtocol.h"
#include "solver/FaultInjector.h"
#include "solver/SolverContext.h"
#include "solver/SolverSessionPool.h"
#include "support/Deadline.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "transducer/Determinism.h"
#include "transducer/Injectivity.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace genic;

namespace {

/// Everything the load op establishes; one worker serves one program.
struct WorkerState {
  std::unique_ptr<SolverContext> Ctx;
  std::optional<LoweredProgram> Prog;
  std::unique_ptr<SolverSessionPool> Pool;
  MetricsRegistry Registry;
  std::unique_ptr<TraceRequestScope> TraceReq;

  // Canonical scan orders, derived lazily on first det/ti shard.
  std::optional<std::vector<std::pair<unsigned, unsigned>>> DetPairs;
  std::optional<std::vector<unsigned>> TiRules;

  // The one product build, run by prep (or, after a respawn, by the first
  // amb shard). A failed build is kept too, so amb after prep answers
  // exactly like amb alone.
  std::optional<Result<std::unique_ptr<AmbiguityShardScanner>>> Scanner;
};

Status handleLoad(WorkerState &St, const IpcMessage &Req) {
  Result<std::string> Source = Req.getStr("source");
  Result<std::string> FaultSpec = Req.getStr("fault");
  Result<uint64_t> TimeoutMs = Req.getU64("solver-timeout-ms");
  Result<uint64_t> BudgetMs = Req.getU64("budget-ms");
  Result<uint64_t> Trace = Req.getU64("trace");
  Result<uint64_t> TraceReq = Req.getU64("trace-req");
  Result<uint64_t> TraceEpoch = Req.getU64("trace-epoch-ns");
  if (!Source || !FaultSpec || !TimeoutMs || !BudgetMs || !Trace ||
      !TraceReq || !TraceEpoch)
    return Status::error("malformed load request");

  FaultPlan Faults;
  if (*FaultSpec != "-" && !FaultSpec->empty()) {
    Result<FaultPlan> Plan = parseFaultPlan(*FaultSpec);
    if (!Plan)
      return Plan.status();
    Faults = *Plan;
  }

  St.Ctx = *TimeoutMs > 0
               ? std::make_unique<SolverContext>(
                     static_cast<unsigned>(*TimeoutMs))
               : std::make_unique<SolverContext>();
  Solver &Slv = St.Ctx->solver();

  // Mirror the coordinator's run-wide control. Every session in this
  // process is a worker session by definition — plans scoped :workers fire
  // here (including on what the coordinator calls the shared session) and
  // :shared plans never do; the scope names the process role, not the
  // session object. The deadline starts at load time, which trails the
  // coordinator's by the spawn latency; a shard that outlives the skew is
  // re-checked or degraded by the coordinator either way.
  SolverControl Ctl;
  if (*BudgetMs > 0)
    Ctl.Cancel = CancellationToken(
        Deadline::after(static_cast<double>(*BudgetMs) / 1000.0));
  Ctl.Faults = Faults;
  Ctl.Metrics = &St.Registry;
  Ctl.WorkerSession = true;
  Ctl.Kind = SolverSessionKind::Worker;
  Slv.setControl(Ctl);

  Result<AstProgram> Ast = parseGenic(*Source);
  if (!Ast)
    return Ast.status();
  Result<LoweredProgram> Lowered = lowerProgram(St.Ctx->factory(), *Ast);
  if (!Lowered)
    return Lowered.status();
  St.Prog = std::move(*Lowered);

  St.Pool = std::make_unique<SolverSessionPool>(St.Ctx->factory(), Slv);

  if (*Trace != 0) {
    // Record on the coordinator's timeline, so the merged trace shows
    // worker spans where they really ran relative to its own.
    TraceRecorder::global().enableAt(static_cast<int64_t>(*TraceEpoch));
    TraceRecorder::global().nameThisThread("genic-worker");
    St.TraceReq = std::make_unique<TraceRequestScope>(*TraceReq);
  }
  return Status::ok();
}

Result<IpcMessage> handleDet(WorkerState &St, const IpcMessage &Req) {
  if (!St.Prog)
    return Status::error("det shard before load");
  Result<uint64_t> Begin = Req.getU64("begin");
  Result<uint64_t> End = Req.getU64("end");
  if (!Begin || !End)
    return Status::error("malformed det request");
  if (!St.DetPairs)
    St.DetPairs = determinismPairList(St.Prog->Machine);
  if (*Begin > *End || *End > St.DetPairs->size())
    return Status::error("det shard range outside the pair list");
  IpcMessage Reply;
  Reply.setU64("event", scanDeterminismShard(St.Prog->Machine, *St.DetPairs,
                                             *St.Pool, *Begin, *End));
  return Reply;
}

Result<IpcMessage> handleTi(WorkerState &St, const IpcMessage &Req) {
  if (!St.Prog)
    return Status::error("ti shard before load");
  Result<uint64_t> Begin = Req.getU64("begin");
  Result<uint64_t> End = Req.getU64("end");
  if (!Begin || !End)
    return Status::error("malformed ti request");
  if (!St.TiRules)
    St.TiRules = transitionInjectivityRules(St.Prog->Machine);
  if (*Begin > *End || *End > St.TiRules->size())
    return Status::error("ti shard range outside the rule list");
  IpcMessage Reply;
  Reply.setU64("event",
               scanTransitionInjectivityShard(St.Prog->Machine, *St.TiRules,
                                              *St.Pool, *Begin, *End));
  return Reply;
}

/// Builds the output automaton and its product once per worker: the body
/// of prep, and amb's no-op fallback. Exceptions (injected throw faults)
/// are memoized as the error reply they would have produced.
Result<AmbiguityShardScanner *> ensureScanner(WorkerState &St) {
  auto &Built = St.Scanner;
  if (!Built) {
    Solver &Slv = St.Ctx->solver();
    try {
      Result<CartesianSefa> AO = buildOutputAutomaton(St.Prog->Machine, Slv);
      Built = AO ? AmbiguityShardScanner::create(*AO, Slv)
                 : Result<std::unique_ptr<AmbiguityShardScanner>>(
                       AO.status());
    } catch (const std::exception &Ex) {
      Built = Status::solverError(std::string("worker exception: ") +
                                  Ex.what());
    }
  }
  if (!*Built)
    return Built->status();
  return Built->value().get();
}

Result<IpcMessage> handlePrep(WorkerState &St) {
  if (!St.Prog)
    return Status::error("prep before load");
  Result<AmbiguityShardScanner *> Scanner = ensureScanner(St);
  if (!Scanner)
    return Scanner.status();
  return IpcMessage();
}

Result<IpcMessage> handleAmb(WorkerState &St, const IpcMessage &Req) {
  if (!St.Prog)
    return Status::error("amb shard before load");
  Result<uint64_t> Fp = Req.getU64("fp");
  Result<uint64_t> CfgBase = Req.getU64("cfg-base");
  Result<std::vector<uint64_t>> Visited = Req.getU64List("visited");
  Result<std::vector<uint64_t>> P = Req.getU64List("cfg-p");
  Result<std::vector<uint64_t>> Q = Req.getU64List("cfg-q");
  Result<std::vector<uint64_t>> D = Req.getU64List("cfg-d");
  if (!Fp || !CfgBase || !Visited || !P || !Q || !D)
    return Status::error("malformed amb request");
  if (P->size() != Q->size() || P->size() != D->size())
    return Status::error("amb config arrays disagree in length");

  Result<AmbiguityShardScanner *> Scanner = ensureScanner(St);
  if (!Scanner)
    return Scanner.status();
  if ((*Scanner)->fingerprint() != *Fp)
    return Status::error(
        "product fingerprint mismatch: the worker derived a different "
        "expanded product than the coordinator");

  std::vector<AmbShardConfig> Chunk(P->size());
  for (size_t I = 0; I != P->size(); ++I)
    Chunk[I] = {(*P)[I], (*Q)[I], (*D)[I] != 0};
  Result<AmbShardResult> R =
      (*Scanner)->scan(*St.Pool, *Visited, *CfgBase, Chunk);
  if (!R)
    return R.status();

  IpcMessage Reply;
  Reply.setU64("fin", R->FinEvent);
  std::vector<uint64_t> Cfg, I1, I2, Err;
  Cfg.reserve(R->Discoveries.size());
  I1.reserve(R->Discoveries.size());
  I2.reserve(R->Discoveries.size());
  Err.reserve(R->Discoveries.size());
  for (const AmbShardDiscovery &Disc : R->Discoveries) {
    Cfg.push_back(Disc.Cfg);
    I1.push_back(Disc.I1);
    I2.push_back(Disc.I2);
    Err.push_back(Disc.IsError ? 1 : 0);
  }
  Reply.setU64List("disc-cfg", Cfg);
  Reply.setU64List("disc-i1", I1);
  Reply.setU64List("disc-i2", I2);
  Reply.setU64List("disc-err", Err);
  return Reply;
}

IpcMessage handleCollect(WorkerState &St) {
  IpcMessage Reply;
  // The coordinator merges this snapshot into its registry, where a gauge
  // takes the last value written. The live-context peak describes one
  // process, so it stays out; the contexts-created counter adds up.
  MetricsSnapshot Snap = St.Registry.snapshot();
  Snap.Gauges.erase("solver.backend.peak_live");
  encodeMetricsSnapshot(Snap, Reply);
  TraceRecorder &R = TraceRecorder::global();
  if (R.enabled()) {
    Reply.setStr("trace", encodeTraceEvents(R.exportEvents()));
    Reply.setU64("trace-dropped", R.droppedEvents());
  }
  return Reply;
}

/// Dispatches one request; every path yields exactly one reply message.
IpcMessage serveRequest(WorkerState &St, const IpcMessage &Req, bool &Quit) {
  Result<std::string> Op = Req.getStr("op");
  if (!Op)
    return makeErrorReply(Op.status());
  try {
    if (*Op == workerop::Ping)
      return IpcMessage();
    if (*Op == workerop::Quit) {
      Quit = true;
      return IpcMessage();
    }
    if (*Op == workerop::Load) {
      Status S = handleLoad(St, Req);
      return S.isOk() ? IpcMessage() : makeErrorReply(S);
    }
    if (*Op == workerop::Collect)
      return handleCollect(St);
    Result<IpcMessage> R = *Op == workerop::Det    ? handleDet(St, Req)
                           : *Op == workerop::Ti   ? handleTi(St, Req)
                           : *Op == workerop::Prep ? handlePrep(St)
                           : *Op == workerop::Amb  ? handleAmb(St, Req)
                                                   : Result<IpcMessage>(
                                                         Status::error(
                                                             "unknown op: " +
                                                             *Op));
    return R ? *R : makeErrorReply(R.status());
  } catch (const std::exception &Ex) {
    // Injected throw faults (and any backend exception) become an error
    // reply — the supervisor maps it to SolverError without a retry,
    // matching what the in-process scan's catch block reports.
    return makeErrorReply(
        Status::solverError(std::string("worker exception: ") + Ex.what()));
  }
}

} // namespace

int main(int argc, char **argv) {
  int Fd = -1;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--fd") == 0 && I + 1 < argc)
      Fd = std::atoi(argv[++I]);
  }
  if (Fd < 0) {
    std::fprintf(stderr,
                 "genic-worker: internal helper of genic --worker-procs; "
                 "expects --fd <socket>\n");
    return 2;
  }

  // The one process where a crash@N plan really kills: see FaultInjector.h.
  setCrashFaultsEnabled(true);

  WorkerState St;
  bool Quit = false;
  while (!Quit) {
    Result<std::string> Payload = readFrame(Fd);
    if (!Payload)
      return isPeerClosed(Payload.status()) ? 0 : 1;
    Result<IpcMessage> Req = decodeIpcMessage(*Payload);
    IpcMessage Reply =
        Req ? serveRequest(St, *Req, Quit) : makeErrorReply(Req.status());
    if (!writeFrame(Fd, encodeIpcMessage(Reply)).isOk())
      return 1;
  }
  return 0;
}
