//===- engine/InversionEngine.cpp -----------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "engine/InversionEngine.h"

#include "engine/WorkerSupervisor.h"
#include "genic/Parser.h"
#include "genic/ProgramPrinter.h"
#include "solver/FaultInjector.h"
#include "solver/SolverSessionPool.h"
#include "support/Trace.h"

#include <cassert>
#include <chrono>
#include <exception>
#include <functional>

using namespace genic;

/// One in-flight run's live state, shared between the running request and
/// concurrent status() readers. Phase is an atomic static-literal pointer;
/// the Workers pointer is guarded by the engine's InFlightMu (status()
/// reads it under the same mutex the unregistration path takes, so it can
/// never observe a destroyed supervisor).
struct InversionEngine::InFlight {
  uint64_t Key = 0;     ///< Table key (unique even for untagged runs).
  uint64_t TraceId = 0; ///< Request epoch (0 for single-run CLI).
  std::chrono::steady_clock::time_point Start;
  std::atomic<const char *> Phase{"setup"};
  bool Warm = false;
  unsigned WorkerProcs = 0;
  WorkerSupervisor *Workers = nullptr;
};

namespace {

/// Registers a run in the engine's in-flight table for its lifetime.
/// Declared after the WorkerSupervisor in runOnSession, so unregistration
/// (which nulls the supervisor pointer under InFlightMu) happens before
/// the supervisor is destroyed.
struct InFlightScope {
  InFlightScope(std::mutex &Mu,
                std::map<uint64_t, std::shared_ptr<InversionEngine::InFlight>>
                    &Table,
                std::shared_ptr<InversionEngine::InFlight> Info)
      : Mu(Mu), Table(Table), Info(std::move(Info)) {
    std::lock_guard<std::mutex> Lock(Mu);
    Table[this->Info->Key] = this->Info;
  }
  ~InFlightScope() {
    std::lock_guard<std::mutex> Lock(Mu);
    Info->Workers = nullptr;
    Table.erase(Info->Key);
  }
  std::mutex &Mu;
  std::map<uint64_t, std::shared_ptr<InversionEngine::InFlight>> &Table;
  std::shared_ptr<InversionEngine::InFlight> Info;
};

/// Runs a callback when its scope ends, on every return path.
template <typename Fn> struct ScopeExit {
  Fn OnExit;
  ~ScopeExit() { OnExit(); }
};

/// Registers the request-level counter families at zero, so every run
/// reports the same metric names whichever sessions did work.
void registerRequestCounters(MetricsRegistry &Registry) {
  for (SolverSessionKind Kind :
       {SolverSessionKind::Shared, SolverSessionKind::Pooled,
        SolverSessionKind::Worker})
    recordSolverStats(Registry, Kind, Solver::Stats());
  for (SolverSessionKind Kind :
       {SolverSessionKind::Shared, SolverSessionKind::Worker})
    recordEngineStats(Registry, Kind, EnumeratorBankStore::Stats(),
                      SearchStats());
  Registry.counter("worker.clone_out_nodes");
  Registry.gauge("sessions.worker");
}

} // namespace

InversionEngine::InversionEngine(EngineConfig Config)
    : Config(std::move(Config)),
      Pool(this->Config.WarmPrograms, this->Config.SolverTimeoutMs) {}

InversionEngine::~InversionEngine() = default;

Result<GenicReport>
InversionEngine::runOnSession(SolverContext &Ctx, const std::string &Source,
                              const RequestContext &Req,
                              ProgramPool::Entry *Warm) {
  TermFactory &Factory = Ctx.factory();
  Solver &Slv = Ctx.solver();

  // Tag every span the run records (including worker-side spans, see
  // ThreadPool::submit) with this request's epoch. 0 leaves spans untagged,
  // preserving the single-run CLI trace format byte-for-byte.
  TraceRequestScope TraceReq(Req.TraceId);

  // The whole-run span: its stopwatch feeds Timings.TotalSeconds, and in a
  // traced run it is the root every phase span nests under.
  TraceSpan RunSpan("genic.run");

  // Metrics sink: the caller's registry, or a run-local throwaway so the
  // pipeline never has to null-check. The engine does not reset it —
  // request lifetime is the caller's policy (GenicTool resets per run(),
  // genicd keeps one registry per request object).
  MetricsRegistry LocalRegistry;
  MetricsRegistry &Registry = Req.Metrics ? *Req.Metrics : LocalRegistry;
  registerRequestCounters(Registry);

  InverterOptions Options = Config.Options;
  if (Req.Jobs)
    Options.Jobs = *Req.Jobs;

  // Install the run-wide control: a fresh deadline token (the budget is
  // per request, not per engine) plus the fault plan and the metrics
  // registry query latencies are observed into. Every session the run
  // creates — pooled checkers, per-rule forks — copies this control.
  SolverControl Ctl;
  if (Req.BudgetSeconds > 0)
    Ctl.Cancel = CancellationToken(Deadline::after(Req.BudgetSeconds));
  Ctl.Faults = Req.Faults;
  Ctl.Metrics = &Registry;
  Ctl.Kind = SolverSessionKind::Shared;
  Slv.setControl(Ctl);

  // Request end, on every return path: the shared session and the pooled
  // checkers drain their counters into the registry (the per-rule sessions
  // drained when their tasks ended), the run totals are summed from the
  // drained families, and the registry, which may be this frame's local
  // one, is detached from the caller's context.
  SolverSessionPool *Checkers = nullptr;
  std::unique_ptr<SolverSessionPool> LocalSessions;
  ScopeExit Finish{[&] {
    Slv.drainStats();
    if (Checkers)
      Checkers->drainStats();
    auto Total = [&Registry](const char *Counter) {
      uint64_t Sum = 0;
      for (const char *Family : {"shared", "checker", "worker"})
        Sum += Registry
                   .counter(std::string("solver.") + Family + "." + Counter)
                   .value();
      return Sum;
    };
    Registry.counter("run.retries_attempted").set(Total("retries"));
    Registry.counter("run.queries_timed_out").set(Total("query_timeouts"));
    Registry.counter("run.queries_cancelled")
        .set(Total("queries_cancelled"));
    Registry.counter("run.injected_faults").set(Total("injected_faults"));
    SolverControl Detached = Slv.control();
    Detached.Metrics = nullptr;
    Slv.setControl(Detached);
  }};

  // Parse and lower, unless a warm pool entry already carries the lowered
  // program for this source (then the run starts straight at the phases,
  // on the factory that already holds the program's hash-consed terms).
  const LoweredProgram *Prog = nullptr;
  std::optional<LoweredProgram> LocalLowered;
  const bool WarmStart = Warm && Warm->Lowered;
  if (WarmStart) {
    Prog = &*Warm->Lowered;
  } else {
    Result<AstProgram> Ast = parseGenic(Source);
    if (!Ast)
      return Ast.status();
    Result<LoweredProgram> Lowered = lowerProgram(Factory, *Ast);
    if (!Lowered)
      return Lowered.status();
    if (Warm) {
      Warm->Lowered = std::move(*Lowered);
      Prog = &*Warm->Lowered;
    } else {
      LocalLowered = std::move(*Lowered);
      Prog = &*LocalLowered;
    }
  }
  const LoweredProgram &P = *Prog;

  GenicReport Report;
  Report.EntryName = P.EntryName;
  Report.NumStates = P.Machine.numStates();
  Report.NumTransitions = P.Machine.transitions().size();
  Report.NumAuxFuncs = P.AuxFuncs.size();
  Report.MaxLookahead = P.Machine.lookahead();
  Report.SourceBytes = Source.size();
  Report.Theory = P.Machine.inputType().str();
  Report.Machine = P.Machine;

  Report.InjectivityRequested = P.WantsInjective || Req.ForceInjectivity;
  Report.InversionRequested = P.WantsInvert || Req.ForceInvert;

  // One pool of warm worker sessions serves the determinism check and
  // every phase of the injectivity check. Sessions fork the shared factory
  // copy-on-write, so the program's terms are readable in every session
  // without cloning (exports stay data-only, see SolverSessionPool.h);
  // they also inherit this request's deadline and fault plan. On a warm
  // entry the pool itself is resident: its sessions keep their memoized
  // importers and checkSat memos across requests and are merely re-armed
  // with this request's control.
  if (Warm) {
    if (!Warm->Checkers)
      Warm->Checkers = std::make_unique<SolverSessionPool>(Factory, Slv);
    else
      Warm->Checkers->rearm(Slv);
  } else {
    LocalSessions = std::make_unique<SolverSessionPool>(Factory, Slv);
  }
  SolverSessionPool &Sessions = Warm ? *Warm->Checkers : *LocalSessions;
  Checkers = &Sessions;

  // Out-of-process shard dispatch, one supervisor (and worker fleet) per
  // request. Workers mirror this request's whole contract — source, solver
  // timeout, budget, fault plan, trace epoch — so a shard scanned in a
  // child process is the same computation as on a coordinator thread. A
  // launch failure (no resolvable worker binary) is a configuration error
  // and fails the run up front, before any phase spends solver time.
  std::unique_ptr<WorkerSupervisor> Workers;
  if (Req.WorkerProcs > 0) {
    WorkerSupervisorConfig WCfg;
    WCfg.Procs = Req.WorkerProcs;
    WCfg.WorkerBinary = Req.WorkerBinary;
    WCfg.Source = Source;
    WCfg.SolverTimeoutMs = Slv.timeoutMs();
    WCfg.BudgetSeconds = Req.BudgetSeconds;
    WCfg.Cancel = Ctl.Cancel;
    WCfg.FaultSpec = describeFaultPlan(Req.Faults);
    WCfg.Trace = TraceRecorder::global().enabled();
    WCfg.TraceReq = Req.TraceId;
    Result<std::unique_ptr<WorkerSupervisor>> W =
        WorkerSupervisor::launch(WCfg);
    if (!W)
      return W.status();
    Workers = std::move(*W);
  }

  // Make this run visible to status() for the rest of the function. The
  // scope is declared after Workers so its destructor runs first: the
  // supervisor pointer is nulled under InFlightMu before the supervisor
  // itself goes away.
  auto Flight = std::make_shared<InFlight>();
  Flight->Key = NextRequestId.fetch_add(1, std::memory_order_relaxed);
  Flight->TraceId = Req.TraceId;
  Flight->Start = std::chrono::steady_clock::now();
  Flight->Warm = WarmStart;
  Flight->WorkerProcs = Req.WorkerProcs;
  Flight->Workers = Workers.get();
  InFlightScope Registered(InFlightMu, InFlightTable, Flight);

  // Classifies a phase failure: budget and solver-error statuses degrade
  // the run (the partial report is still emitted, later phases are
  // skipped); anything else propagates as a plain error like before.
  bool DegradedRun = false;
  auto Degrade = [&Report, &DegradedRun](const Status &St,
                                         GenicReport::PhaseOutcome &Slot,
                                         const char *Phase) -> bool {
    switch (St.code()) {
    case StatusCode::Timeout:
    case StatusCode::Cancelled:
      Slot = GenicReport::PhaseOutcome::Timeout;
      break;
    case StatusCode::SolverError:
      Slot = GenicReport::PhaseOutcome::SolverError;
      break;
    default:
      return false;
    }
    if (!DegradedRun)
      Report.DegradeDetail = std::string(Phase) + ": " + St.message();
    DegradedRun = true;
    return true;
  };

  // The shared-engine inverter outlives its phase so completed enumeration
  // banks can be released back to the warm entry after the run.
  std::unique_ptr<Inverter> Inv;

  // The pipeline as an explicit phase list. Each phase body converts
  // worker exceptions re-raised by ThreadPool::wait (e.g. an injected z3
  // fault in a parallel scan) into a classified status instead of tearing
  // the process down, fills its report slots on success, and returns its
  // failure status otherwise. The loop owns the common policy: phases run
  // when requested and not degraded, time themselves through their trace
  // span, and classify failures through Degrade.
  struct PhaseDef {
    const char *SpanName;    ///< Trace span, "phase.<name>".
    const char *DegradeName; ///< Phase label in DegradeDetail.
    bool Requested;
    GenicReport::PhaseOutcome *Outcome;
    double *Seconds;
    std::function<Status()> Body;
  };

  const PhaseDef Phases[] = {
      // GENIC requires programs to be deterministic (§3.3): the
      // determinism check always runs.
      {"phase.determinism", "determinism check", true,
       &Report.DeterminismPhase, &Report.Timings.DeterminismSeconds,
       [&]() -> Status {
         Result<std::optional<DeterminismViolation>> Det =
             [&]() -> Result<std::optional<DeterminismViolation>> {
           try {
             DeterminismOptions DetOpts;
             DetOpts.Jobs = Options.Jobs;
             DetOpts.Sessions = &Sessions;
             DetOpts.Workers = Workers.get();
             return checkDeterminism(P.Machine, Slv, DetOpts);
           } catch (const std::exception &Ex) {
             return Status::solverError(std::string("worker exception: ") +
                                        Ex.what());
           }
         }();
         if (!Det)
           return Det.status();
         Report.DeterminismPhase = GenicReport::PhaseOutcome::Ok;
         Report.Deterministic = !Det->has_value();
         if (Det->has_value())
           Report.DeterminismDetail =
               "rules " + std::to_string((*Det)->TransitionA) + " and " +
               std::to_string((*Det)->TransitionB) + " overlap on " +
               toString((*Det)->Symbols) + ": " + (*Det)->Reason;
         return Status::ok();
       }},
      {"phase.injectivity", "injectivity check",
       Report.InjectivityRequested, &Report.InjectivityPhase,
       &Report.Timings.InjectivitySeconds,
       [&]() -> Status {
         Result<InjectivityResult> Inj = [&]() -> Result<InjectivityResult> {
           try {
             InjectivityOptions InjOpts;
             InjOpts.Jobs = Options.Jobs;
             InjOpts.Sessions = &Sessions;
             InjOpts.Workers = Workers.get();
             return checkInjectivity(P.Machine, Slv, InjOpts);
           } catch (const std::exception &Ex) {
             return Status::solverError(std::string("worker exception: ") +
                                        Ex.what());
           }
         }();
         if (!Inj)
           return Inj.status();
         Report.InjectivityPhase = GenicReport::PhaseOutcome::Ok;
         Report.Injectivity = *Inj;
         return Status::ok();
       }},
      {"phase.inversion", "inversion", Report.InversionRequested,
       &Report.InversionPhase, &Report.Timings.InversionSeconds,
       [&]() -> Status {
         Inv = std::make_unique<Inverter>(Slv, Options);
         if (Warm) {
           Inv->engine().adoptBanks(std::move(Warm->Banks));
           Inv->adoptRuleSessions(std::move(Warm->RuleSessions));
         }
         Result<InversionOutcome> Out = [&]() -> Result<InversionOutcome> {
           try {
             return Inv->invert(P.Machine, P.AuxFuncs);
           } catch (const std::exception &Ex) {
             return Status::solverError(std::string("worker exception: ") +
                                        Ex.what());
           }
         }();
         // Drained here, before the banks go back to the warm entry.
         Inv->engine().drainStats();
         if (!Out)
           return Out.status();
         Report.InversionPhase = GenicReport::PhaseOutcome::Ok;
         Report.Inversion = *Out;
         Report.InverseMachine = Out->Inverse;
         Report.SygusCalls = Inv->engine().calls();

         // Emit the inverse as GENIC source (Figure 3). The synthesized
         // inverse auxiliary functions print first, making the program read
         // naturally.
         PrintOptions PO;
         for (const std::string &Name : P.StateNames)
           PO.StateNames.push_back(Name + "_inv");
         std::vector<const FuncDef *> Aux = Inv->synthesizedAux();
         Report.InverseSource = printGenicProgram(Out->Inverse, Aux, PO);
         Report.InverseSourceBytes = Report.InverseSource.size();
         return Status::ok();
       }},
  };

  for (const PhaseDef &Phase : Phases) {
    if (!Phase.Requested || DegradedRun)
      continue;
    Flight->Phase.store(Phase.SpanName, std::memory_order_relaxed);
    TraceSpan T(Phase.SpanName);
    Status St = Phase.Body();
    *Phase.Seconds = T.seconds();
    if (!St.isOk()) {
      if (!Degrade(St, *Phase.Outcome, Phase.DegradeName))
        return St;
    }
  }
  Flight->Phase.store("finalize", std::memory_order_relaxed);

  // Drain worker-process metrics and trace buffers into this request's
  // sinks before the supervisor (and with it the fleet) goes away. The
  // phases have joined their dispatch pools, so no shard is in flight.
  if (Workers)
    Workers->collect(&Registry);

  // Hand the shared engine's completed banks and the per-rule worker
  // sessions back to the warm entry so the next request on this program
  // adopts them. A failed inversion leaves the session bank empty, which
  // simply means the next request forks fresh.
  if (Warm && Inv) {
    Warm->Banks = Inv->engine().releaseBanks();
    Warm->RuleSessions = Inv->releaseRuleSessions();
  }

  // Every error path above returns through here with all leases back in
  // the pool: workers hold leases only inside their task bodies, and
  // ThreadPool re-raises after the pool drains.
  assert(Sessions.outstandingLeases() == 0 &&
         "worker session leases must be RAII-returned on every path");

  if (Report.Inversion)
    Report.RulesDegraded = Report.Inversion->degradedRules();
  Report.DeadlineExpired = Ctl.Cancel.active() && Ctl.Cancel.cancelled();
  Report.Timings.DeadlineRemainingSeconds =
      Ctl.Cancel.active() ? Ctl.Cancel.remainingSeconds() : -1;
  Report.Timings.TotalSeconds = RunSpan.seconds();

  Registry.gauge("sessions.checker").set(Sessions.sessions());
  Registry.counter("sygus.calls").set(Report.SygusCalls.size());
  Registry.gauge("run.rules_degraded").set(Report.RulesDegraded);
  Registry.gauge("run.deadline_expired").set(Report.DeadlineExpired ? 1 : 0);
  return Report;
}

EngineStatus InversionEngine::status() const {
  EngineStatus S;
  {
    std::lock_guard<std::mutex> Lock(InFlightMu);
    auto Now = std::chrono::steady_clock::now();
    for (const auto &[Key, F] : InFlightTable) {
      EngineStatus::Request R;
      R.TraceId = F->TraceId;
      R.ElapsedUs = std::chrono::duration_cast<std::chrono::microseconds>(
                        Now - F->Start)
                        .count();
      R.Phase = F->Phase.load(std::memory_order_relaxed);
      R.Warm = F->Warm;
      R.WorkerProcs = F->WorkerProcs;
      if (F->Workers)
        for (const WorkerSupervisor::SlotState &W : F->Workers->slotStates()) {
          EngineStatus::WorkerSlot V;
          V.Index = W.Index;
          V.Pid = W.Pid;
          V.Busy = W.Busy;
          V.Dead = W.Dead;
          V.Restarts = W.Restarts;
          R.Workers.push_back(V);
        }
      S.InFlight.push_back(std::move(R));
    }
  }
  S.Pool = Pool.describe();
  S.PoolStats = Pool.stats();
  S.PoolCapacity = Pool.capacity();
  S.PoolSize = S.Pool.size();
  return S;
}

Result<EngineResponse> InversionEngine::serve(const std::string &Source,
                                              const RequestContext &Req) {
  RequestContext R = Req;
  if (!R.TraceId)
    R.TraceId = NextRequestId.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry LocalRegistry;
  if (!R.Metrics)
    R.Metrics = &LocalRegistry;

  // Install the request epoch before the serve span so the span itself is
  // stamped with it when it records at scope exit.
  TraceRequestScope TraceReq(R.TraceId);
  TraceSpan ServeSpan("engine.serve", "engine");

  ProgramPool::Checkout C = Pool.acquire(Source);
  bool WarmHit = C.Warm;
  EngineRegistry.counter("serve.requests").add(1);
  if (WarmHit)
    EngineRegistry.counter("serve.warm_hits").add(1);

  Result<GenicReport> Rep = runOnSession(C.E->Ctx, Source, R, C.E.get());

  // Engine-lifetime pool accounting, refreshed per request so /metrics is
  // always current.
  // setMax, not set: concurrent requests mirror the same cumulative pool
  // stats, and a stale set() could move a counter backwards between two
  // scrapes.
  ProgramPool::Stats PS = Pool.stats();
  EngineRegistry.counter("serve.pool.hits").setMax(PS.Hits);
  EngineRegistry.counter("serve.pool.misses").setMax(PS.Misses);
  EngineRegistry.counter("serve.pool.busy_misses").setMax(PS.BusyMisses);
  EngineRegistry.counter("serve.pool.evictions").setMax(PS.Evictions);
  EngineRegistry.gauge("serve.pool.programs").set(Pool.size());
  EngineRegistry.histogram("serve.request_us")
      .observe(static_cast<uint64_t>(ServeSpan.seconds() * 1e6));

  if (!Rep) {
    EngineRegistry.counter("serve.errors").add(1);
    return Rep.status();
  }

  // Only successfully lowered programs become resident; this also bumps
  // the entry's LRU position on warm hits.
  Pool.publish(Source, C);
  ++C.E->Runs;

  EngineResponse Resp;
  Resp.Report = std::move(*Rep);
  Resp.Exit = suggestedExitCode(Resp.Report);
  Resp.WarmHit = WarmHit;
  Resp.Metrics = R.Metrics->snapshot();
  Resp.Keep = C.E;
  EngineRegistry
      .counter(std::string("serve.exit.") + std::to_string(Resp.Exit))
      .add(1);
  return Resp;
}

GenicTool::GenicTool(InverterOptions Options)
    : Engine(EngineConfig{Options, std::nullopt, /*WarmPrograms=*/0}) {}

GenicTool::~GenicTool() = default;

Result<GenicReport> GenicTool::run(const std::string &Source,
                                   bool ForceInjectivity, bool ForceInvert) {
  // Reset first so the registry always describes the most recent run — the
  // historical single-run contract (a resident engine instead keeps one
  // registry per request and never resets, see RequestContext::Metrics).
  Registry.reset();
  RequestContext Run = Req;
  Run.ForceInjectivity = ForceInjectivity;
  Run.ForceInvert = ForceInvert;
  Run.Metrics = &Registry;
  return Engine.runOnSession(Ctx, Source, Run);
}
