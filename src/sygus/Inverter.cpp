//===- sygus/Inverter.cpp --------------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "sygus/Inverter.h"

#include "solver/SolverContext.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "sygus/AuxInvert.h"
#include "sygus/Mining.h"
#include "term/TermClone.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace genic;

Inverter::Inverter(Solver &S, InverterOptions O)
    : S(S), Opts(O), Engine(S, O.Engine) {}

namespace {

/// One rule's private inversion session. Nothing is cloned in: the fork
/// shares the frozen prefix (components, guards, outputs) by pointer, and
/// only interns the terms the synthesis itself builds. The fork's history
/// is a pure function of the rule, so the synthesized terms — and
/// therefore the merged inverse — do not depend on how tasks interleave.
/// The fork's Z3 context lives only while its task runs: built by the
/// task's first query, released when the task ends.
struct RuleTask {
  std::unique_ptr<SolverContext> Ctx;
  std::unique_ptr<SygusEngine> Engine;
  RuleInversionResult Result;
  /// Variable reduction's usable outputs per input position (empty = no
  /// restriction), computed at the rule's first recovery request or
  /// adopted from a warm session.
  std::optional<Inverter::OutputSubsets> Reduced;
  /// Whether Reduced is final: no position stopped on a budget or solver
  /// failure, so a warm repeat may reuse it instead of re-deriving it.
  bool ReducedSettled = false;
  /// Escalated retries of the child session variable reduction ran in;
  /// counted with the rule's own retries.
  uint64_t ReductionRetries = 0;
};

/// The per-rule recovery synthesizer (§6): variable reduction, grammar
/// mining, CEGIS, then the unrestricted fallback, all in \p Task's session;
/// \p Task and the referenced objects must outlive the returned hook.
/// \p AuxDegraded is the first auxiliary inversion that failed on a budget
/// or backend fault: with a component missing for that reason, a search
/// that comes up empty is no genuine negative, and reports that failure.
RecoverySynthesizer
makeRecoveryHook(RuleTask &Task, unsigned Rule,
                 const std::vector<const FuncDef *> &Components,
                 const std::optional<Status> &AuxDegraded,
                 const InverterOptions &Opts) {
  return [&Task, Rule, &Components, &AuxDegraded, &Opts](
             const ImagePredicate &P, unsigned XIndex,
             Type InputType) -> Result<TermRef> {
    Solver &S = Task.Ctx->solver();
    TermFactory &F = Task.Ctx->factory();
    SygusEngine &Engine = *Task.Engine;
    SynthesisSpec Spec{P, F.mkVar(XIndex, InputType)};

    // Optimization 2a: variable reduction, for all of the rule's inputs at
    // once (every hook call of a rule sees the same predicate).
    std::vector<unsigned> Usable;
    if (Opts.UseMining && P.arity() > 1) {
      if (!Task.Reduced) {
        TraceSpan Span("sygus.varreduce");
        Span.arg("rule", static_cast<int64_t>(Rule));
        Span.arg("positions", static_cast<int64_t>(P.NumInputs));
        OutputReduction R = sufficientOutputSubsets(S, P, InputType);
        Span.arg("queries", static_cast<int64_t>(R.Queries));
        Task.ReductionRetries += R.Retries;
        Task.Reduced.emplace();
        Task.ReducedSettled = true;
        for (const Result<std::vector<unsigned>> &Subset : R.Subsets) {
          Task.Reduced->push_back(Subset ? *Subset : std::vector<unsigned>());
          if (!Subset && Subset.status().code() != StatusCode::Error)
            Task.ReducedSettled = false;
        }
      }
      Usable = (*Task.Reduced)[XIndex];
    }

    // Optimization 2b: operator/constant mining.
    Grammar Mined =
        mineTransitionGrammar(F, P, InputType, Components, Opts.UseMining);
    if (!Usable.empty())
      Mined.UsableVars = Usable;
    Result<TermRef> G = Engine.synthesize(Spec, Mined);
    if (G)
      return G;

    // The reductions are incomplete in principle (§6: "reducing the SyGuS
    // grammar may prevent the existence of inverse functions"); the paper
    // runs the unrestricted search in parallel, we run it as a fallback.
    if (Opts.UseMining) {
      Grammar Full = mineTransitionGrammar(F, P, InputType, Components,
                                           /*MineOps=*/false);
      Result<TermRef> Retry = Engine.synthesize(Spec, Full);
      if (Retry)
        return Retry;
    }
    if (AuxDegraded && G.status().code() == StatusCode::Error)
      return AuxDegraded->withContext(G.status().message() +
                                      ", with an auxiliary inverse missing: ");
    return G;
  };
}

/// One auxiliary function's private inversion session: a copy-on-write fork
/// of the shared factory plus its own engine. Candidates are independent
/// (each branch synthesis mines its grammar from the function alone), so
/// each fork's term history is a pure function of its function and the
/// frozen prefix, and the merged inverses do not depend on scheduling.
struct AuxTask {
  std::unique_ptr<SolverContext> Ctx;
  std::unique_ptr<SygusEngine> Engine;
  const FuncDef *Fn = nullptr;
  std::string InvName;
  Result<const FuncDef *> Inv = Status::error("aux task did not run");
};

} // namespace

Result<InversionOutcome>
Inverter::invert(const Seft &A, const std::vector<const FuncDef *> &AuxFuncs) {
  TermFactory &F = S.factory();
  // Inverses an earlier request on this program synthesized are registered
  // in the shared factory, so the loop below skips them; report them again,
  // first, as that request did.
  SynthesizedAux = std::move(Sessions.Aux);
  MetricsRegistry *Metrics = S.control().Metrics;
  size_t AuxSessions = 0;

  // Optimization 1: invert the auxiliary functions and build the component
  // pool. Non-invertible auxiliaries are skipped silently: they can still
  // appear as forward components. Each candidate runs in its own fork;
  // inverses are cloned back into the shared factory (where the printer
  // needs them) in declaration order, so the result is independent of the
  // jobs value.
  std::vector<const FuncDef *> Components;
  std::optional<Status> AuxDegraded;
  if (Opts.UseAuxInversion) {
    std::vector<AuxTask> AuxTasks;
    for (const FuncDef *Fn : AuxFuncs) {
      if (Fn->arity() != 1 || F.lookupFunc("inv_" + Fn->Name))
        continue;
      AuxTask Task;
      Task.Ctx = std::make_unique<SolverContext>(F, S);
      Task.Engine =
          std::make_unique<SygusEngine>(Task.Ctx->solver(), Opts.Engine);
      Task.Fn = Fn;
      Task.InvName = "inv_" + Fn->Name;
      AuxTasks.push_back(std::move(Task));
    }
    {
      FreezeGuard Quiesce(F);
      ThreadPool Pool(std::min<size_t>(Opts.Jobs, AuxTasks.size()), "aux");
      for (size_t I = 0; I != AuxTasks.size(); ++I) {
        AuxTask *T = &AuxTasks[I];
        Pool.submit([T, I] {
          MetricsPhaseScope WorkerPhase("inversion");
          TraceSpan AuxSpan("invert.aux");
          AuxSpan.arg("index", static_cast<int64_t>(I));
          T->Inv = invertAuxFunction(*T->Engine, T->Fn, T->InvName);
          T->Engine->drainStats();
          T->Ctx->solver().drainStats();
          T->Ctx->solver().releaseBackend();
        });
      }
      Pool.wait();
    }
    TermCloner AuxBack(F);
    for (AuxTask &Task : AuxTasks) {
      if (Task.Inv)
        SynthesizedAux.push_back(AuxBack.cloneFunc(*Task.Inv));
      else if (!AuxDegraded && Task.Inv.status().code() != StatusCode::Error)
        AuxDegraded = Task.Inv.status().withContext(Task.InvName + ": ");
      Engine.appendCalls(Task.Engine->calls());
    }
    AuxSessions = AuxTasks.size();
    if (Metrics)
      Metrics->counter("worker.clone_out_nodes").add(AuxBack.clonedNodes());
    for (const FuncDef *Fn : AuxFuncs) {
      Components.push_back(Fn);
      if (Fn->arity() != 1)
        continue;
      if (const FuncDef *Inv = F.lookupFunc("inv_" + Fn->Name))
        Components.push_back(Inv);
    }
  }

  // Set up one fork per rule, serially and after the aux merge, so every
  // fork sees the same frozen prefix (including the freshly registered
  // inverses). No terms are cloned in. An adopted session bank with one
  // entry per rule short-circuits the setup: each rule gets back its own
  // fork from the previous request on this program, re-armed with this
  // request's robustness control (its counters were drained when its last
  // task ended, so they start this request at zero). Rule inputs (guards, outputs, components) all
  // predate the forks' frozen prefix, so a reused fork serves them
  // identically to a fresh one — just against warm caches.
  const auto &Ts = A.transitions();
  std::vector<RuleTask> Tasks(Ts.size());
  RuleSessionBank Bank = releaseRuleSessions();
  if (Bank.Rules.size() == Ts.size()) {
    for (size_t I = 0; I != Ts.size(); ++I) {
      Tasks[I].Ctx = std::move(Bank.Rules[I].Ctx);
      Tasks[I].Engine = std::move(Bank.Rules[I].Engine);
      Tasks[I].Reduced = std::move(Bank.Rules[I].Reduced);
      Tasks[I].ReducedSettled = Tasks[I].Reduced.has_value();
      Solver &W = Tasks[I].Ctx->solver();
      SolverControl C = S.control();
      C.WorkerSession = true;
      C.Kind = SolverSessionKind::Worker;
      W.setControl(C);
      W.setTimeoutMs(S.timeoutMs());
      Tasks[I].Engine->clearCalls();
    }
  } else {
    for (RuleTask &Task : Tasks) {
      Task.Ctx = std::make_unique<SolverContext>(F, S);
      Task.Engine =
          std::make_unique<SygusEngine>(Task.Ctx->solver(), Opts.Engine);
    }
  }

  // Dead-rule checks, in rule order on the shared session before the fan
  // out: a dead rule needs no fork work (its fork builds no Z3 context),
  // a warm repeat answers from the shared sat memo, and a live rule's fork
  // starts its Z3 history at the synthesis itself. The checks leave the
  // shared session's context as they found it: when no earlier phase
  // built one (an inversion-only request), the context they built is
  // dropped again, as a fork's is, rather than held for the session's
  // life; the memo keeps the verdicts. (Held, the seven inversion-only
  // sessions of perfbench's stream-codec set-up read about 60 MB more
  // peak RSS.)
  std::vector<size_t> LiveRules;
  {
    MetricsPhaseScope Phase("inversion");
    const bool HadBackend = S.hasBackend();
    for (size_t I = 0; I != Ts.size(); ++I) {
      std::optional<RuleInversionResult> Screened =
          screenDeadRule(Ts[I], static_cast<unsigned>(I), S);
      if (Screened)
        Tasks[I].Result = std::move(*Screened);
      else
        LiveRules.push_back(I);
    }
    if (!HadBackend)
      S.releaseBackend();
  }

  // Fan out: rules are independent (Theorem 5.4 inverts them separately).
  const Type InTy = A.inputType(), OutTy = A.outputType();
  {
    FreezeGuard Quiesce(F);
    ThreadPool Pool(std::min<size_t>(Opts.Jobs, LiveRules.size()), "rule");
    for (size_t I : LiveRules) {
      RuleTask *Task = &Tasks[I];
      const SeftTransition *T = &Ts[I];
      const std::vector<const FuncDef *> *Comps = &Components;
      const std::optional<Status> *Degraded = &AuxDegraded;
      const InverterOptions *O = &Opts;
      Pool.submit([Task, T, Comps, Degraded, I, InTy, OutTy, O] {
        MetricsPhaseScope WorkerPhase("inversion");
        TraceSpan RuleSpan("invert.rule");
        RuleSpan.arg("rule", static_cast<int64_t>(I));
        RecoverySynthesizer Hook = makeRecoveryHook(
            *Task, static_cast<unsigned>(I), *Comps, *Degraded, *O);
        Task->Result = invertOneRule(*T, static_cast<unsigned>(I), InTy,
                                     OutTy, Task->Ctx->solver(), Hook);
        Task->Result.Record.Retries +=
            static_cast<unsigned>(Task->ReductionRetries);
        Task->Engine->drainStats();
        Task->Ctx->solver().drainStats();
        Task->Ctx->solver().releaseBackend();
      });
    }
    Pool.wait();
  }

  // Deterministic merge, in rule order: clone results into the shared
  // factory, and append records and call records.
  // Frozen-prefix subterms pass through the cloner as-is; synthesized
  // recoveries only call components, which live in the prefix.
  InversionOutcome Out{
      Seft(A.numStates(), A.initial(), A.outputType(), A.inputType()),
      {}};
  TermCloner Back(F);
  for (RuleTask &Task : Tasks) {
    if (Task.Result.Transition) {
      SeftTransition &W = *Task.Result.Transition;
      SeftTransition Inv;
      Inv.From = W.From;
      Inv.To = W.To;
      Inv.Lookahead = W.Lookahead;
      Inv.Guard = Back.clone(W.Guard);
      Inv.Outputs.reserve(W.Outputs.size());
      for (TermRef G : W.Outputs)
        Inv.Outputs.push_back(Back.clone(G));
      Out.Inverse.addTransition(std::move(Inv));
    }
    Out.Records.push_back(std::move(Task.Result.Record));
    Engine.appendCalls(Task.Engine->calls());
  }
  if (Metrics) {
    Metrics->counter("worker.clone_out_nodes").add(Back.clonedNodes());
    Metrics->gauge("sessions.worker").set(AuxSessions + Tasks.size());
  }

  // Stash the forks for the next request on this program (the engine's
  // warm pool carries them via releaseRuleSessions / adoptRuleSessions).
  Sessions.Rules.clear();
  Sessions.Aux = SynthesizedAux;
  for (RuleTask &Task : Tasks) {
    if (!Task.ReducedSettled)
      Task.Reduced.reset();
    Sessions.Rules.push_back(RuleSessionBank::Entry{
        std::move(Task.Ctx), std::move(Task.Engine), std::move(Task.Reduced)});
  }
  return Out;
}
