//===- solver/Solver.h - Decision procedures over the alphabet theory -----===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision-procedure layer: satisfiability, validity, models,
/// equivalence-modulo-guard, quantifier elimination, and the unary
/// projection of image predicates (§4.3) that the output automaton of
/// Definition 4.12 is built from.
///
/// The implementation delegates base SMT queries to Z3 — the same solver the
/// original GENIC used — through a pimpl so that Z3 types never appear in
/// public headers. All terms passed in must be quantifier-free; auxiliary
/// function calls are inlined on translation. Callers must conjoin domain
/// predicates of partial auxiliary functions themselves where partiality
/// matters (see TermFactory::calleeDomains).
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SOLVER_SOLVER_H
#define GENIC_SOLVER_SOLVER_H

#include "solver/FaultInjector.h"
#include "solver/ImagePredicate.h"
#include "support/Deadline.h"
#include "support/Result.h"
#include "term/TermFactory.h"

#include <memory>
#include <optional>
#include <vector>

namespace genic {

class MetricsRegistry;

/// Outcome of a satisfiability query.
enum class SatResult { Sat, Unsat, Unknown };

/// How a session relates to the pipeline's session architecture; used to
/// tag the solver-query latency histograms
/// ("solver.query.us.<phase>.<kind>").
enum class SolverSessionKind { Shared, Pooled, Worker };

/// Histogram-tag spelling of \p Kind ("shared" / "pooled" / "worker").
const char *toString(SolverSessionKind Kind);

/// The counter family a session of \p Kind drains into ("shared" /
/// "checker" / "worker"): solver counters go to "solver.<family>.*",
/// concrete-evaluation and bank counters to "eval.<family>.evals" and
/// "bank.<family>.*".
const char *counterFamily(SolverSessionKind Kind);

/// The robustness contract a session operates under. Propagated by value
/// when sessions fork (SolverContext copy/fork ctors, SolverSessionPool), so
/// every worker session observes the same cancellation token and fault plan
/// as the session it was derived from.
struct SolverControl {
  /// Global-budget token: once cancelled, every query is refused up front
  /// (reported as Unknown with a Cancelled cause) without touching Z3.
  CancellationToken Cancel;
  /// Deterministic synthetic-fault schedule for tests; empty in production.
  FaultPlan Faults;
  /// Whether this session is a pooled/forked worker (drives FaultPlan
  /// scoping). Set automatically by the fork/pool plumbing.
  bool WorkerSession = false;
  /// When set, every query's wall-clock latency is observed into the
  /// registry's "solver.query.us.<phase>.<kind>" histogram at the single
  /// check() chokepoint, and every Z3 context the session creates is
  /// counted ("solver.backend.contexts", with the process-wide live count
  /// as the "solver.backend.peak_live" high-water mark). Shared across
  /// sessions; the registry is thread-safe. Null disables recording
  /// entirely.
  MetricsRegistry *Metrics = nullptr;
  /// The session-kind tag for this session's queries. The pool and fork
  /// plumbing overwrite it (Pooled / Worker) where they set WorkerSession.
  SolverSessionKind Kind = SolverSessionKind::Shared;
};

/// A session with the underlying SMT solver. Not thread-safe.
class Solver {
public:
  /// Creates a solver whose answers are terms built in \p Factory.
  explicit Solver(TermFactory &Factory);
  ~Solver();
  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  /// Per-query timeout; 0 disables. Defaults to 20 seconds. The effective
  /// soft timeout handed to Z3 is additionally clamped to the remaining
  /// global budget of the control token's deadline.
  void setTimeoutMs(unsigned Milliseconds);
  unsigned timeoutMs() const;

  /// Installs the robustness contract (cancellation, fault plan, metrics)
  /// this session runs under. Defaults to an inert control: no deadline,
  /// no faults. A timed-out query is always retried once at twice the
  /// soft timeout.
  void setControl(const SolverControl &Control);
  const SolverControl &control() const;

  /// The cancellation token of the installed control. Pipeline loops poll
  /// this between work items for prompt, clean exits (queries themselves
  /// are refused once the token is cancelled regardless).
  const CancellationToken &cancellation() const;

  /// Caps the solver memo tables (checkSat default 1M entries; the model
  /// and projection memos follow at min(cap, 64K) since their values are
  /// heavier). When an insertion would exceed a cap the whole table is
  /// dropped — a generation clear, chosen over LRU because the memo keys
  /// are hash-consed pointers and the hit distribution is bursty (a phase
  /// re-queries the same guards, then moves on) — and the per-kind
  /// Stats::*Evictions counter grows by the number of dropped entries.
  /// 0 disables memoization entirely.
  void setSatCacheCapacity(size_t MaxEntries);
  size_t satCacheCapacity() const;

  /// The Z3 context is created by the session's first query that needs
  /// one. releaseBackend() drops it, with the live incremental session,
  /// once a task's solver work is done; the memos, the scoped assertion
  /// stack, the control and Stats stay, and a later query simply builds a
  /// fresh context. Parallel stages call it at the end of each task, so
  /// memory is bounded by the tasks running, not by the tasks created.
  void releaseBackend();

  /// Whether the session holds a Z3 context now.
  bool hasBackend() const;

  /// Z3 contexts alive in this process, across all sessions.
  static int64_t liveBackendContexts();

  // Base queries ------------------------------------------------------------

  /// Satisfiability of \p Formula with its free variables existential.
  /// Sat/Unsat answers are memoized per hash-consed formula pointer (see
  /// Stats::CacheHits); isValid and equivalentUnder share the memo because
  /// they reduce to checkSat of a negation.
  ///
  /// Verdict-only queries (these four and checkSatBatch) are decided on a
  /// fresh solver over Z3's plain SMT core, which skips the default
  /// solver's per-solver set-up (probes, tactic pipeline), by far the
  /// larger cost of a small check. When the plain core answers Unknown,
  /// the one escalated retry runs on a fresh default solver, so no verdict
  /// is weaker than the default solver's (Stats::PlainFallbacks).
  SatResult checkSat(TermRef Formula);

  /// IsSat(phi) of §3.1; Unknown becomes an error (classified as Timeout /
  /// Cancelled / SolverError via unknownStatus).
  Result<bool> isSat(TermRef Formula);

  /// IsValid(phi) of §3.1; Unknown becomes an error.
  Result<bool> isValid(TermRef Formula);

  /// Classifies the most recent Unknown answer into a Status whose code
  /// distinguishes a query timeout from deadline cancellation from a
  /// backend exception. \p What prefixes the message. Only meaningful
  /// immediately after a checkSat that returned Unknown.
  Status unknownStatus(const std::string &What) const;

  /// A model of \p Formula for Var(0..NumVars-1). Variables that do not
  /// occur in the formula get an arbitrary value of their type in
  /// \p VarTypes. Errors if unsatisfiable or unknown.
  Result<std::vector<Value>> getModel(TermRef Formula,
                                      const std::vector<Type> &VarTypes);

  /// f ==_guard g (§3.3): valid(guard -> f = g). \p F and \p G must have the
  /// same non-boolean type.
  Result<bool> equivalentUnder(TermRef Guard, TermRef F, TermRef G);

  // Incremental sessions ------------------------------------------------------
  //
  // A scoped assertion stack lives alongside the one-shot entry points
  // above and is mirrored into a persistent backend solver, so consecutive
  // scoped checks pay only for their delta. checkSatAssuming and
  // modelAssuming consult it. checkSat and getModel stay stack-independent:
  // each runs on a fresh backend solver (the plain core for a verdict, the
  // default solver for a model), so its answer depends only on the
  // formula, which is what keeps their memo tables sound. A model from
  // modelAssuming also depends on the session's history, so it is
  // reproducible only where that history is (a rule fork's is a function
  // of its rule); CEGIS counterexamples and guard samples come from it,
  // and the printed inverses are held correct by bounded composition
  // rather than by Z3 history.

  /// Opens a new assertion scope.
  void push();

  /// Closes the innermost scope, retracting its assertions. Popping with
  /// no open scope is a no-op.
  void pop();

  /// Number of open scopes (0 = base frame only).
  unsigned scopeDepth() const;

  /// Asserts \p Formula in the innermost scope; retracted by the matching
  /// pop. Asserting in the base frame persists for the session's lifetime.
  void assertFormula(TermRef Formula);

  /// Satisfiability of (asserted stack) /\ \p Formula /\ /\ Assumptions.
  /// \p Formula may be null ("stack plus assumptions alone"); it is checked
  /// under an ephemeral scope, so nothing leaks into the session. Deadlines,
  /// fault injection, retry-on-Unknown, and latency metrics all flow
  /// through the same chokepoint as one-shot queries.
  SatResult checkSatAssuming(const std::vector<TermRef> &Assumptions,
                             TermRef Formula = nullptr);

  /// A model of (asserted stack) /\ /\ Assumptions for Var(0..n-1), taken
  /// from the live incremental session, so one query both decides and
  /// witnesses. Variables that do not occur get an arbitrary value of
  /// their type in \p VarTypes. Three outcomes: the model; std::nullopt
  /// when unsatisfiable; or the Unknown classified as by unknownStatus.
  /// The query goes through the same chokepoint as every other (deadline,
  /// faults, retry, latency metrics); nothing is memoized.
  Result<std::optional<std::vector<Value>>>
  modelAssuming(const std::vector<TermRef> &Assumptions,
                const std::vector<Type> &VarTypes);

  /// Coalesced satisfiability for independent formulas: the k formulas are
  /// variable-disjointly renamed, asserted under selector literals in one
  /// backend solver, and decided with at most a handful of
  /// check-sat-assuming rounds (a sat answer settles every pending member
  /// at once; an unsat core narrows the suspects). The batch solver is a
  /// fresh plain-core one, escalated to a default solver as checkSat's is.
  /// A single pending member
  /// goes straight to checkSat, as does every member the batch cannot
  /// settle (Unknown), so a verdict is never weaker than k checkSat calls.
  /// Sat/Unsat answers land in the same global memo. Independent of the
  /// scoped assertion stack.
  std::vector<SatResult> checkSatBatch(const std::vector<TermRef> &Formulas);

  // Quantifier elimination ----------------------------------------------------

  /// Computes a quantifier-free term equivalent to
  ///   exists Var(0)..Var(NumEliminate-1) . Phi
  /// over the remaining variables, re-indexed downward by \p NumEliminate.
  /// Tries Z3's qe tactic cascade; fails if elimination or back-translation
  /// is impossible.
  Result<TermRef> eliminateExists(TermRef Phi, unsigned NumEliminate);

  // Image predicates (Definition 4.9, §4.3) -------------------------------------

  /// The unary projection psi_I(y) = exists x. Guard /\ y = Outputs[I](x),
  /// as a quantifier-free term over Var(0), when it has one this function
  /// computes exactly: bit-vector images by model enumeration, other types
  /// by the QE cascade. A bit-vector image of 600 values or more (above 9
  /// bits) has no closed form here, and the answer is an empty optional;
  /// callers that can work with the existential predicate itself (the
  /// Lemma 4.14 product, see buildOutputAutomaton) use it instead.
  ///
  /// A bit-vector image is enumerated mostly without the solver: the
  /// first value is a solver model, concrete evaluation of the predicate
  /// around that model's input seeds more, and a blocking loop finds the
  /// rest until Unsat or the cap. The result is a function of the image
  /// alone: the exact set when it is under the cap, else no closed form.
  /// Finite-domain image queries run on Z3's QF_FD solver. Every
  /// projection still sends at least one query, so deadlines and fault
  /// plans reach it, and they fail the call as any other query does.
  Result<std::optional<TermRef>> project(const ImagePredicate &P,
                                         unsigned I);

  /// The projection memo's answer for (\p P, \p I), or null; counted as a
  /// projection-cache hit or miss. Parallel callers look here before they
  /// fork a session to compute one.
  const std::optional<TermRef> *cachedProjection(const ImagePredicate &P,
                                                 unsigned I);

  /// Records \p Psi as the projection of \p P at \p I: an answer computed
  /// in a fork and cloned into this session's factory. project() and
  /// cachedProjection() then answer it, as if this session had computed it.
  void recordProjection(const ImagePredicate &P, unsigned I,
                        std::optional<TermRef> Psi);

  // Introspection -------------------------------------------------------------

  struct Stats {
    uint64_t SatQueries = 0;
    uint64_t QeCalls = 0;
    uint64_t QeFallbacks = 0;
    /// checkSat calls answered from the pointer-keyed memo table.
    uint64_t CacheHits = 0;
    /// checkSat calls that reached the SMT backend (Unknown answers are
    /// not cached, so they count as misses on every retry).
    uint64_t CacheMisses = 0;
    /// Memoized answers dropped by generation clears of the checkSat memo
    /// (see setSatCacheCapacity).
    uint64_t CacheEvictions = 0;
    /// getModel answers served from / missed by / evicted from the model
    /// memo, keyed by (formula, requested variable types). Only successful
    /// models are cached; unsat/unknown outcomes retry the backend.
    uint64_t ModelCacheHits = 0;
    uint64_t ModelCacheMisses = 0;
    uint64_t ModelCacheEvictions = 0;
    /// project() answers served from / missed by / evicted from the
    /// projection memo, keyed by (guard, outputs, position).
    uint64_t ProjCacheHits = 0;
    uint64_t ProjCacheMisses = 0;
    uint64_t ProjCacheEvictions = 0;
    /// Escalated re-checks issued by the retry-on-Unknown policy.
    uint64_t Retries = 0;
    /// Queries still Unknown (timed out) after the retry policy ran.
    uint64_t QueryTimeouts = 0;
    /// Queries refused up front because the cancellation token fired.
    uint64_t QueriesCancelled = 0;
    /// Synthetic faults fired by the installed FaultPlan.
    uint64_t InjectedFaults = 0;
    /// Scope lifecycle: explicit push() / pop() calls on this session.
    uint64_t ScopePushes = 0;
    uint64_t ScopePops = 0;
    /// Coalesced batches dispatched by checkSatBatch (each covers >= 2
    /// formulas that missed the memo).
    uint64_t AssumptionBatches = 0;
    /// Assumption literals sent across scoped and batched checks.
    uint64_t AssumptionLiterals = 0;
    /// Scoped queries answered on an already-live backend session (the
    /// incremental win: only the delta was sent).
    uint64_t IncrementalHits = 0;
    /// Backend sessions (re)built from the term-level stack: the first
    /// scoped query, plus every rebuild after a backend exception dropped
    /// the live session.
    uint64_t FullRestarts = 0;
    /// Bit-vector image values that enumeration found by concrete
    /// evaluation, and those it took from solver models (see project()).
    uint64_t ImageValuesEvaluated = 0;
    uint64_t ImageValuesSolved = 0;
    /// Inputs the concrete image walk evaluated, whole lane batches
    /// included.
    uint64_t ImageInputsEvaluated = 0;
    /// Verdict-only queries the plain SMT core left Unknown, whose one
    /// escalated retry ran on a default solver instead (each also counts
    /// in Retries).
    uint64_t PlainFallbacks = 0;
  };
  const Stats &stats() const;

  /// Adds stats() to the registry of the installed control (see
  /// recordSolverStats), then zeroes them. A session drains when its work
  /// for a request ends, so the request's registry is the one place its
  /// totals are summed, and a session the next request reuses starts that
  /// request at zero. Without a registry the counters are only zeroed.
  void drainStats();

  TermFactory &factory();

private:
  class Impl;
  std::unique_ptr<Impl> TheImpl;
};

/// Adds \p S to \p Registry's "solver.<family>.*" counters, the family
/// given by \p Kind, and a nonzero ImageInputsEvaluated to
/// "eval.<family>.evals". A zero \p S registers the family at zero.
void recordSolverStats(MetricsRegistry &Registry, SolverSessionKind Kind,
                       const Solver::Stats &S);

/// RAII wrapper for one solver scope: push on construction, pop on
/// destruction — including unwind paths, so a cancelled or faulted loop
/// never leaks its assertions into a reused session. add() asserts into
/// the scope it opened.
class ScopedAssertions {
public:
  explicit ScopedAssertions(Solver &S) : S(S) { S.push(); }
  ~ScopedAssertions() { S.pop(); }
  ScopedAssertions(const ScopedAssertions &) = delete;
  ScopedAssertions &operator=(const ScopedAssertions &) = delete;

  void add(TermRef Formula) { S.assertFormula(Formula); }

private:
  Solver &S;
};

} // namespace genic

#endif // GENIC_SOLVER_SOLVER_H
