//===- solver/Solver.h - Decision procedures over the alphabet theory -----===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision-procedure layer: satisfiability, validity, models,
/// equivalence-modulo-guard, quantifier elimination, and the image-predicate
/// operations (projection, Cartesian check) of §4.3 and §5-6.
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
/// compiled-eval and bank counters to "eval.<family>.*" and
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
  /// Escalating retry policy: a query that comes back Unknown from a
  /// timeout is retried once with a larger soft timeout (still clamped to
  /// the remaining global budget) before the Unknown is surfaced.
  bool RetryUnknown = true;
  /// Multiplier applied to the soft timeout on the retry.
  unsigned RetryTimeoutFactor = 2;
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

  /// Installs the robustness contract (cancellation, fault plan, retry
  /// policy) this session runs under. Defaults to an inert control: no
  /// deadline, no faults, retry enabled.
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

  /// Z3 contexts alive in this process, across all sessions.
  static int64_t liveBackendContexts();

  // Base queries ------------------------------------------------------------

  /// Satisfiability of \p Formula with its free variables existential.
  /// Sat/Unsat answers are memoized per hash-consed formula pointer (see
  /// Stats::CacheHits); isValid and equivalentUnder share the memo because
  /// they reduce to checkSat of a negation.
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
  // scoped checks pay only for their delta. Only checkSatAssuming consults
  // it. checkSat and getModel stay stack-independent: each runs on a fresh
  // backend solver, so its answer depends only on the formula, which is
  // what keeps their memo tables sound and the printed inverses fixed.

  /// Opens a new assertion scope.
  void push();

  /// Closes the innermost scope, retracting its assertions (and
  /// invalidating their scoped-memo answers via the generation bump).
  /// Popping with no open scope is a no-op.
  void pop();

  /// Number of open scopes (0 = base frame only).
  unsigned scopeDepth() const;

  /// Monotone counter bumped by every push/pop/assertFormula. Scoped memo
  /// answers are keyed by (generation, formula, assumptions), so a pop
  /// invalidates them without clearing the global memo.
  uint64_t scopeGeneration() const;

  /// Asserts \p Formula in the innermost scope; retracted by the matching
  /// pop. Asserting in the base frame persists for the session's lifetime.
  void assertFormula(TermRef Formula);

  /// Satisfiability of (asserted stack) /\ \p Formula /\ /\ Assumptions.
  /// \p Formula may be null ("stack plus assumptions alone"); it is checked
  /// under an ephemeral scope, so nothing leaks into the session. Sat/Unsat
  /// answers are memoized per scope generation. Deadlines, fault injection,
  /// retry-on-Unknown, and latency metrics all flow through the same
  /// chokepoint as one-shot queries.
  SatResult checkSatAssuming(const std::vector<TermRef> &Assumptions,
                             TermRef Formula = nullptr);

  /// Coalesced satisfiability for independent formulas: the k formulas are
  /// variable-disjointly renamed, asserted under selector literals in one
  /// backend solver, and decided with at most a handful of
  /// check-sat-assuming rounds (a sat answer settles every pending member
  /// at once; an unsat core narrows the suspects). A single pending member
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
  /// is impossible (callers then use the image-predicate fallbacks).
  Result<TermRef> eliminateExists(TermRef Phi, unsigned NumEliminate);

  // Image predicates (Definition 4.9, §4.3) -------------------------------------

  /// Whether some input produces an output: sat(Guard).
  Result<bool> imageIsSat(const ImagePredicate &P);

  /// A concrete output tuple in the image.
  Result<std::vector<Value>> imageModel(const ImagePredicate &P);

  /// The unary projection psi_I(y) = exists x. Guard /\ y = Outputs[I](x),
  /// as a quantifier-free term over Var(0). Strategy chain: exact model
  /// enumeration (capped for wide bit-vectors), the QE cascade, then either
  /// exact interval learning or — when \p AllowHull is set — a [min, max]
  /// hull computed with quantifier-free binary search, which may
  /// over-approximate fragmented images. Pass AllowHull only where an
  /// over-approximation is sound (the ambiguity check validates its
  /// witnesses, so it qualifies).
  Result<TermRef> project(const ImagePredicate &P, unsigned I,
                          bool AllowHull = false);

  /// Whether psi is Cartesian (§4.3): equivalent to the conjunction of its
  /// unary projections. Projections are computed internally; the exactness
  /// check discharges one quantified query per predicate.
  Result<bool> isCartesian(const ImagePredicate &P);

  /// A quantifier-free term over Var(0..arity-1) equivalent to psi. For
  /// Cartesian predicates this is the conjunction of the projections (the
  /// readable form used in inverted programs); otherwise falls back to
  /// direct quantifier elimination.
  Result<TermRef> imageToTerm(const ImagePredicate &P);

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
    /// projection memo, keyed by (guard, outputs, position, hull flag).
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
    /// Scoped (generation-keyed) memo traffic.
    uint64_t ScopedCacheHits = 0;
    uint64_t ScopedCacheMisses = 0;
    uint64_t ScopedCacheEvictions = 0;
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
/// given by \p Kind. A zero \p S registers the family at zero.
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
