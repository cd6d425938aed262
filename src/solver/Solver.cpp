//===- solver/Solver.cpp - Z3-backed decision procedures -------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the Solver over the Z3 C++ API. The structure:
///
///  - translate():     Term -> z3::expr (auxiliary calls inlined first)
///  - backTranslate(): z3::expr -> Term, for QE results; fails cleanly on
///                     operators outside our term language, triggering the
///                     fallbacks below
///  - eliminateExists(): tactic cascade qe_lite -> qe -> qe2
///  - project():       exact model enumeration for bit-vectors (no closed
///                     form past the cap for wide ones), QE for integers.
///                     The injectivity pipeline conjoins the per-position
///                     projections into a Cartesian s-EFA (Definition
///                     4.12) and validates its witnesses instead of
///                     deciding Cartesianness (transducer/Injectivity.cpp)
///
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"

#include "solver/QueryCache.h"
#include "solver/QueryWatch.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "term/Eval.h"
#include "term/LaneEval.h"
#include "term/Printer.h"

#include <z3++.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace genic;

namespace {

/// A closed interval of bit-vector values: one run of an enumerated image.
struct Interval {
  uint64_t Lo;
  uint64_t Hi;
};

size_t hashMix(size_t Seed, size_t V) {
  return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

/// Memo key for getModel: the same formula queried for different variable
/// type lists is a different query (unconstrained variables default per
/// type).
struct ModelKey {
  TermRef Formula;
  std::vector<Type> Types;
  bool operator==(const ModelKey &O) const {
    return Formula == O.Formula && Types == O.Types;
  }
};
struct ModelKeyHash {
  size_t operator()(const ModelKey &K) const {
    size_t H = std::hash<const void *>()(K.Formula);
    for (const Type &Ty : K.Types)
      H = hashMix(H, Ty.hash());
    return H;
  }
};

/// Memo key for project(): the image predicate's identity plus the
/// requested position.
struct ProjKey {
  TermRef Guard;
  std::vector<TermRef> Outputs;
  unsigned NumInputs;
  unsigned Index;
  bool operator==(const ProjKey &O) const {
    return Guard == O.Guard && Outputs == O.Outputs &&
           NumInputs == O.NumInputs && Index == O.Index;
  }
};
struct ProjKeyHash {
  size_t operator()(const ProjKey &K) const {
    size_t H = std::hash<const void *>()(K.Guard);
    for (TermRef O : K.Outputs)
      H = hashMix(H, reinterpret_cast<size_t>(O));
    H = hashMix(H, K.NumInputs);
    return hashMix(H, K.Index);
  }
};

bool hasQuantifier(const z3::expr &E) {
  if (E.is_quantifier())
    return true;
  if (!E.is_app())
    return false;
  for (unsigned I = 0, N = E.num_args(); I != N; ++I)
    if (hasQuantifier(E.arg(I)))
      return true;
  return false;
}

/// Z3 contexts alive in this process (Solver::liveBackendContexts).
std::atomic<int64_t> LiveBackends{0};

} // namespace

const char *genic::toString(SolverSessionKind Kind) {
  switch (Kind) {
  case SolverSessionKind::Shared:
    return "shared";
  case SolverSessionKind::Pooled:
    return "pooled";
  case SolverSessionKind::Worker:
    return "worker";
  }
  return "shared";
}

const char *genic::counterFamily(SolverSessionKind Kind) {
  switch (Kind) {
  case SolverSessionKind::Shared:
    return "shared";
  case SolverSessionKind::Pooled:
    return "checker";
  case SolverSessionKind::Worker:
    return "worker";
  }
  return "shared";
}

void genic::recordSolverStats(MetricsRegistry &Registry,
                              SolverSessionKind Kind,
                              const Solver::Stats &S) {
  const std::string Prefix =
      std::string("solver.") + counterFamily(Kind) + ".";
  auto C = [&](const char *Name, uint64_t V) {
    Registry.counter(Prefix + Name).add(V);
  };
  C("sat_queries", S.SatQueries);
  C("qe_calls", S.QeCalls);
  C("qe_fallbacks", S.QeFallbacks);
  C("cache.sat.hits", S.CacheHits);
  C("cache.sat.misses", S.CacheMisses);
  C("cache.sat.evictions", S.CacheEvictions);
  C("cache.model.hits", S.ModelCacheHits);
  C("cache.model.misses", S.ModelCacheMisses);
  C("cache.model.evictions", S.ModelCacheEvictions);
  C("cache.proj.hits", S.ProjCacheHits);
  C("cache.proj.misses", S.ProjCacheMisses);
  C("cache.proj.evictions", S.ProjCacheEvictions);
  C("retries", S.Retries);
  C("query_timeouts", S.QueryTimeouts);
  C("queries_cancelled", S.QueriesCancelled);
  C("injected_faults", S.InjectedFaults);
  C("scope.pushes", S.ScopePushes);
  C("scope.pops", S.ScopePops);
  C("assumption.batches", S.AssumptionBatches);
  C("assumption.literals", S.AssumptionLiterals);
  C("incremental.hits", S.IncrementalHits);
  C("incremental.full_restarts", S.FullRestarts);
  C("image.values.evaluated", S.ImageValuesEvaluated);
  C("image.values.solved", S.ImageValuesSolved);
  C("plain.fallbacks", S.PlainFallbacks);
  // Concrete evaluation counts with the SyGuS engine's (recordEngineStats).
  if (S.ImageInputsEvaluated)
    Registry.counter(std::string("eval.") + counterFamily(Kind) + ".evals")
        .add(S.ImageInputsEvaluated);
}

class Solver::Impl {
public:
  explicit Impl(TermFactory &Factory) : Factory(Factory) {}
  ~Impl() { dropBackend(); }

  TermFactory &Factory;
  /// The Z3 context, built on first use by ctx() and dropped by
  /// dropBackend(). Every Z3 object of the session (Inc included) lives
  /// in it, so a fork that never reaches Z3 never pays for one, and a
  /// task that is done gives it back (about 17 MB) before the serial
  /// merge instead of after it. Its history is still exactly this
  /// session's queries, in order.
  std::unique_ptr<z3::context> Backend;
  Stats TheStats;
  unsigned TimeoutMs = 20000;
  /// Robustness contract: cancellation token, fault plan, metrics.
  SolverControl Control;
  /// 1-based ordinal of backend queries dispatched by this session; the
  /// FaultPlan keys off it, so a fault schedule is a pure function of the
  /// per-session query sequence (jobs-independent for any given session).
  uint64_t QueryOrdinal = 0;
  /// Why the most recent backend answer was Unknown; lets the Result
  /// wrappers classify Unknown into Timeout / Cancelled / SolverError.
  enum class UnknownCause { None, Timeout, Cancelled, Exception };
  UnknownCause LastUnknown = UnknownCause::None;
  /// Memoized checkSat answers, keyed by hash-consed formula pointer. Sat
  /// and Unsat are stable facts about a formula; Unknown (timeout, Z3
  /// hiccup) is never cached so a retry gets a fresh chance. Bounded with
  /// a generation clear (see setSatCacheCapacity).
  QueryCache<TermRef, SatResult> SatCache{1u << 20, "solver.sat"};
  /// Successful getModel answers. A fresh z3 solver is built per model
  /// query, so the answer is a function of the formula alone — repeated
  /// queries (witness reconstruction, transition sampling) hit here. Smaller
  /// default cap than SatCache: values are whole model vectors.
  QueryCache<ModelKey, std::vector<Value>, ModelKeyHash> ModelCache{
      1u << 16, "solver.model"};
  /// Successful project() answers, "no closed form" included (a function
  /// of the image too).
  QueryCache<ProjKey, std::optional<TermRef>, ProjKeyHash> ProjCache{
      1u << 16, "solver.proj"};

  // -- Incremental sessions --------------------------------------------------

  /// Term-level assertion stack, the source of truth for scoped solving.
  /// Scopes[0] is the base frame; push/pop append and drop frames. A
  /// rebuild after a dropped backend session replays it, so the rebuilt
  /// session answers exactly as the dropped one would have.
  std::vector<std::vector<TermRef>> Scopes =
      std::vector<std::vector<TermRef>>(1);
  /// Persistent backend mirror of Scopes, created lazily on the first
  /// scoped query. Purely an accelerator: any backend exception drops it
  /// and the next query rebuilds from Scopes, so a fault or cancellation
  /// mid-scope can never leak assertions into a reused session.
  std::unique_ptr<z3::solver> Inc;
  /// When nonzero, translated variables are renamed v<i> -> b<tag>v<i>;
  /// checkSatBatch uses one tag per member so the members share no
  /// variables and the conjunction is satisfiable iff each member is.
  unsigned VarNameTag = 0;

  struct VarTagScope {
    VarTagScope(Impl &I, unsigned Tag) : I(I) { I.VarNameTag = Tag; }
    ~VarTagScope() { I.VarNameTag = 0; }
    Impl &I;
  };

  // -- Backend lifetime ------------------------------------------------------

  z3::context &ctx() {
    if (!Backend)
      createBackend();
    return *Backend;
  }

  /// Builds the context under a solver.backend.create span, so trace folds
  /// show set-up apart from queries, and counts it in the control's sink:
  /// contexts created, and the process-wide live count as a high-water
  /// mark. Only creation touches the sink; a context may outlive the
  /// request whose registry counted it.
  void createBackend() {
    TraceSpan Span("solver.backend.create", "session");
    Backend = std::make_unique<z3::context>();
    int64_t Live = LiveBackends.fetch_add(1, std::memory_order_relaxed) + 1;
    if (MetricsRegistry *M = Control.Metrics) {
      M->counter("solver.backend.contexts").add(1);
      M->gauge("solver.backend.peak_live").setMax(Live);
    }
  }

  /// Drops the live incremental session, then the context. Scopes, memos
  /// and Stats stay; the next query builds a fresh context and ensureInc()
  /// replays the stack into it.
  void dropBackend() {
    Inc.reset();
    if (Backend) {
      Backend.reset();
      LiveBackends.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // -- Translation ---------------------------------------------------------

  z3::sort sortOf(const Type &Ty) {
    if (Ty.isBool())
      return ctx().bool_sort();
    if (Ty.isInt())
      return ctx().int_sort();
    return ctx().bv_sort(Ty.width());
  }

  z3::expr varExpr(unsigned Index, const Type &Ty) {
    std::string Name;
    if (VarNameTag)
      Name = "b" + std::to_string(VarNameTag) + "v" + std::to_string(Index);
    else
      Name = "v" + std::to_string(Index);
    return ctx().constant(Name.c_str(), sortOf(Ty));
  }

  z3::expr valueExpr(const Value &V) {
    if (V.type().isBool())
      return ctx().bool_val(V.getBool());
    if (V.type().isInt())
      return ctx().int_val(static_cast<int64_t>(V.getInt()));
    return ctx().bv_val(V.getBits(), V.type().width());
  }

  /// Translates \p T (auxiliary calls inlined) to a Z3 expression.
  z3::expr translate(TermRef T) {
    TermRef Inlined = Factory.inlineCalls(T);
    std::unordered_map<TermRef, z3::expr> Memo;
    return translateRec(Inlined, Memo);
  }

  z3::expr translateRec(TermRef T,
                        std::unordered_map<TermRef, z3::expr> &Memo) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    z3::expr E = translateNode(T, Memo);
    Memo.emplace(T, E);
    return E;
  }

  z3::expr translateNode(TermRef T,
                         std::unordered_map<TermRef, z3::expr> &Memo) {
    auto Arg = [&](size_t I) { return translateRec(T->child(I), Memo); };
    switch (T->op()) {
    case Op::Const:
      return valueExpr(T->constValue());
    case Op::Var:
      return varExpr(T->varIndex(), T->type());
    case Op::Not:
      return !Arg(0);
    case Op::And: {
      z3::expr_vector V(ctx());
      for (size_t I = 0, E = T->arity(); I != E; ++I)
        V.push_back(Arg(I));
      return z3::mk_and(V);
    }
    case Op::Or: {
      z3::expr_vector V(ctx());
      for (size_t I = 0, E = T->arity(); I != E; ++I)
        V.push_back(Arg(I));
      return z3::mk_or(V);
    }
    case Op::Implies:
      return z3::implies(Arg(0), Arg(1));
    case Op::Iff:
    case Op::Eq:
      return Arg(0) == Arg(1);
    case Op::Ite:
      return z3::ite(Arg(0), Arg(1), Arg(2));
    case Op::IntAdd:
      return Arg(0) + Arg(1);
    case Op::IntSub:
      return Arg(0) - Arg(1);
    case Op::IntNeg:
      return -Arg(0);
    case Op::IntMul:
      return Arg(0) * Arg(1);
    case Op::IntLe:
      return Arg(0) <= Arg(1);
    case Op::IntLt:
      return Arg(0) < Arg(1);
    case Op::IntGe:
      return Arg(0) >= Arg(1);
    case Op::IntGt:
      return Arg(0) > Arg(1);
    case Op::BvAdd:
      return Arg(0) + Arg(1);
    case Op::BvSub:
      return Arg(0) - Arg(1);
    case Op::BvNeg:
      return -Arg(0);
    case Op::BvMul:
      return Arg(0) * Arg(1);
    case Op::BvAnd:
      return Arg(0) & Arg(1);
    case Op::BvOr:
      return Arg(0) | Arg(1);
    case Op::BvXor:
      return Arg(0) ^ Arg(1);
    case Op::BvNot:
      return ~Arg(0);
    case Op::BvShl:
      return z3::shl(Arg(0), Arg(1));
    case Op::BvLshr:
      return z3::lshr(Arg(0), Arg(1));
    case Op::BvAshr:
      return z3::ashr(Arg(0), Arg(1));
    case Op::BvUle:
      return z3::ule(Arg(0), Arg(1));
    case Op::BvUlt:
      return z3::ult(Arg(0), Arg(1));
    case Op::BvUge:
      return z3::uge(Arg(0), Arg(1));
    case Op::BvUgt:
      return z3::ugt(Arg(0), Arg(1));
    case Op::BvSle:
      return Arg(0) <= Arg(1); // Signed on bit-vector operands in z3++.
    case Op::BvSlt:
      return Arg(0) < Arg(1);
    case Op::BvSge:
      return Arg(0) >= Arg(1);
    case Op::BvSgt:
      return Arg(0) > Arg(1);
    case Op::Call:
      unreachable("calls survived inlining before translation");
    }
    unreachable("unhandled operator in translation");
  }

  // -- Back-translation ------------------------------------------------------

  /// Converts a Z3 expression produced by QE back into a Term. Variables are
  /// recognized by their "v<index>" names; \p VarTypes records the expected
  /// index->type mapping (entries may be missing for unused indices and are
  /// then derived from the Z3 sort).
  Result<TermRef> backTranslate(const z3::expr &E) {
    if (E.is_quantifier())
      return Status::error("back-translation: residual quantifier");
    if (!E.is_app())
      return Status::error("back-translation: non-application node");

    if (E.is_numeral())
      return backTranslateNumeral(E);

    Z3_decl_kind K = E.decl().decl_kind();
    if (K == Z3_OP_TRUE)
      return Factory.mkTrue();
    if (K == Z3_OP_FALSE)
      return Factory.mkFalse();

    if (K == Z3_OP_UNINTERPRETED && E.num_args() == 0) {
      std::string Name = E.decl().name().str();
      if (Name.size() < 2 || Name[0] != 'v')
        return Status::error("back-translation: foreign constant " + Name);
      unsigned Index = std::strtoul(Name.c_str() + 1, nullptr, 10);
      Result<Type> Ty = typeOfSort(E.get_sort());
      if (!Ty)
        return Ty.status();
      return Factory.mkVar(Index, *Ty);
    }

    std::vector<TermRef> Args;
    Args.reserve(E.num_args());
    for (unsigned I = 0, N = E.num_args(); I != N; ++I) {
      Result<TermRef> A = backTranslate(E.arg(I));
      if (!A)
        return A;
      Args.push_back(*A);
    }
    return backTranslateApp(E, K, Args);
  }

  Result<Type> typeOfSort(const z3::sort &S) {
    if (S.is_bool())
      return Type::boolTy();
    if (S.is_int())
      return Type::intTy();
    if (S.is_bv() && S.bv_size() <= 64)
      return Type::bitVecTy(S.bv_size());
    return Status::error("back-translation: unsupported sort");
  }

  Result<TermRef> backTranslateNumeral(const z3::expr &E) {
    if (E.get_sort().is_int()) {
      int64_t V;
      if (!E.is_numeral_i64(V))
        return Status::error("back-translation: integer numeral overflow");
      return Factory.mkInt(V);
    }
    if (E.get_sort().is_bv()) {
      if (E.get_sort().bv_size() > 64)
        return Status::error("back-translation: bit-vector wider than 64");
      uint64_t V;
      if (!E.is_numeral_u64(V))
        return Status::error("back-translation: bit-vector numeral overflow");
      return Factory.mkBv(V, E.get_sort().bv_size());
    }
    return Status::error("back-translation: unsupported numeral sort");
  }

  Result<TermRef> backTranslateApp(const z3::expr &E, Z3_decl_kind K,
                                   std::vector<TermRef> &Args) {
    auto FoldLeft = [&](Op O) {
      TermRef Acc = Args[0];
      for (size_t I = 1; I < Args.size(); ++I)
        Acc = Args[I]->type().isInt() ? Factory.mkIntOp(O, Acc, Args[I])
                                      : Factory.mkBvOp(O, Acc, Args[I]);
      return Acc;
    };
    switch (K) {
    case Z3_OP_AND:
      return Factory.mkAnd(std::move(Args));
    case Z3_OP_OR:
      return Factory.mkOr(std::move(Args));
    case Z3_OP_NOT:
      return Factory.mkNot(Args[0]);
    case Z3_OP_IMPLIES:
      return Factory.mkImplies(Args[0], Args[1]);
    case Z3_OP_IFF:
      return Factory.mkIff(Args[0], Args[1]);
    case Z3_OP_EQ:
      if (Args[0]->type().isBool())
        return Factory.mkIff(Args[0], Args[1]);
      return Factory.mkEq(Args[0], Args[1]);
    case Z3_OP_DISTINCT:
      if (Args.size() != 2 || Args[0]->type().isBool())
        return Status::error("back-translation: n-ary distinct");
      return Factory.mkDistinct(Args[0], Args[1]);
    case Z3_OP_ITE:
      return Factory.mkIte(Args[0], Args[1], Args[2]);
    case Z3_OP_LE:
      return Factory.mkIntOp(Op::IntLe, Args[0], Args[1]);
    case Z3_OP_LT:
      return Factory.mkIntOp(Op::IntLt, Args[0], Args[1]);
    case Z3_OP_GE:
      return Factory.mkIntOp(Op::IntGe, Args[0], Args[1]);
    case Z3_OP_GT:
      return Factory.mkIntOp(Op::IntGt, Args[0], Args[1]);
    case Z3_OP_ADD:
      return FoldLeft(Op::IntAdd);
    case Z3_OP_SUB:
      return FoldLeft(Op::IntSub);
    case Z3_OP_MUL:
      return FoldLeft(Op::IntMul);
    case Z3_OP_UMINUS:
      return Factory.mkIntOp(Op::IntNeg, Args[0]);
    case Z3_OP_BADD:
      return FoldLeft(Op::BvAdd);
    case Z3_OP_BSUB:
      return FoldLeft(Op::BvSub);
    case Z3_OP_BMUL:
      return FoldLeft(Op::BvMul);
    case Z3_OP_BNEG:
      return Factory.mkBvOp(Op::BvNeg, Args[0]);
    case Z3_OP_BAND:
      return FoldLeft(Op::BvAnd);
    case Z3_OP_BOR:
      return FoldLeft(Op::BvOr);
    case Z3_OP_BXOR:
      return FoldLeft(Op::BvXor);
    case Z3_OP_BNOT:
      return Factory.mkBvOp(Op::BvNot, Args[0]);
    case Z3_OP_BSHL:
      return Factory.mkBvOp(Op::BvShl, Args[0], Args[1]);
    case Z3_OP_BLSHR:
      return Factory.mkBvOp(Op::BvLshr, Args[0], Args[1]);
    case Z3_OP_BASHR:
      return Factory.mkBvOp(Op::BvAshr, Args[0], Args[1]);
    case Z3_OP_ULEQ:
      return Factory.mkBvOp(Op::BvUle, Args[0], Args[1]);
    case Z3_OP_ULT:
      return Factory.mkBvOp(Op::BvUlt, Args[0], Args[1]);
    case Z3_OP_UGEQ:
      return Factory.mkBvOp(Op::BvUge, Args[0], Args[1]);
    case Z3_OP_UGT:
      return Factory.mkBvOp(Op::BvUgt, Args[0], Args[1]);
    case Z3_OP_SLEQ:
      return Factory.mkBvOp(Op::BvSle, Args[0], Args[1]);
    case Z3_OP_SLT:
      return Factory.mkBvOp(Op::BvSlt, Args[0], Args[1]);
    case Z3_OP_SGEQ:
      return Factory.mkBvOp(Op::BvSge, Args[0], Args[1]);
    case Z3_OP_SGT:
      return Factory.mkBvOp(Op::BvSgt, Args[0], Args[1]);
    default:
      return Status::error(std::string("back-translation: operator ") +
                           E.decl().name().str() + " outside term language");
    }
  }

  // -- Queries -----------------------------------------------------------------

  /// The soft timeout actually handed to Z3: the local per-query budget,
  /// clamped to the remaining global deadline (an expired deadline yields
  /// the 1ms floor rather than 0, since Z3 reads 0 as unlimited).
  unsigned effectiveTimeoutMs(unsigned LocalMs) const {
    return Control.Cancel.deadline().remainingMsClamped(LocalMs);
  }

  /// Sets the soft timeout of every later check on this session. It is
  /// the context's `timeout` parameter, which Z3 reads as each check
  /// starts, so live solvers (the incremental session, the probes) pick
  /// up a new value without being reconfigured. z3::solver::set would
  /// instead validate and push the parameters through the whole combined
  /// solver, about 1.5 ms a call against 0.06 ms for a small
  /// push/check/pop (Z3 4.8.12). No solver carries solver-level
  /// parameters. 0 sets "unlimited" explicitly, since the value outlives
  /// any one solver.
  void applyTimeout(unsigned Ms) {
    unsigned Value = Ms ? Ms : std::numeric_limits<unsigned>::max();
    ctx().set("timeout", std::to_string(Value).c_str());
  }

  /// A fresh default solver, for model queries: its answer, model
  /// included, depends only on the formula and the context's history.
  z3::solver makeSolver() {
    z3::solver S(ctx());
    applyTimeout(effectiveTimeoutMs(TimeoutMs));
    return S;
  }

  /// A fresh solver on Z3's plain SMT core (z3::solver::simple()), for
  /// verdict-only queries. The default solver probes the formula and
  /// builds a tactic pipeline before its first check, which costs far
  /// more than the tiny checks of the pipeline: 12-19 ms a query against
  /// 0.4-0.6 ms on the plain core (Z3 4.8.12). A verdict does not depend
  /// on the engine, so the memos stay sound. One per query, not one
  /// persistent solver: a persistent one grew peak RSS by 22 MB on the
  /// BASE32 encoder. Where the plain core answers Unknown, the retry runs
  /// on a default solver (see checkUnmetered).
  z3::solver makePlainSolver() {
    z3::solver S(ctx(), z3::solver::simple());
    applyTimeout(effectiveTimeoutMs(TimeoutMs));
    return S;
  }

  /// A fresh default solver holding \p S's assertions: the escalation
  /// target of a verdict the plain core left Unknown.
  z3::solver defaultSolverWith(const z3::solver &S) {
    z3::solver D(ctx());
    for (const z3::expr &E : S.assertions())
      D.add(E);
    return D;
  }

  /// Dispatches one backend query: counts the per-session ordinal, fires
  /// the fault plan if scheduled, and classifies an Unknown as a timeout.
  /// Assumption-literal checks consume ordinals exactly like plain checks
  /// (one per backend dispatch), so a fault schedule remains a pure
  /// function of the per-session query sequence.
  z3::check_result rawCheck(z3::solver &S,
                            const z3::expr_vector *Assumptions) {
    uint64_t Ordinal = ++QueryOrdinal;
    const FaultPlan &Faults = Control.Faults;
    if (Faults.enabled() && Faults.appliesTo(Control.WorkerSession) &&
        Faults.firesAt(Ordinal)) {
      ++TheStats.InjectedFaults;
      if (Faults.FaultKind == FaultPlan::Kind::Crash &&
          crashFaultsEnabled()) {
        // Chaos-test path: die the way a real Z3 segfault under a hard
        // rlimit does — no unwind, no flush, nothing the supervisor could
        // negotiate with.
        ::raise(SIGKILL);
      }
      if (Faults.FaultKind == FaultPlan::Kind::Throw ||
          Faults.FaultKind == FaultPlan::Kind::Crash) {
        LastUnknown = UnknownCause::Exception;
        throw z3::exception("injected solver fault");
      }
      LastUnknown = UnknownCause::Timeout; // injected Unknown acts as one
      return z3::unknown;
    }
    z3::check_result R = Assumptions ? S.check(*Assumptions) : S.check();
    if (R == z3::unknown)
      LastUnknown = UnknownCause::Timeout;
    return R;
  }

  /// The chokepoint every sat/model query funnels through: refuses work
  /// once the cancellation token fires, dispatches via rawCheck, and on an
  /// Unknown retries once with an escalated soft timeout on the same
  /// solver state (still clamped to the remaining global budget) before
  /// letting the Unknown surface. \p Plain, when set, says \p S is a
  /// plain-core verdict solver (makePlainSolver); its retry runs on a
  /// default solver instead, which replaces \p S, and *\p Plain is
  /// cleared. When a MetricsRegistry is installed the
  /// whole call (retry included, and the unwind path of an injected throw)
  /// is timed into the phase/kind-tagged query-latency histogram;
  /// incremental-path queries are additionally observed under the
  /// ".incremental" key of the same phase.
  z3::check_result check(z3::solver &S,
                         const z3::expr_vector *Assumptions = nullptr,
                         bool IncrementalQuery = false,
                         bool *Plain = nullptr) {
    if (!Control.Metrics)
      return checkUnmetered(S, Assumptions, Plain);
    QueryLatencyScope Metered(*this, IncrementalQuery);
    return checkUnmetered(S, Assumptions, Plain);
  }

  /// RAII latency observer for check(); the destructor runs on the unwind
  /// path too, so injected solver exceptions stay accounted for. When the
  /// slow-query watch is armed it also registers the query in the calling
  /// thread's active-query slot (so the watchdog can flag it mid-flight)
  /// and reports the completion so over-threshold or timed-out queries
  /// bump the `solver.slowquery.*` counters.
  struct QueryLatencyScope {
    QueryLatencyScope(Impl &I, bool Incremental)
        : I(I), Incremental(Incremental),
          Start(std::chrono::steady_clock::now()) {
      if (QueryWatch::global().enabled())
        Watch.emplace(toString(I.Control.Kind));
    }
    ~QueryLatencyScope() {
      uint64_t Us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
      const char *Phase = currentMetricsPhase();
      const char *Kind = toString(I.Control.Kind);
      MetricsRegistry &Registry = *I.Control.Metrics;
      std::string Name = "solver.query.us.";
      Name += Phase;
      Name += '.';
      Name += Kind;
      Registry.histogram(Name).observe(Us);
      if (Incremental) {
        std::string IncName = "solver.query.us.";
        IncName += Phase;
        IncName += ".incremental";
        Registry.histogram(IncName).observe(Us);
      }
      QueryWatch::global().noteCompletion(
          Us, I.LastUnknown == UnknownCause::Timeout, Phase, Kind, &Registry);
    }
    Impl &I;
    bool Incremental;
    std::optional<QueryWatch::Scope> Watch;
    std::chrono::steady_clock::time_point Start;
  };

  /// Escalating retry policy: a query that comes back Unknown from a
  /// timeout is retried once with this many times the soft timeout (still
  /// clamped to the remaining global budget) before the Unknown surfaces.
  static constexpr unsigned RetryTimeoutFactor = 2;

  z3::check_result checkUnmetered(z3::solver &S,
                                  const z3::expr_vector *Assumptions,
                                  bool *Plain) {
    LastUnknown = UnknownCause::None;
    if (Control.Cancel.cancelled()) {
      ++TheStats.QueriesCancelled;
      LastUnknown = UnknownCause::Cancelled;
      return z3::unknown;
    }
    ++TheStats.SatQueries;
    z3::check_result R = rawCheck(S, Assumptions);
    if (R == z3::unknown && LastUnknown == UnknownCause::Timeout &&
        !Control.Cancel.cancelled()) {
      ++TheStats.Retries;
      ++TheStats.SatQueries;
      if (Plain && *Plain) {
        // The plain core gave up (a timeout, or a fragment it decides
        // incompletely): the one retry goes to the default solver.
        ++TheStats.PlainFallbacks;
        S = defaultSolverWith(S);
        *Plain = false;
      }
      unsigned Escalated =
          TimeoutMs == 0 ? 0 : saturatingMulMs(TimeoutMs, RetryTimeoutFactor);
      applyTimeout(effectiveTimeoutMs(Escalated));
      R = rawCheck(S, Assumptions);
      // Restore the base budget for later queries on this solver state
      // (incremental loops keep checking after a masked hiccup).
      applyTimeout(effectiveTimeoutMs(TimeoutMs));
    }
    if (R == z3::unknown && LastUnknown == UnknownCause::Timeout)
      ++TheStats.QueryTimeouts;
    return R;
  }

  SatResult toSatResult(z3::check_result R) {
    switch (R) {
    case z3::sat:
      return SatResult::Sat;
    case z3::unsat:
      return SatResult::Unsat;
    default:
      return SatResult::Unknown;
    }
  }

  static unsigned saturatingMulMs(unsigned Ms, unsigned Factor) {
    uint64_t Wide = uint64_t(Ms) * std::max(1u, Factor);
    return Wide > std::numeric_limits<unsigned>::max()
               ? std::numeric_limits<unsigned>::max()
               : unsigned(Wide);
  }

  /// Classifies the most recent Unknown into a coded Status.
  Status unknownStatus(const std::string &What) const {
    switch (LastUnknown) {
    case UnknownCause::Cancelled:
      return Status::cancelled(What + ": cancelled by global deadline");
    case UnknownCause::Exception:
      return Status::solverError(What + ": solver raised an exception");
    default:
      return Status::timeout(What + ": solver returned unknown");
    }
  }

  /// The verdict of \p E alone, on the plain core.
  SatResult checkExpr(const z3::expr &E) {
    z3::solver S = makePlainSolver();
    S.add(E);
    bool Plain = true;
    return toSatResult(check(S, nullptr, /*IncrementalQuery=*/false, &Plain));
  }

  // -- Scoped sessions -------------------------------------------------------

  /// Discards the live backend session. State is never lost: the term-level
  /// Scopes stack is the source of truth and ensureInc() replays it.
  void dropInc() { Inc.reset(); }

  /// The live backend mirror of Scopes, (re)built on demand. Every rebuild
  /// counts as a full restart; the timeout is re-clamped on each call since
  /// the global deadline shrinks between queries.
  z3::solver &ensureInc() {
    if (!Inc) {
      Inc = std::make_unique<z3::solver>(ctx());
      ++TheStats.FullRestarts;
      for (size_t I = 0, E = Scopes.size(); I != E; ++I) {
        if (I != 0)
          Inc->push();
        for (TermRef T : Scopes[I])
          Inc->add(translate(T));
      }
    }
    applyTimeout(effectiveTimeoutMs(TimeoutMs));
    return *Inc;
  }

  void pushScope() {
    Scopes.emplace_back();
    ++TheStats.ScopePushes;
    if (Inc) {
      try {
        Inc->push();
      } catch (const z3::exception &) {
        dropInc();
      }
    }
    TraceRecorder::global().instant("solver.scope", "push", "depth",
                                    static_cast<int64_t>(Scopes.size() - 1));
  }

  void popScope() {
    if (Scopes.size() <= 1)
      return;
    Scopes.pop_back();
    ++TheStats.ScopePops;
    if (Inc) {
      try {
        Inc->pop(1);
      } catch (const z3::exception &) {
        dropInc();
      }
    }
    TraceRecorder::global().instant("solver.scope", "pop", "depth",
                                    static_cast<int64_t>(Scopes.size() - 1));
  }

  void assertScoped(TermRef Formula) {
    Scopes.back().push_back(Formula);
    if (Inc) {
      try {
        Inc->add(translate(Formula));
      } catch (const z3::exception &) {
        dropInc();
      }
    }
  }

  /// The live session, counted as an incremental hit when it was already
  /// built, with \p NumAssumptions literals about to be sent.
  z3::solver &liveSession(size_t NumAssumptions) {
    bool Hot = Inc != nullptr;
    z3::solver &S = ensureInc();
    if (Hot)
      ++TheStats.IncrementalHits;
    TheStats.AssumptionLiterals += NumAssumptions;
    return S;
  }

  /// Checks the live session \p S under \p Assumptions as check-sat
  /// literals.
  z3::check_result checkLive(z3::solver &S,
                             const std::vector<TermRef> &Assumptions) {
    z3::expr_vector As(ctx());
    for (TermRef A : Assumptions)
      As.push_back(translate(A));
    return check(S, &As, /*IncrementalQuery=*/true);
  }

  /// The incremental path of checkSatAssuming: stack live in the backend,
  /// formula under an ephemeral frame, assumptions as check-sat literals.
  /// Any backend exception (injected faults included) drops the live
  /// session so the ephemeral frame can never leak into later queries.
  SatResult checkSatAssumingInc(const std::vector<TermRef> &Assumptions,
                                TermRef Formula) {
    try {
      z3::solver &S = liveSession(Assumptions.size());
      if (!Formula)
        return toSatResult(checkLive(S, Assumptions));
      S.push();
      try {
        S.add(translate(Formula));
        SatResult R = toSatResult(checkLive(S, Assumptions));
        S.pop();
        return R;
      } catch (const z3::exception &) {
        dropInc();
        throw;
      }
    } catch (const z3::exception &) {
      dropInc();
      LastUnknown = UnknownCause::Exception;
      return SatResult::Unknown;
    }
  }

  /// modelAssuming: one check of the live session, and on Sat its model
  /// read off before any later query can move it.
  Result<std::optional<std::vector<Value>>>
  modelAssumingInc(const std::vector<TermRef> &Assumptions,
                   const std::vector<Type> &VarTypes) {
    try {
      z3::solver &S = liveSession(Assumptions.size());
      z3::check_result R = checkLive(S, Assumptions);
      if (R == z3::unsat)
        return std::optional<std::vector<Value>>();
      if (R != z3::sat)
        return unknownStatus("scoped model query");
      return std::optional<std::vector<Value>>(
          modelValues(S.get_model(), VarTypes));
    } catch (const z3::exception &) {
      dropInc();
      LastUnknown = UnknownCause::Exception;
      return unknownStatus("scoped model query");
    }
  }

  /// Decides the \p Pending formulas (indices into \p Formulas) in one
  /// backend session under selector literals. Members are variable-
  /// disjointly renamed, so "all selected members together" is satisfiable
  /// iff each is; an unsat answer's core names the candidates that are
  /// individually unsat, which are then settled with single-selector
  /// checks. Members left unresolved (Unknown, round cap) stay unmarked in
  /// \p Resolved for the caller's one-shot fallback. The session is a
  /// plain-core verdict solver until a check escalates it (see check()).
  void checkSatBatchImpl(const std::vector<TermRef> &Formulas,
                         const std::vector<size_t> &Pending,
                         std::vector<SatResult> &Out,
                         std::vector<bool> &Resolved) {
    z3::solver S = makePlainSolver();
    bool Plain = true;
    std::vector<z3::expr> Sels;
    Sels.reserve(Pending.size());
    for (size_t J = 0; J != Pending.size(); ++J) {
      VarTagScope Tag(*this, static_cast<unsigned>(J + 1));
      z3::expr Member = translate(Formulas[Pending[J]]);
      z3::expr Sel = ctx().constant(
          ("sel_b" + std::to_string(J)).c_str(), ctx().bool_sort());
      S.add(z3::implies(Sel, Member));
      Sels.push_back(Sel);
    }
    auto Settle = [&](size_t J, SatResult R) {
      Out[Pending[J]] = R;
      Resolved[J] = true;
      SatCache.insert(Formulas[Pending[J]], R);
    };
    std::vector<size_t> Live(Pending.size());
    for (size_t J = 0; J != Live.size(); ++J)
      Live[J] = J;
    const unsigned MaxRounds = 8;
    for (unsigned Round = 0; Round != MaxRounds && !Live.empty(); ++Round) {
      z3::expr_vector As(ctx());
      for (size_t J : Live)
        As.push_back(Sels[J]);
      z3::check_result R = check(S, &As, /*IncrementalQuery=*/true, &Plain);
      if (R == z3::sat) {
        for (size_t J : Live)
          Settle(J, SatResult::Sat);
        return;
      }
      if (R != z3::unsat)
        return; // Unknown: the one-shot fallback decides the rest.
      std::unordered_set<unsigned> CoreIds;
      z3::expr_vector Core = S.unsat_core();
      for (unsigned C = 0, E = Core.size(); C != E; ++C)
        CoreIds.insert(Core[C].id());
      std::vector<size_t> Next;
      bool AnySuspect = false;
      for (size_t J : Live) {
        if (!CoreIds.count(Sels[J].id())) {
          Next.push_back(J);
          continue;
        }
        // A core member proves only that the *conjunction* of core members
        // is unsat; with disjoint variables at least one of them is
        // individually unsat, but each needs its own verdict.
        AnySuspect = true;
        z3::expr_vector One(ctx());
        One.push_back(Sels[J]);
        z3::check_result RJ =
            check(S, &One, /*IncrementalQuery=*/true, &Plain);
        if (RJ == z3::sat)
          Settle(J, SatResult::Sat);
        else if (RJ == z3::unsat)
          Settle(J, SatResult::Unsat);
        // Unknown: fall back individually.
      }
      if (!AnySuspect)
        return; // Degenerate (empty) core; bail out to the fallback.
      Live = std::move(Next);
    }
  }

  Value valueFromModelExpr(const z3::expr &E, const Type &Ty) {
    if (Ty.isBool())
      return Value::boolVal(E.is_true());
    if (Ty.isInt()) {
      int64_t V = 0;
      E.is_numeral_i64(V);
      return Value::intVal(V);
    }
    uint64_t V = 0;
    E.is_numeral_u64(V);
    return Value::bitVecVal(V, Ty.width());
  }

  /// Var(0..n-1) of \p M, completed with arbitrary values of \p VarTypes
  /// for variables the model leaves open.
  std::vector<Value> modelValues(const z3::model &M,
                                 const std::vector<Type> &VarTypes) {
    std::vector<Value> Values;
    Values.reserve(VarTypes.size());
    for (unsigned I = 0, E = VarTypes.size(); I != E; ++I) {
      z3::expr V = M.eval(varExpr(I, VarTypes[I]), true);
      Values.push_back(valueFromModelExpr(V, VarTypes[I]));
    }
    return Values;
  }

  // -- Quantifier elimination ------------------------------------------------

  /// Collects the types of variables occurring in \p T.
  std::map<unsigned, Type> varTypes(TermRef T) {
    std::map<unsigned, Type> Types;
    std::unordered_set<TermRef> Visited;
    auto Go = [&](auto &&Self, TermRef Node) -> void {
      if (!Visited.insert(Node).second)
        return;
      if (Node->isVar())
        Types.emplace(Node->varIndex(), Node->type());
      for (TermRef C : Node->children())
        Self(Self, C);
    };
    Go(Go, Factory.inlineCalls(T));
    return Types;
  }

  Result<TermRef> eliminateExists(TermRef Phi, unsigned NumEliminate) {
    // The cascade honours the request deadline like a query does: a fired
    // token stops it before the translation (which may build the Z3
    // context) and before each tactic, and each tactic's budget is clamped
    // to the time left.
    auto Cancelled = [&] {
      ++TheStats.QueriesCancelled;
      LastUnknown = UnknownCause::Cancelled;
      return unknownStatus("quantifier elimination");
    };
    if (Control.Cancel.cancelled())
      return Cancelled();
    ++TheStats.QeCalls;
    std::map<unsigned, Type> Types = varTypes(Phi);
    z3::expr Body = translate(Phi);
    z3::expr_vector Bound(ctx());
    for (const auto &[Index, Ty] : Types)
      if (Index < NumEliminate)
        Bound.push_back(varExpr(Index, Ty));
    z3::expr Quantified =
        Bound.empty() ? Body : z3::exists(Bound, Body);

    // Z3 also times tactic application by the context's timeout; lift it
    // so each tactic's own try_for budget governs, as it does when no
    // query has set one. Every check path re-applies the query timeout
    // before it runs.
    applyTimeout(0);
    const char *Tactics[] = {"qe_lite", "qe", "qe2"};
    for (const char *Name : Tactics) {
      if (Control.Cancel.cancelled())
        return Cancelled();
      z3::expr Eliminated(ctx());
      try {
        z3::tactic T = z3::try_for(
            z3::tactic(ctx(), Name) & z3::tactic(ctx(), "simplify"),
            effectiveTimeoutMs(TimeoutMs ? TimeoutMs : 60000));
        z3::goal G(ctx());
        G.add(Quantified);
        z3::apply_result R = T(G);
        if (R.size() == 0) {
          Eliminated = ctx().bool_val(false);
        } else {
          z3::expr_vector Goals(ctx());
          for (unsigned I = 0, N = R.size(); I != N; ++I)
            Goals.push_back(R[I].as_expr());
          Eliminated = Goals.size() == 1 ? Goals[0] : z3::mk_or(Goals);
        }
      } catch (const z3::exception &) {
        continue; // Tactic failed or timed out; try the next one.
      }
      if (hasQuantifier(Eliminated))
        continue;
      Result<TermRef> Back = backTranslate(Eliminated);
      if (!Back)
        continue;
      return shiftDown(*Back, NumEliminate);
    }
    if (Control.Cancel.cancelled())
      return Cancelled();
    ++TheStats.QeFallbacks;
    return Status::error("quantifier elimination failed");
  }

  /// Re-indexes Var(i) to Var(i - Delta). No variable below Delta may occur.
  Result<TermRef> shiftDown(TermRef T, unsigned Delta) {
    if (Delta == 0)
      return T;
    std::map<unsigned, Type> Types = varTypes(T);
    if (Types.empty())
      return T;
    unsigned MaxIndex = Types.rbegin()->first;
    for (const auto &[Index, Ty] : Types) {
      (void)Ty;
      if (Index < Delta)
        return Status::error("eliminated variable survived QE");
    }
    std::vector<TermRef> Replacements(MaxIndex + 1, nullptr);
    for (const auto &[Index, Ty] : Types)
      Replacements[Index] = Factory.mkVar(Index - Delta, Ty);
    return Factory.substitute(T, Replacements);
  }

  // -- Image predicates -----------------------------------------------------

  Result<std::optional<TermRef>> project(const ImagePredicate &P,
                                         unsigned I) {
    assert(I < P.arity() && "projection index out of range");
    ProjKey Key{P.Guard, P.Outputs, P.NumInputs, I};
    if (const std::optional<TermRef> *Cached = ProjCache.find(Key))
      return *Cached;
    Result<std::optional<TermRef>> R = projectUncached(P, I);
    if (R)
      ProjCache.insert(Key, *R);
    return R;
  }

  Result<std::optional<TermRef>> projectUncached(const ImagePredicate &P,
                                                 unsigned I) {
    const Type &OutTy = P.Outputs[I]->type();
    // Bit-vectors: exact enumeration. It beats quantifier elimination both
    // in speed and in the readability of the result (coalesced intervals
    // instead of Z3's pointwise disjunctions), and is exhaustive for
    // narrow widths; for wide ones Z3's qe tactics rarely finish in useful
    // time, so an image that reaches the cap has no closed form. Most
    // values come from concrete evaluation around one solver model, so an
    // image of 600 values or more is usually refuted without 600 solver
    // queries. Which outcome comes back depends on the image alone (fewer
    // values than the cap, or not), never on how the values were found.
    if (OutTy.isBitVec())
      return enumerateBvImage(P, I, OutTy.width() <= 9 ? 0 /*unbounded*/
                                                       : 600);
    // Integers: real quantifier elimination on
    //   exists x . Guard /\ y = f_I(x)      (y at index NumInputs).
    TermRef Y = Factory.mkVar(P.NumInputs, OutTy);
    TermRef Phi = Factory.mkAnd(P.Guard, Factory.mkEq(Y, P.Outputs[I]));
    Result<TermRef> Psi = eliminateExists(Phi, P.NumInputs);
    if (!Psi)
      return Psi.status();
    return std::optional<TermRef>(*Psi);
  }

  /// Whether every subterm of \p T, calls inlined, is Bool or BitVec. Such
  /// formulas go to Z3's QF_FD solver, and concrete evaluation of them
  /// agrees with their Z3 translation wherever it is defined.
  bool isFiniteDomain(TermRef T) {
    std::unordered_set<TermRef> Visited;
    auto Go = [&](auto &&Self, TermRef Node) -> bool {
      if (!Visited.insert(Node).second)
        return true;
      if (!Node->type().isBool() && !Node->type().isBitVec())
        return false;
      for (TermRef C : Node->children())
        if (!Self(Self, C))
          return false;
      return true;
    };
    return Go(Go, Factory.inlineCalls(T));
  }
  bool isFiniteDomain(const ImagePredicate &P, unsigned I) {
    return isFiniteDomain(P.Guard) && isFiniteDomain(P.Outputs[I]);
  }

  /// A private solver for image queries. Finite-domain formulas run on
  /// Z3's incremental bit-blasting SAT solver ("QF_FD"), which answers a
  /// push/check/pop on a bit-vector image several times faster than the
  /// default combined solver and honours the same context timeout.
  z3::solver makeImageSolver(bool FiniteDomain) {
    z3::solver S =
        FiniteDomain ? z3::solver(ctx(), "QF_FD") : z3::solver(ctx());
    applyTimeout(effectiveTimeoutMs(TimeoutMs));
    return S;
  }

  /// Limits of the concrete walk of enumerateBvImage. They bound its cost
  /// only: the blocking loop finds whatever the walk misses, so the image
  /// does not depend on them.
  static constexpr unsigned WalkEvalBudget = 1u << 16; // inputs evaluated
  static constexpr unsigned WalkIdleCentres = 8; // centres adding nothing
  static constexpr unsigned WalkSweepWidth = 8;  // swept whole up to this

  /// Adds to \p Values (and \p Seen) values of f_I found by evaluating the
  /// image predicate on concrete inputs near \p Seed, a solver model of
  /// it, until \p Stop values are known. Only the inputs f_I reads vary:
  /// one of width <= WalkSweepWidth (or Bool) is swept over its whole
  /// domain, a wider one gets every bit flip and +-128. A value counts
  /// when the guard holds and f_I is defined. Each input that yields a new
  /// value becomes a centre, newest first, so the walk reaches
  /// combinations of several inputs before the idle rule ends it (taken
  /// oldest first, centres whose neighbours are all known end the walk
  /// early: 3-input BASE32 decoder images stopped at 210 of 256 values).
  /// The walk also stops after WalkEvalBudget evaluations or
  /// WalkIdleCentres centres in a row that add nothing. A centre's
  /// neighbours do not depend on what the walk finds, so they are
  /// evaluated on lanes (term/LaneEval.h), MaxLanes at a time, and taken in
  /// order until the walk is done. Each value found
  /// has a witness input on which the Z3 translation agrees with
  /// evaluation (the predicate is finite-domain), so it is in the image.
  void walkBvImage(const ImagePredicate &P, unsigned I,
                   std::vector<Value> Seed, uint64_t Stop,
                   std::vector<uint64_t> &Values,
                   std::unordered_set<uint64_t> &Seen) {
    std::vector<std::pair<unsigned, Type>> Varied;
    for (const auto &[Index, Ty] : varTypes(P.Outputs[I]))
      if (Index < P.NumInputs)
        Varied.emplace_back(Index, Ty);
    std::vector<std::array<uint64_t, MaxLanes>> Columns(P.NumInputs);
    std::vector<Lane> Env;
    for (unsigned In = 0; In != P.NumInputs; ++In)
      Env.push_back(Lane{Columns[In].data(), Seed[In].type()});
    std::vector<std::vector<Value>> Centres{std::move(Seed)};
    unsigned Evals = 0;
    auto Done = [&] {
      return Values.size() >= Stop || Evals >= WalkEvalBudget;
    };
    // Neighbour N of the centre differs from it in input Near[N].first,
    // which takes the raw value Near[N].second.
    std::vector<std::pair<unsigned, uint64_t>> Near;
    unsigned Idle = 0;
    while (!Centres.empty() && Idle < WalkIdleCentres && !Done()) {
      std::vector<Value> X = std::move(Centres.back());
      Centres.pop_back();
      const size_t Before = Values.size();
      Near.clear();
      for (const auto &[Index, Ty] : Varied) {
        const uint64_t Bits = X[Index].rawBits();
        if (Ty.isBool()) {
          Near.emplace_back(Index, Bits ^ 1);
        } else if (Ty.width() <= WalkSweepWidth) {
          for (uint64_t V = 0, E = uint64_t(1) << Ty.width(); V != E; ++V)
            if (V != Bits)
              Near.emplace_back(Index, V);
        } else {
          const uint64_t Mask = Value::maskOf(Ty.width());
          for (unsigned B = 0; B != Ty.width(); ++B)
            Near.emplace_back(Index, Bits ^ (uint64_t(1) << B));
          for (uint64_t Step : {uint64_t(128), uint64_t(0) - 128})
            Near.emplace_back(Index, (Bits + Step) & Mask);
        }
      }
      for (size_t Base = 0; Base < Near.size() && !Done(); Base += MaxLanes) {
        const size_t N = std::min(MaxLanes, Near.size() - Base);
        for (unsigned In = 0; In != P.NumInputs; ++In)
          Columns[In].fill(X[In].rawBits());
        for (size_t E = 0; E != N; ++E)
          Columns[Near[Base + E].first][E] = Near[Base + E].second;
        uint64_t Out[MaxLanes];
        uint64_t Hit = evalBoolLanes(P.Guard, Env, ~uint64_t(0), N);
        Hit = evalLanes(P.Outputs[I], Env, Hit, N, Out);
        TheStats.ImageInputsEvaluated += N;
        for (size_t E = 0; E != N && !Done(); ++E) {
          ++Evals;
          if (!(Hit >> E & 1) || !Seen.insert(Out[E]).second)
            continue;
          Values.push_back(Out[E]);
          ++TheStats.ImageValuesEvaluated;
          const auto &[Index, Raw] = Near[Base + E];
          Centres.push_back(X);
          Centres.back()[Index] = Value::fromRawBits(X[Index].type(), Raw);
        }
      }
      Idle = Values.size() == Before ? Idle + 1 : 0;
    }
  }

  /// Exact image by enumeration; \p Cap = 0 means the full domain (only
  /// for widths <= 9). No closed form when the image has Cap values or
  /// more. The
  /// first value is a solver model. For a finite-domain predicate
  /// walkBvImage then seeds the set from that model's input by concrete
  /// evaluation, and one conjunction blocks every seeded value. A blocking
  /// loop on the same solver finds the rest, one model per value, until
  /// Unsat or the cap. The loop runs under one push, so the backend
  /// answers each check incrementally. Which values the walk and the
  /// models meet first does not matter: the loop either exhausts the image
  /// or reaches the cap, and both outcomes depend on the image alone.
  Result<std::optional<TermRef>>
  enumerateBvImage(const ImagePredicate &P, unsigned I, unsigned Cap) {
    const unsigned Width = P.Outputs[I]->type().width();
    const bool FiniteDomain = isFiniteDomain(P, I);
    z3::expr Y = ctx().constant("img_y", ctx().bv_sort(Width));
    z3::expr Member = translate(P.Guard) && Y == translate(P.Outputs[I]);
    z3::solver S = makeImageSolver(FiniteDomain);
    S.push();
    S.add(Member);
    std::vector<uint64_t> Values;
    std::unordered_set<uint64_t> Seen;
    const uint64_t Limit = Cap == 0 ? (uint64_t(1) << Width) + 1 : Cap;
    // Once the whole domain is known there is nothing left to block.
    const uint64_t Stop =
        Width < 64 ? std::min(Limit, uint64_t(1) << Width) : Limit;
    bool Walked = !FiniteDomain;
    while (Values.size() < Stop) {
      z3::check_result CR = check(S, nullptr, /*IncrementalQuery=*/true);
      if (CR == z3::unsat)
        break;
      if (CR != z3::sat)
        return unknownStatus("image enumeration");
      z3::model M = S.get_model();
      uint64_t V = 0;
      M.eval(Y, true).is_numeral_u64(V);
      Values.push_back(V);
      Seen.insert(V);
      ++TheStats.ImageValuesSolved;
      if (Walked) {
        S.add(Y != ctx().bv_val(V, Width));
        continue;
      }
      Walked = true;
      std::vector<Type> InputTypes(P.NumInputs, Type::boolTy());
      for (TermRef T : {P.Guard, P.Outputs[I]})
        for (const auto &[Index, Ty] : varTypes(T))
          if (Index < P.NumInputs)
            InputTypes[Index] = Ty;
      walkBvImage(P, I, modelValues(M, InputTypes), Stop, Values, Seen);
      z3::expr_vector Blocked(ctx());
      for (uint64_t Known : Values)
        Blocked.push_back(Y != ctx().bv_val(Known, Width));
      S.add(z3::mk_and(Blocked));
    }
    if (Values.size() >= Limit)
      return std::optional<TermRef>();
    std::sort(Values.begin(), Values.end());
    std::vector<Interval> Runs;
    for (uint64_t V : Values) {
      if (!Runs.empty() && Runs.back().Hi + 1 == V)
        Runs.back().Hi = V;
      else
        Runs.push_back({V, V});
    }
    return std::optional<TermRef>(intervalsToTerm(Runs, Width));
  }

  /// Emits a sorted, disjoint interval union as a predicate over Var(0).
  TermRef intervalsToTerm(const std::vector<Interval> &Merged,
                          unsigned Width) {
    const uint64_t Max = Value::maskOf(Width);
    TermRef V = Factory.mkVar(0, Type::bitVecTy(Width));
    std::vector<TermRef> Disjuncts;
    for (const Interval &Iv : Merged) {
      if (Iv.Lo == Iv.Hi) {
        Disjuncts.push_back(Factory.mkEq(V, Factory.mkBv(Iv.Lo, Width)));
        continue;
      }
      std::vector<TermRef> Bounds;
      if (Iv.Lo != 0)
        Bounds.push_back(
            Factory.mkBvOp(Op::BvUge, V, Factory.mkBv(Iv.Lo, Width)));
      if (Iv.Hi != Max)
        Bounds.push_back(
            Factory.mkBvOp(Op::BvUle, V, Factory.mkBv(Iv.Hi, Width)));
      Disjuncts.push_back(Factory.mkAnd(std::move(Bounds)));
    }
    return Factory.mkOr(std::move(Disjuncts));
  }

};

// ---------------------------------------------------------------------------
// Public forwarding layer: every method catches z3::exception and converts it
// into a Status, keeping the no-exceptions discipline for callers.
// ---------------------------------------------------------------------------

Solver::Solver(TermFactory &Factory)
    : TheImpl(std::make_unique<Impl>(Factory)) {}

Solver::~Solver() = default;

void Solver::releaseBackend() { TheImpl->dropBackend(); }

bool Solver::hasBackend() const { return TheImpl->Backend != nullptr; }

int64_t Solver::liveBackendContexts() {
  return LiveBackends.load(std::memory_order_relaxed);
}

void Solver::setTimeoutMs(unsigned Milliseconds) {
  TheImpl->TimeoutMs = Milliseconds;
}

unsigned Solver::timeoutMs() const { return TheImpl->TimeoutMs; }

void Solver::setControl(const SolverControl &Control) {
  TheImpl->Control = Control;
}

const SolverControl &Solver::control() const { return TheImpl->Control; }

const CancellationToken &Solver::cancellation() const {
  return TheImpl->Control.Cancel;
}

Status Solver::unknownStatus(const std::string &What) const {
  return TheImpl->unknownStatus(What);
}

SatResult Solver::checkSat(TermRef Formula) {
  // isValid and equivalentUnder funnel through here (as sat-of-negation),
  // so this one table memoizes all three entry points.
  if (const SatResult *Cached = TheImpl->SatCache.find(Formula))
    return *Cached;
  SatResult R;
  try {
    R = TheImpl->checkExpr(TheImpl->translate(Formula));
  } catch (const z3::exception &) {
    R = SatResult::Unknown;
  }
  if (R != SatResult::Unknown)
    TheImpl->SatCache.insert(Formula, R);
  return R;
}

void Solver::push() { TheImpl->pushScope(); }

void Solver::pop() { TheImpl->popScope(); }

unsigned Solver::scopeDepth() const {
  return static_cast<unsigned>(TheImpl->Scopes.size() - 1);
}

void Solver::assertFormula(TermRef Formula) {
  TheImpl->assertScoped(Formula);
}

SatResult Solver::checkSatAssuming(const std::vector<TermRef> &Assumptions,
                                   TermRef Formula) {
  return TheImpl->checkSatAssumingInc(Assumptions, Formula);
}

Result<std::optional<std::vector<Value>>>
Solver::modelAssuming(const std::vector<TermRef> &Assumptions,
                      const std::vector<Type> &VarTypes) {
  return TheImpl->modelAssumingInc(Assumptions, VarTypes);
}

std::vector<SatResult>
Solver::checkSatBatch(const std::vector<TermRef> &Formulas) {
  Impl &I = *TheImpl;
  std::vector<SatResult> Out(Formulas.size(), SatResult::Unknown);
  std::vector<size_t> Pending;
  for (size_t K = 0; K != Formulas.size(); ++K) {
    if (const SatResult *Cached = I.SatCache.find(Formulas[K]))
      Out[K] = *Cached;
    else
      Pending.push_back(K);
  }
  if (Pending.empty())
    return Out;
  if (Pending.size() < 2) {
    for (size_t K : Pending)
      Out[K] = checkSat(Formulas[K]);
    return Out;
  }
  ++I.TheStats.AssumptionBatches;
  I.TheStats.AssumptionLiterals += Pending.size();
  std::vector<bool> Resolved(Pending.size(), false);
  try {
    I.checkSatBatchImpl(Formulas, Pending, Out, Resolved);
  } catch (const z3::exception &) {
    // Batch solver died (injected fault, backend hiccup); the per-formula
    // fallback below settles whatever is left.
  }
  for (size_t J = 0; J != Pending.size(); ++J)
    if (!Resolved[J])
      Out[Pending[J]] = checkSat(Formulas[Pending[J]]);
  return Out;
}

void Solver::setSatCacheCapacity(size_t MaxEntries) {
  TheImpl->SatCache.setCapacity(MaxEntries);
  // Model and projection entries are whole value vectors / terms, so their
  // tables follow the sat cap from below.
  size_t Heavy = std::min<size_t>(MaxEntries, 1u << 16);
  TheImpl->ModelCache.setCapacity(Heavy);
  TheImpl->ProjCache.setCapacity(Heavy);
}

size_t Solver::satCacheCapacity() const {
  return TheImpl->SatCache.capacity();
}

Result<bool> Solver::isSat(TermRef Formula) {
  switch (checkSat(Formula)) {
  case SatResult::Sat:
    return true;
  case SatResult::Unsat:
    return false;
  default:
    return TheImpl->unknownStatus("isSat of " + printTerm(Formula));
  }
}

Result<bool> Solver::isValid(TermRef Formula) {
  Result<bool> NegSat = isSat(TheImpl->Factory.mkNot(Formula));
  if (!NegSat)
    return NegSat;
  return !*NegSat;
}

Result<std::vector<Value>>
Solver::getModel(TermRef Formula, const std::vector<Type> &VarTypes) {
  // Each model query runs on a fresh z3 solver, so the answer depends only
  // on (formula, requested types) and successful answers are memoizable.
  ModelKey Key{Formula, VarTypes};
  if (const std::vector<Value> *Cached = TheImpl->ModelCache.find(Key))
    return *Cached;
  try {
    z3::solver S = TheImpl->makeSolver();
    S.add(TheImpl->translate(Formula));
    z3::check_result R = TheImpl->check(S);
    if (R == z3::unsat)
      return Status::error("getModel: formula is unsatisfiable");
    if (R != z3::sat)
      return TheImpl->unknownStatus("getModel");
    std::vector<Value> Values =
        TheImpl->modelValues(S.get_model(), VarTypes);
    TheImpl->ModelCache.insert(Key, Values);
    return Values;
  } catch (const z3::exception &Ex) {
    return Status::solverError(std::string("getModel: ") + Ex.msg());
  }
}

Result<bool> Solver::equivalentUnder(TermRef Guard, TermRef F, TermRef G) {
  TermFactory &Factory = TheImpl->Factory;
  assert(F->type() == G->type() && "equivalence over mismatched types");
  TermRef Same = F->type().isBool() ? Factory.mkIff(F, G) : Factory.mkEq(F, G);
  return isValid(Factory.mkImplies(Guard, Same));
}

Result<TermRef> Solver::eliminateExists(TermRef Phi, unsigned NumEliminate) {
  try {
    return TheImpl->eliminateExists(Phi, NumEliminate);
  } catch (const z3::exception &Ex) {
    return Status::solverError(std::string("eliminateExists: ") + Ex.msg());
  }
}

Result<std::optional<TermRef>> Solver::project(const ImagePredicate &P,
                                               unsigned I) {
  try {
    return TheImpl->project(P, I);
  } catch (const z3::exception &Ex) {
    return Status::solverError(std::string("project: ") + Ex.msg());
  }
}

const std::optional<TermRef> *
Solver::cachedProjection(const ImagePredicate &P, unsigned I) {
  return TheImpl->ProjCache.find(ProjKey{P.Guard, P.Outputs, P.NumInputs, I});
}

void Solver::recordProjection(const ImagePredicate &P, unsigned I,
                              std::optional<TermRef> Psi) {
  TheImpl->ProjCache.insert(ProjKey{P.Guard, P.Outputs, P.NumInputs, I}, Psi);
}

const Solver::Stats &Solver::stats() const {
  // The cache counters live inside the QueryCache instances; mirror them
  // into the Stats snapshot on read so callers see one flat struct.
  Stats &S = TheImpl->TheStats;
  S.CacheHits = TheImpl->SatCache.hits();
  S.CacheMisses = TheImpl->SatCache.misses();
  S.CacheEvictions = TheImpl->SatCache.evictions();
  S.ModelCacheHits = TheImpl->ModelCache.hits();
  S.ModelCacheMisses = TheImpl->ModelCache.misses();
  S.ModelCacheEvictions = TheImpl->ModelCache.evictions();
  S.ProjCacheHits = TheImpl->ProjCache.hits();
  S.ProjCacheMisses = TheImpl->ProjCache.misses();
  S.ProjCacheEvictions = TheImpl->ProjCache.evictions();
  return S;
}

void Solver::drainStats() {
  Impl &I = *TheImpl;
  if (MetricsRegistry *R = I.Control.Metrics) {
    recordSolverStats(*R, I.Control.Kind, stats());
  }
  I.TheStats = Stats();
  I.SatCache.resetCounters();
  I.ModelCache.resetCounters();
  I.ProjCache.resetCounters();
}

TermFactory &Solver::factory() { return TheImpl->Factory; }
