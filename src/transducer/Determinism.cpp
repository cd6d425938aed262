//===- transducer/Determinism.cpp ------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "transducer/Determinism.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

using namespace genic;

namespace {

/// The conjunction phi /\ phi' of Definition 3.7: predicates of different
/// arities are conjoined over the shared variable prefix (§3.3's lifting to
/// sigma^max(m,n)); terms already share variable indices, so this is mkAnd.
TermRef overlapGuard(TermFactory &F, const SeftTransition &A,
                     const SeftTransition &B) {
  return F.mkAnd(A.Guard, B.Guard);
}

/// Definition 3.7 on one rule pair: the reason string when the pair
/// violates determinism, std::nullopt when the overlap is harmless. Verdict
/// only — witness models are extracted separately, so parallel workers can
/// run this against private sessions (pooled sessions must not export
/// terms, see SolverSessionPool.h) and only the winning pair re-queries the
/// shared session.
Result<std::optional<std::string>> pairViolation(Solver &S,
                                                 const SeftTransition &TA,
                                                 const SeftTransition &TB) {
  TermFactory &F = S.factory();
  bool FinalA = TA.To == Seft::FinalState;
  bool FinalB = TB.To == Seft::FinalState;

  // Case (c): one rule continues, the other finalizes. Overlap is only
  // harmless when the continuing rule looks further than the finalizer
  // (then no input length allows both to fire).
  if (FinalA != FinalB) {
    const SeftTransition &Continue = FinalA ? TB : TA;
    const SeftTransition &Finish = FinalA ? TA : TB;
    if (Continue.Lookahead > Finish.Lookahead)
      return std::optional<std::string>(std::nullopt);
    Result<bool> Sat = S.isSat(overlapGuard(F, TA, TB));
    if (!Sat)
      return Sat.status();
    if (!*Sat)
      return std::optional<std::string>(std::nullopt);
    return std::optional<std::string>(
        "a continuing rule with lookahead <= a finalizer's "
        "lookahead overlaps with it (Def. 3.7(c))");
  }

  // Case (b): two finalizers of different lookahead never compete (they
  // apply at different remaining lengths).
  if (FinalA && FinalB && TA.Lookahead != TB.Lookahead)
    return std::optional<std::string>(std::nullopt);

  Result<bool> Sat = S.isSat(overlapGuard(F, TA, TB));
  if (!Sat)
    return Sat.status();
  if (!*Sat)
    return std::optional<std::string>(std::nullopt);

  // Case (a): two continuing rules that overlap must be the same rule in
  // disguise: same target, same lookahead, equivalent outputs.
  if (!FinalA) {
    if (TA.To != TB.To)
      return std::optional<std::string>(
          "overlapping rules continue to different states");
    if (TA.Lookahead != TB.Lookahead)
      return std::optional<std::string>(
          "overlapping rules have different lookaheads");
  }
  // Shared for (a) and (b): outputs must agree where both fire.
  if (TA.Outputs.size() != TB.Outputs.size())
    return std::optional<std::string>(
        "overlapping rules produce different output lengths");
  TermRef Overlap = overlapGuard(F, TA, TB);
  for (size_t I = 0, E = TA.Outputs.size(); I != E; ++I) {
    Result<bool> Same = S.equivalentUnder(Overlap, TA.Outputs[I],
                                          TB.Outputs[I]);
    if (!Same)
      return Same.status();
    if (!*Same)
      return std::optional<std::string>(
          "overlapping rules disagree on output " + std::to_string(I));
  }
  return std::optional<std::string>(std::nullopt);
}

Result<std::optional<DeterminismViolation>>
checkPair(Solver &S, const Seft &A, unsigned IA, unsigned IB) {
  const SeftTransition &TA = A.transitions()[IA];
  const SeftTransition &TB = A.transitions()[IB];
  Result<std::optional<std::string>> V = pairViolation(S, TA, TB);
  if (!V)
    return V.status();
  if (!V->has_value())
    return std::optional<DeterminismViolation>(std::nullopt);
  unsigned N = std::max(TA.Lookahead, TB.Lookahead);
  std::vector<Type> Types(N, A.inputType());
  Result<std::vector<Value>> M =
      S.getModel(overlapGuard(S.factory(), TA, TB), Types);
  if (!M)
    return M.status();
  return std::optional<DeterminismViolation>(
      DeterminismViolation{IA, IB, *M, **V});
}

/// Clones a rule's terms into a worker session; From/To/Lookahead carry
/// over. The session cloner is memoized, so a rule is imported once per
/// session no matter how many pairs mention it.
SeftTransition importTransition(TermCloner &Import, const SeftTransition &T) {
  SeftTransition Out;
  Out.From = T.From;
  Out.To = T.To;
  Out.Lookahead = T.Lookahead;
  Out.Guard = Import.clone(T.Guard);
  Out.Outputs.reserve(T.Outputs.size());
  for (TermRef O : T.Outputs)
    Out.Outputs.push_back(Import.clone(O));
  return Out;
}

/// One chunk of the pair scan: leases a session, primes the chunk's
/// overlap-guard batch, and walks the pairs until the first event
/// (violation or solver error). \p Cutoff, when present, lets sibling
/// chunks prune each other; a null cutoff (the out-of-process shard path)
/// only costs skipped pruning, never changes which index is returned as a
/// chunk's first event.
size_t scanPairRange(const Seft &A,
                     const std::vector<std::pair<unsigned, unsigned>> &Pairs,
                     size_t Begin, size_t End, SolverSessionPool &Pool,
                     std::atomic<size_t> *Cutoff) {
  const auto &Ts = A.transitions();
  MetricsPhaseScope WorkerPhase("determinism");
  SolverSessionPool::Lease Sess = Pool.lease();
  // Coalesce the chunk's overlap-guard queries into one selector-
  // literal batch so the pair scan below answers from the session's
  // sat memo. Pairs the Definition 3.7 shortcuts never query are
  // skipped; Unknowns fall back to the scan's individual queries, so
  // verdicts are unchanged.
  std::vector<TermRef> Queries;
  std::unordered_set<TermRef> InBatch;
  for (size_t K = Begin; K != End; ++K) {
    const SeftTransition &TA0 = Ts[Pairs[K].first];
    const SeftTransition &TB0 = Ts[Pairs[K].second];
    bool FinalA = TA0.To == Seft::FinalState;
    bool FinalB = TB0.To == Seft::FinalState;
    if (FinalA != FinalB) {
      const SeftTransition &Continue = FinalA ? TB0 : TA0;
      const SeftTransition &Finish = FinalA ? TA0 : TB0;
      if (Continue.Lookahead > Finish.Lookahead)
        continue;
    } else if (FinalA && FinalB && TA0.Lookahead != TB0.Lookahead) {
      continue;
    }
    TermRef Q = Sess->Factory.mkAnd(Sess->Import.clone(TA0.Guard),
                                    Sess->Import.clone(TB0.Guard));
    if (InBatch.insert(Q).second)
      Queries.push_back(Q);
  }
  if (Queries.size() > 1)
    Sess->Slv.checkSatBatch(Queries);
  for (size_t K = Begin; K != End; ++K) {
    if (Cutoff && K > Cutoff->load(std::memory_order_relaxed))
      continue;
    SeftTransition TA = importTransition(Sess->Import, Ts[Pairs[K].first]);
    SeftTransition TB = importTransition(Sess->Import, Ts[Pairs[K].second]);
    Result<std::optional<std::string>> V = pairViolation(Sess->Slv, TA, TB);
    if (V && !V->has_value())
      continue;
    if (Cutoff) {
      size_t Cur = Cutoff->load(std::memory_order_relaxed);
      while (K < Cur && !Cutoff->compare_exchange_weak(
                            Cur, K, std::memory_order_relaxed)) {
      }
    }
    return K;
  }
  return SIZE_MAX;
}

} // namespace

std::vector<std::pair<unsigned, unsigned>>
genic::determinismPairList(const Seft &A) {
  const auto &Ts = A.transitions();
  std::vector<std::pair<unsigned, unsigned>> PairList;
  for (unsigned I = 0, E = Ts.size(); I != E; ++I)
    for (unsigned J = I + 1; J != E; ++J)
      if (Ts[I].From == Ts[J].From)
        PairList.push_back({I, J});
  return PairList;
}

size_t genic::scanDeterminismShard(
    const Seft &A, const std::vector<std::pair<unsigned, unsigned>> &Pairs,
    SolverSessionPool &Pool, size_t Begin, size_t End) {
  return scanPairRange(A, Pairs, Begin, End, Pool, nullptr);
}

Result<std::optional<DeterminismViolation>>
genic::checkDeterminism(const Seft &A, Solver &S) {
  const auto &Ts = A.transitions();
  for (unsigned I = 0, E = Ts.size(); I != E; ++I)
    for (unsigned J = I + 1; J != E; ++J) {
      if (Ts[I].From != Ts[J].From)
        continue;
      Result<std::optional<DeterminismViolation>> R = checkPair(S, A, I, J);
      if (!R)
        return R;
      if (R->has_value())
        return R;
    }
  return std::optional<DeterminismViolation>(std::nullopt);
}

Result<std::optional<DeterminismViolation>>
genic::checkDeterminism(const Seft &A, Solver &S,
                        const DeterminismOptions &Opts) {
  MetricsPhaseScope Phase("determinism");
  std::vector<std::pair<unsigned, unsigned>> PairList =
      determinismPairList(A);
  if (PairList.empty())
    return std::optional<DeterminismViolation>(std::nullopt);
  if (S.cancellation().cancelled())
    return Status::cancelled("determinism check: global deadline exhausted");

  SolverSessionPool LocalPool(S);
  SolverSessionPool &Pool = Opts.Sessions ? *Opts.Sessions : LocalPool;

  // Chunks of the lexicographic pair list are scanned against pooled
  // sessions or shipped to worker processes, recording only the first pair
  // index with an event (violation or solver error). The verdicts are
  // semantic, so the global minimum is the exact pair the serial loop would
  // have stopped at, however the list was chunked; its full result —
  // witness model included — is then recomputed in the shared session,
  // making the output independent of Jobs and worker counts. In-process
  // chunks skip pairs past the earliest event known so far: the cutoff only
  // ever decreases toward the true minimum, so no pair below it is skipped.
  TraceSpan ScanSpan("determinism.scan");
  ScanSpan.arg("pairs", static_cast<int64_t>(PairList.size()));
  std::atomic<size_t> Cutoff{SIZE_MAX};
  Result<std::vector<uint64_t>> Events = runShardChunks<uint64_t>(
      "determinism", PairList.size(), Opts.Jobs, Opts.Workers, ScanSpan,
      [&](size_t Begin, size_t End, ShardDispatcher *W) -> Result<uint64_t> {
        if (W)
          return W->determinismShard(Begin, End);
        return scanPairRange(A, PairList, Begin, End, Pool, &Cutoff);
      });
  if (!Events)
    return Events.status();
  size_t Min = *std::min_element(Events->begin(), Events->end());
  if (Min == SIZE_MAX)
    return std::optional<DeterminismViolation>(std::nullopt);
  // Recompute from the event onward in the shared session. Normally the
  // first iteration reproduces the worker's verdict and returns; if the
  // shared session answers differently (a timeout flapped), the serial scan
  // simply continues, which is still a correct — just slower — result.
  for (size_t K = Min; K != PairList.size(); ++K) {
    Result<std::optional<DeterminismViolation>> R =
        checkPair(S, A, PairList[K].first, PairList[K].second);
    if (!R)
      return R;
    if (R->has_value())
      return R;
  }
  return std::optional<DeterminismViolation>(std::nullopt);
}
