//===- solver/SolverSessionPool.h - Leasable warm solver sessions ---------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pool of private TermFactory+Solver sessions for parallel decision
/// procedures. TermFactory and Solver are not thread-safe, so parallel
/// checkers give each worker task its own session; creating one per task
/// would re-clone every shared guard and re-warm the SMT context each time.
/// The pool instead leases sessions: a task borrows one, runs its queries,
/// and returns it, so a later task (often processing the same transitions
/// or the next BFS level) reuses the session's memoized cloner, checkSat
/// memo, and warm Z3 context.
///
/// Determinism contract: because mkAnd/mkOr canonicalize children by
/// interning order, a reused session's *term structure* depends on which
/// tasks it served before — which is scheduling-dependent. Pooled sessions
/// must therefore only export plain data (booleans, values, indices) back
/// to the caller, never terms. Parallel stages whose results are terms
/// (e.g. the per-position projections of buildOutputAutomaton) use a fresh
/// session per task instead, whose history is a pure function of the task's
/// inputs.
///
/// lease() and Lease destruction are thread-safe; everything inside a
/// leased Session is exclusive to the holder until release.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SOLVER_SOLVERSESSIONPOOL_H
#define GENIC_SOLVER_SOLVERSESSIONPOOL_H

#include "solver/Solver.h"
#include "solver/SolverContext.h"
#include "term/TermClone.h"
#include "term/TermFactory.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace genic {

class SolverSessionPool {
public:
  /// One private session, backed by a SolverContext. Import clones
  /// shared-factory terms into Factory and is memoized across leases, so
  /// re-importing a guard a previous task already used is a hash lookup —
  /// and when the pool is in fork mode (constructed over a frozen prefix
  /// factory) importing a prefix term is the identity, no lookup at all.
  struct Session {
    SolverContext Ctx;
    TermFactory &Factory;
    Solver &Slv;
    TermCloner &Import;

    explicit Session(unsigned TimeoutMs)
        : Ctx(TimeoutMs), Factory(Ctx.factory()), Slv(Ctx.solver()),
          Import(Ctx.importer()) {}
    Session(const TermFactory &FrozenPrefix, unsigned TimeoutMs)
        : Ctx(FrozenPrefix, TimeoutMs), Factory(Ctx.factory()),
          Slv(Ctx.solver()), Import(Ctx.importer()) {}
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;
  };

  /// RAII borrow of one session; returns it to the pool on destruction.
  class Lease {
  public:
    Lease(Lease &&O) noexcept : Pool(O.Pool), S(O.S) {
      O.Pool = nullptr;
      O.S = nullptr;
    }
    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;
    Lease &operator=(Lease &&) = delete;
    ~Lease() {
      if (Pool)
        Pool->release(S);
    }

    Session &operator*() const { return *S; }
    Session *operator->() const { return S; }

  private:
    friend class SolverSessionPool;
    Lease(SolverSessionPool *Pool, Session *S) : Pool(Pool), S(S) {}
    SolverSessionPool *Pool;
    Session *S;
  };

  /// Sessions are created lazily with this per-query timeout, each with a
  /// fresh root factory.
  explicit SolverSessionPool(unsigned TimeoutMs) : TimeoutMs(TimeoutMs) {}

  /// Like above, but inherits both the timeout and the robustness control
  /// (cancellation token, fault plan) of \p Like; pooled sessions are
  /// marked as worker sessions for fault-plan scoping and tagged Pooled in
  /// the query-latency histograms.
  explicit SolverSessionPool(const Solver &Like)
      : TimeoutMs(Like.timeoutMs()), Ctl(Like.control()) {
    Ctl.WorkerSession = true;
    Ctl.Kind = SolverSessionKind::Pooled;
  }

  /// Fork mode: sessions are copy-on-write forks of \p FrozenPrefix, so
  /// every term the shared factory holds at session-creation time is
  /// importable for free. The prefix factory must outlive the pool and be
  /// quiescent whenever leased sessions run on other threads (the
  /// level-synchronized checkers guarantee this: workers run only while the
  /// coordinating thread blocks on the pool barrier). The data-only export
  /// contract above is unchanged.
  SolverSessionPool(const TermFactory &FrozenPrefix, unsigned TimeoutMs)
      : TimeoutMs(TimeoutMs), Prefix(&FrozenPrefix) {}

  /// Fork mode inheriting \p Like's timeout and robustness control.
  SolverSessionPool(const TermFactory &FrozenPrefix, const Solver &Like)
      : TimeoutMs(Like.timeoutMs()), Prefix(&FrozenPrefix),
        Ctl(Like.control()) {
    Ctl.WorkerSession = true;
    Ctl.Kind = SolverSessionKind::Pooled;
  }

  /// Borrows a free session, creating one if none is available. Thread-safe.
  Lease lease();

  /// Re-arms the pool for a new request: future and already-created
  /// sessions get \p Like's current robustness control (cancellation
  /// token, fault plan, metrics sink), worker-marked like the inheriting
  /// constructors. This is what lets a pool outlive one request — a warm
  /// engine entry keeps its sessions (and their memo caches) resident and
  /// re-arms them per request. Callable only while no lease is
  /// outstanding.
  void rearm(const Solver &Like);

  /// Number of sessions currently leased out. Thread-safe; used by the
  /// RAII-accounting assertions (must be 0 whenever a phase has joined all
  /// its workers, on success and on every error path).
  size_t outstandingLeases() const;

  struct Stats {
    uint64_t Created = 0; ///< sessions constructed
    uint64_t Leases = 0;  ///< total lease() calls
    /// Leases served by an already-warm session.
    uint64_t reuses() const { return Leases - Created; }
  };
  Stats stats() const;

  /// Number of sessions ever created.
  unsigned sessions() const;

  /// Drains every session's solver counters into its control's registry
  /// (see Solver::drainStats). Callable only while no lease is outstanding.
  void drainStats();

private:
  void release(Session *S);

  unsigned TimeoutMs;
  const TermFactory *Prefix = nullptr;
  /// Control installed on every created session (worker-marked).
  SolverControl Ctl;
  mutable std::mutex M;
  std::vector<std::unique_ptr<Session>> All;
  std::vector<Session *> Free;
  Stats TheStats;
};

} // namespace genic

#endif // GENIC_SOLVER_SOLVERSESSIONPOOL_H
