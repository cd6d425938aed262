//===- solver/SolverSessionPool.cpp ----------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "solver/SolverSessionPool.h"

#include "support/Trace.h"

using namespace genic;

SolverSessionPool::Lease SolverSessionPool::lease() {
  std::lock_guard<std::mutex> Lock(M);
  ++TheStats.Leases;
  if (!Free.empty()) {
    Session *S = Free.back();
    Free.pop_back();
    TraceRecorder::global().instant("pool.lease", "session", "reused", 1);
    return Lease(this, S);
  }
  ++TheStats.Created;
  TraceRecorder::global().instant("pool.lease", "session", "reused", 0);
  All.push_back(Prefix ? std::make_unique<Session>(*Prefix, TimeoutMs)
                       : std::make_unique<Session>(TimeoutMs));
  All.back()->Slv.setControl(Ctl);
  return Lease(this, All.back().get());
}

void SolverSessionPool::rearm(const Solver &Like) {
  std::lock_guard<std::mutex> Lock(M);
  TimeoutMs = Like.timeoutMs();
  Ctl = Like.control();
  Ctl.WorkerSession = true;
  Ctl.Kind = SolverSessionKind::Pooled;
  for (auto &S : All) {
    S->Slv.setTimeoutMs(TimeoutMs);
    S->Slv.setControl(Ctl);
  }
}

void SolverSessionPool::release(Session *S) {
  std::lock_guard<std::mutex> Lock(M);
  Free.push_back(S);
}

size_t SolverSessionPool::outstandingLeases() const {
  std::lock_guard<std::mutex> Lock(M);
  return All.size() - Free.size();
}

SolverSessionPool::Stats SolverSessionPool::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return TheStats;
}

unsigned SolverSessionPool::sessions() const {
  std::lock_guard<std::mutex> Lock(M);
  return static_cast<unsigned>(All.size());
}

void SolverSessionPool::drainStats() {
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &S : All)
    S->Slv.drainStats();
}
