//===- engine/ProgramPool.cpp ---------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "engine/ProgramPool.h"

#include <algorithm>

using namespace genic;

ProgramPool::Entry::Entry(std::optional<unsigned> SolverTimeoutMs)
    // 20000 is SolverContext's own default per-query timeout; SolverContext
    // is fork-constructible but not movable, so the default is restated
    // here instead of delegating to the defaulted constructor.
    : Ctx(SolverTimeoutMs.value_or(20000)) {}

uint64_t ProgramPool::hashSource(const std::string &Source) {
  uint64_t H = 1469598103934665603ull; // FNV-1a offset basis.
  for (unsigned char C : Source) {
    H ^= C;
    H *= 1099511628211ull; // FNV prime.
  }
  return H;
}

ProgramPool::Checkout ProgramPool::acquire(const std::string &Source) {
  uint64_t Key = hashSource(Source);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Entries.find(Key);
    if (It != Entries.end()) {
      std::unique_lock<std::mutex> EntryLock(It->second->InUse,
                                             std::try_to_lock);
      if (EntryLock.owns_lock()) {
        ++TheStats.Hits;
        LastUse[Key] = ++Tick;
        Checkout C;
        C.E = It->second;
        C.Lock = std::move(EntryLock);
        C.Warm = C.E->Lowered.has_value();
        C.Pooled = true;
        return C;
      }
      // The resident entry is mid-request: serve this request cold rather
      // than blocking or sharing solver state across requests.
      ++TheStats.BusyMisses;
    } else {
      ++TheStats.Misses;
    }
  }
  Checkout C;
  C.E = std::make_shared<Entry>(SolverTimeoutMs);
  C.E->Key = Key;
  C.Lock = std::unique_lock<std::mutex>(C.E->InUse);
  return C;
}

void ProgramPool::publish(const std::string &Source, Checkout &C) {
  if (Capacity == 0 || !C.E)
    return;
  uint64_t Key = hashSource(Source);
  std::lock_guard<std::mutex> Lock(Mu);
  if (C.Pooled) {
    LastUse[Key] = ++Tick;
    return;
  }
  // A concurrent request may have published its own entry for this source
  // meanwhile (both started cold). Keep the registered one; this checkout
  // stays transient and dies with its last response reference.
  if (Entries.count(Key))
    return;
  while (Entries.size() >= Capacity) {
    uint64_t OldestKey = 0;
    uint64_t OldestTick = ~0ull;
    for (const auto &[K, E] : Entries) {
      // Only idle entries are evictable; a checked-out entry belongs to a
      // live request.
      std::unique_lock<std::mutex> Idle(E->InUse, std::try_to_lock);
      if (!Idle.owns_lock())
        continue;
      auto At = LastUse.find(K);
      uint64_t T = At == LastUse.end() ? 0 : At->second;
      if (T < OldestTick) {
        OldestTick = T;
        OldestKey = K;
      }
    }
    if (OldestTick == ~0ull)
      return; // Everything is busy; skip registration this time.
    Entries.erase(OldestKey);
    LastUse.erase(OldestKey);
    ++TheStats.Evictions;
  }
  Entries[Key] = C.E;
  LastUse[Key] = ++Tick;
  C.Pooled = true;
}

ProgramPool::Stats ProgramPool::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return TheStats;
}

size_t ProgramPool::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries.size();
}

std::vector<ProgramPool::EntryInfo> ProgramPool::describe() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<EntryInfo> Out;
  Out.reserve(Entries.size());
  for (const auto &[Key, E] : Entries) {
    EntryInfo Info;
    Info.Key = Key;
    Info.Runs = E->Runs.load(std::memory_order_relaxed);
    auto At = LastUse.find(Key);
    Info.IdleTicks = At == LastUse.end() ? Tick : Tick - At->second;
    // try_lock doubles as the busy probe; holding the lock also makes the
    // Lowered read race-free for idle entries. A busy entry is warm by the
    // publication invariant (only lowered programs are registered).
    std::unique_lock<std::mutex> Idle(E->InUse, std::try_to_lock);
    if (Idle.owns_lock()) {
      Info.Busy = false;
      Info.Warm = E->Lowered.has_value();
    } else {
      Info.Busy = true;
      Info.Warm = true;
    }
    Out.push_back(Info);
  }
  std::sort(Out.begin(), Out.end(),
            [](const EntryInfo &A, const EntryInfo &B) { return A.Key < B.Key; });
  return Out;
}
