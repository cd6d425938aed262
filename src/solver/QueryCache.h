//===- solver/QueryCache.h - Bounded memo tables for solver queries -------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One eviction policy for every solver-side memo table. A QueryCache is a
/// bounded map with generation-clear eviction: when an insertion would
/// exceed the capacity the whole table is dropped and the number of dropped
/// entries is counted as evictions. Generation clears are chosen over LRU
/// because the keys are hash-consed pointers and the hit distribution is
/// bursty — a pipeline phase re-queries the same formulas, then moves on —
/// so recency tracking buys nothing over periodic resets. checkSat, model,
/// and projection memoization in Solver all sit on this template.
///
/// GuardOverlapCache is the thread-safe sibling used by the ambiguity
/// product search: one instance is shared by every worker thread and BFS
/// level of an injectivity check, so no (guard, guard) product query is
/// discharged twice.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SOLVER_QUERYCACHE_H
#define GENIC_SOLVER_QUERYCACHE_H

#include "support/Trace.h"
#include "term/Term.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace genic {

/// Bounded memo table with generation-clear eviction and hit/miss/eviction
/// counters. Not thread-safe — each Solver owns its own instances.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class QueryCache {
public:
  /// \p TraceName, when given (a static string literal), labels the
  /// generation-clear instant events this cache emits into the trace.
  explicit QueryCache(size_t Capacity, const char *TraceName = nullptr)
      : Cap(Capacity), TraceName(TraceName) {}

  /// Memoized value for \p K, or null. Counts a hit or a miss.
  const Value *find(const Key &K) {
    auto It = Map.find(K);
    if (It == Map.end()) {
      ++TheMisses;
      return nullptr;
    }
    ++TheHits;
    return &It->second;
  }

  /// Records \p K -> \p V, generation-clearing first when full. A capacity
  /// of 0 disables the cache entirely (nothing is stored, nothing evicted).
  void insert(const Key &K, Value V) {
    if (Cap == 0)
      return;
    if (Map.size() >= Cap) {
      TheEvictions += Map.size();
      traceClear(Map.size());
      Map.clear();
    }
    Map.emplace(K, std::move(V));
  }

  /// Changes the capacity; shrinking below the current size clears the
  /// table (counted as evictions), matching the insertion-time policy.
  void setCapacity(size_t MaxEntries) {
    Cap = MaxEntries;
    if (Map.size() > Cap) {
      TheEvictions += Map.size();
      traceClear(Map.size());
      Map.clear();
    }
  }
  size_t capacity() const { return Cap; }
  size_t size() const { return Map.size(); }

  uint64_t hits() const { return TheHits; }
  uint64_t misses() const { return TheMisses; }
  uint64_t evictions() const { return TheEvictions; }
  /// Zeroes the counters; the memoized entries stay.
  void resetCounters() { TheHits = TheMisses = TheEvictions = 0; }

private:
  /// Announces a generation clear in the trace. Evictions are rare (a full
  /// table) so this stays off the lookup hot path entirely.
  void traceClear(size_t Dropped) {
    if (TraceName)
      TraceRecorder::global().instant("cache.evict", TraceName, "dropped",
                                      static_cast<int64_t>(Dropped));
  }

  std::unordered_map<Key, Value, Hash> Map;
  size_t Cap;
  const char *TraceName = nullptr;
  uint64_t TheHits = 0;
  uint64_t TheMisses = 0;
  uint64_t TheEvictions = 0;
};

/// Satisfiability verdicts for guard-pair overlaps, shared across threads
/// and BFS levels. Keys are TermRefs of the factory the automaton
/// lives in (hash-consed, so stable for the whole injectivity check); the
/// ordered map keeps iteration deterministic for debugging. All operations
/// take the internal mutex — contention is negligible next to the SMT calls
/// the cache avoids.
class GuardOverlapCache {
public:
  std::optional<bool> lookup(TermRef A, TermRef B) {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Table.find({A, B});
    if (It == Table.end()) {
      ++TheMisses;
      return std::nullopt;
    }
    ++TheHits;
    return It->second;
  }

  void record(TermRef A, TermRef B, bool Sat) {
    std::lock_guard<std::mutex> Lock(M);
    Table.emplace(std::make_pair(A, B), Sat);
  }

  uint64_t hits() const {
    std::lock_guard<std::mutex> Lock(M);
    return TheHits;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> Lock(M);
    return TheMisses;
  }
  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Table.size();
  }

private:
  mutable std::mutex M;
  std::map<std::pair<TermRef, TermRef>, bool> Table;
  uint64_t TheHits = 0;
  uint64_t TheMisses = 0;
};

} // namespace genic

#endif // GENIC_SOLVER_QUERYCACHE_H
