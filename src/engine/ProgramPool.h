//===- engine/ProgramPool.h - Warm program state across requests ----------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident service's warm pool: per-program state that survives one
/// request and accelerates the next one on the same source. Each entry owns
///
///   * a root SolverContext whose term factory holds the program's lowered
///     terms (hash-consed, so re-running phases re-derives identical term
///     pointers and hits the solver's sat/model/projection memo caches),
///   * the parsed-and-lowered program itself (parse and lowering are
///     skipped entirely on a warm hit),
///   * the shared engine's completed enumeration banks, released by the
///     previous request's SygusEngine and adopted by the next one.
///
/// Entries are keyed by a hash of the canonical program source and checked
/// out exclusively: a request holds an entry for its whole run, and a
/// concurrent request for the same program takes a transient cold entry
/// instead of blocking (BusyMisses counts those). This keeps per-request
/// isolation trivial — deadlines, fault plans, and metrics never share
/// solver state with another in-flight request.
///
/// Eviction is LRU over idle entries, bounded by the pool capacity. Evicted
/// entries stay alive as long as a response still references them (reports
/// carry TermRefs into the entry's factory), via shared_ptr ownership.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_ENGINE_PROGRAMPOOL_H
#define GENIC_ENGINE_PROGRAMPOOL_H

#include "genic/Lower.h"
#include "solver/SolverContext.h"
#include "solver/SolverSessionPool.h"
#include "sygus/EnumeratorBank.h"
#include "sygus/Inverter.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace genic {

/// Bounded LRU pool of warm per-program solver contexts. Thread-safe; the
/// entries themselves are single-owner while checked out.
class ProgramPool {
public:
  /// One program's resident state. The context must outlive every report
  /// produced from it (reports hold TermRefs into its factory), which the
  /// shared_ptr ownership of checkouts and responses guarantees.
  struct Entry {
    explicit Entry(std::optional<unsigned> SolverTimeoutMs);

    uint64_t Key = 0;
    SolverContext Ctx;
    /// Present once a request parsed and lowered the source successfully;
    /// later requests start straight at the phase pipeline.
    std::optional<LoweredProgram> Lowered;
    /// Completed enumeration banks released by the last request's engine.
    EnumeratorBankStore Banks;
    /// Per-rule worker sessions (fork contexts + private CEGIS engines)
    /// released by the last request's Inverter; their memo caches are what
    /// makes a warm inversion phase cheap. Safe to keep on the entry: the
    /// forks reference Ctx's factory as their frozen prefix, and exclusive
    /// checkout means one request touches them at a time.
    Inverter::RuleSessionBank RuleSessions;
    /// The determinism/injectivity checkers' leased-session pool, kept warm
    /// for the same reason; created on the entry's first request and
    /// re-armed (per-request control, timeout) on every later one.
    std::unique_ptr<SolverSessionPool> Checkers;
    /// Completed runs on this entry (diagnostics only; atomic so statusz
    /// can read it while the owning request increments).
    std::atomic<uint64_t> Runs{0};
    /// Held for the duration of a request; acquire() only try_locks, so a
    /// busy entry is never waited on.
    std::mutex InUse;
  };

  /// An exclusively checked-out entry. Releases the entry's InUse lock on
  /// destruction; keep E (cheap shared_ptr) to extend the entry's lifetime
  /// past eviction, e.g. inside a response.
  struct Checkout {
    std::shared_ptr<Entry> E;
    std::unique_lock<std::mutex> Lock;
    /// The entry already carries a lowered program: parse/lower skippable.
    bool Warm = false;
    /// The entry is registered in the pool (publish() already happened, now
    /// or on a previous request).
    bool Pooled = false;
  };

  struct Stats {
    uint64_t Hits = 0;       ///< acquire() found an idle entry
    uint64_t Misses = 0;     ///< no entry for the source yet
    uint64_t BusyMisses = 0; ///< entry exists but is serving another request
    uint64_t Evictions = 0;  ///< idle entries dropped to respect capacity
  };

  /// \p Capacity 0 disables pooling: every checkout is transient and
  /// publish() is a no-op, which is how the single-run CLI mode operates.
  explicit ProgramPool(size_t Capacity,
                       std::optional<unsigned> SolverTimeoutMs = std::nullopt)
      : Capacity(Capacity), SolverTimeoutMs(SolverTimeoutMs) {}

  /// Checks out the entry for \p Source, creating a transient one on a miss
  /// (or when the resident entry is busy). Never blocks on another request.
  Checkout acquire(const std::string &Source);

  /// Registers a checked-out entry under its source key so later requests
  /// can hit it, evicting the least-recently-used idle entry when over
  /// capacity. Call only after the source lowered successfully — the pool
  /// never caches programs that failed to parse. Idempotent for entries
  /// that are already pooled (it just refreshes their LRU position).
  void publish(const std::string &Source, Checkout &C);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return Capacity; }

  /// Point-in-time view of one resident entry, for statusz.
  struct EntryInfo {
    uint64_t Key = 0;       ///< hashSource() of the program.
    uint64_t Runs = 0;      ///< Completed runs on the entry.
    uint64_t IdleTicks = 0; ///< LRU age: checkouts since this entry's last.
    bool Busy = false;      ///< Checked out by an in-flight request.
    bool Warm = false;      ///< Carries a lowered program.
  };

  /// Key-sorted snapshot of the resident entries. Busy entries are never
  /// waited on: their lowered-ness is implied by registration (only
  /// successfully lowered programs are published).
  std::vector<EntryInfo> describe() const;

  /// FNV-1a over the source bytes — the pool key.
  static uint64_t hashSource(const std::string &Source);

private:
  size_t Capacity;
  std::optional<unsigned> SolverTimeoutMs;

  mutable std::mutex Mu; ///< Guards the maps, the tick, and TheStats.
  std::unordered_map<uint64_t, std::shared_ptr<Entry>> Entries;
  std::unordered_map<uint64_t, uint64_t> LastUse;
  uint64_t Tick = 0;
  Stats TheStats;
};

} // namespace genic

#endif // GENIC_ENGINE_PROGRAMPOOL_H
