//===- sygus/EnumeratorBank.h - Persistent enumeration banks --------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The enumerator's term banks, factored out of Enumerator.cpp so they can
/// outlive a single findMatching call. A CEGIS iteration runs a shallow
/// enumeration and a full one over the same (grammar, examples) pair, and
/// repeated synthesis calls often re-pose structurally identical problems;
/// persisting the banks lets the later run resume from the earlier run's
/// completed sizes instead of re-enumerating them.
///
/// Banks are keyed by structural equality of the grammar and the example
/// set, so a grown example set (a CEGIS counterexample) or a differently
/// mined grammar never reuses stale signatures — the pair simply misses.
/// Only fully enumerated sizes are stored (the watermark below); a size cut
/// short by a match or a budget is rolled back before the banks are put
/// back, keeping resumed enumeration a pure function of the key.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SYGUS_ENUMERATORBANK_H
#define GENIC_SYGUS_ENUMERATORBANK_H

#include "sygus/Grammar.h"
#include "term/Value.h"

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_set>
#include <vector>

namespace genic {

/// A packed value vector over the example set: Raw[e] is meaningful iff bit
/// e of Defined is set. Observational equivalence is signature equality.
struct ObsSig {
  std::vector<uint64_t> Raw;
  uint64_t Defined = 0;

  bool operator==(const ObsSig &O) const {
    return Defined == O.Defined && Raw == O.Raw;
  }
};

struct ObsSigHash {
  size_t operator()(const ObsSig &S) const {
    size_t H = S.Defined;
    for (uint64_t R : S.Raw)
      H = H * 1000003u + R;
    return H;
  }
};

struct BankEntry {
  TermRef T;
  ObsSig S;
};

/// Bank of enumerated terms of one type, grouped by size, deduplicated by
/// signature. Slot order is insertion order, which is the enumeration
/// order — resumed searches rely on this to return the same first match a
/// fresh enumeration would.
struct TypeBank {
  Type Ty;
  std::vector<std::vector<BankEntry>> BySize; // BySize[s] = entries of size s
  std::unordered_set<ObsSig, ObsSigHash> Seen;
};

/// Every bank of one enumeration session plus the resume watermark: sizes
/// 1..CompletedThrough are fully enumerated; nothing larger is stored.
struct EnumeratorBanks {
  std::deque<TypeBank> Banks;
  unsigned CompletedThrough = 0;
  size_t TotalKept = 0;
};

/// Capped store of enumeration banks keyed by (grammar, examples)
/// structural equality. Not thread-safe; engines own one each (worker
/// engines are private to their task, so determinism per session is
/// preserved). take() removes the entry so the caller may mutate the banks
/// in place and put() them back; at capacity, put() drops the whole table
/// (the same generation-clear policy as solver/QueryCache.h).
class EnumeratorBankStore {
public:
  /// \p Capacity caps the number of keys; \p MaxEntries caps the total
  /// bank entries retained across all keys (banks are the enumerator's
  /// dominant memory, so an entry budget, not a key budget, is what bounds
  /// it). Exceeding either drops the whole table; a single bank set larger
  /// than the entry budget is not stored at all.
  explicit EnumeratorBankStore(size_t Capacity = 32,
                               size_t MaxEntries = 1u << 21)
      : Cap(Capacity), EntryBudget(MaxEntries) {}

  /// Removes and returns the banks stored for the key, if any.
  std::optional<EnumeratorBanks>
  take(const Grammar &G, const std::vector<std::vector<Value>> &Examples);

  /// Stores \p Banks under the key, replacing any previous entry.
  void put(const Grammar &G,
           const std::vector<std::vector<Value>> &Examples,
           EnumeratorBanks Banks);

  struct Stats {
    /// take() calls that found / did not find banks for their key.
    uint64_t ReuseHits = 0;
    uint64_t ReuseMisses = 0;
    /// Entries dropped by generation clears of a full table.
    uint64_t Evictions = 0;
  };
  const Stats &stats() const { return TheStats; }
  void resetStats() { TheStats = Stats(); }

  size_t size() const { return Table.size(); }
  size_t capacity() const { return Cap; }
  /// Total bank entries currently retained, across all keys.
  size_t entries() const { return Entries; }

private:
  struct Slot {
    size_t Hash;
    Grammar G;
    std::vector<std::vector<Value>> Examples;
    EnumeratorBanks Banks;
  };

  static size_t hashKey(const Grammar &G,
                        const std::vector<std::vector<Value>> &Examples);
  static bool sameKey(const Slot &S, size_t Hash, const Grammar &G,
                      const std::vector<std::vector<Value>> &Examples);

  size_t Cap;
  size_t EntryBudget;
  size_t Entries = 0;
  std::vector<Slot> Table;
  Stats TheStats;
};

} // namespace genic

#endif // GENIC_SYGUS_ENUMERATORBANK_H
