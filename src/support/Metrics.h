//===- support/Metrics.h - Named counters, gauges, histograms -------------===//
//
// Part of the genic project, a C++ reproduction of "Automatic Program
// Inversion using Symbolic Transducers" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A MetricsRegistry of named counters, gauges, and latency histograms that
/// backs --stats, --metrics-json, and the bench harness. Metric objects are
/// lock-free atomics; the registry map is mutex-protected and its nodes have
/// stable addresses, so hot paths look a metric up once and hold the
/// reference. Histograms use log2 microsecond buckets: bucket i counts
/// observations with value < 2^i us, the last bucket is the overflow.
///
/// Naming scheme: dot-separated lowercase path, coarse-to-fine —
/// "solver.query.us.<phase>.<kind>", "eval.worker.compiles",
/// "cache.sat.hits". The pipeline phase attribution for solver queries is a
/// thread-local tag set with MetricsPhaseScope inside the phase drivers and
/// their worker-task lambdas.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SUPPORT_METRICS_H
#define GENIC_SUPPORT_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <mutex>

namespace genic {

/// Monotonic counter. set() mirrors a total kept elsewhere (worker
/// supervision stats, the run totals summed from the drained session
/// families).
class MetricsCounter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  void set(uint64_t N) { V.store(N, std::memory_order_relaxed); }
  /// Raises the counter to \p N if it is currently lower. For mirroring a
  /// cumulative source value from concurrent writers without ever moving
  /// the counter backwards (a scrape must observe a monotone series).
  void setMax(uint64_t N) {
    uint64_t Prev = V.load(std::memory_order_relaxed);
    while (Prev < N &&
           !V.compare_exchange_weak(Prev, N, std::memory_order_relaxed))
      ;
  }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-write-wins instantaneous value.
class MetricsGauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  /// Raises the gauge to \p N if it is currently lower: a high-water mark
  /// that concurrent writers can share.
  void setMax(int64_t N) {
    int64_t Prev = V.load(std::memory_order_relaxed);
    while (Prev < N &&
           !V.compare_exchange_weak(Prev, N, std::memory_order_relaxed))
      ;
  }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Fixed log2-bucket latency histogram over microseconds.
class MetricsHistogram {
public:
  /// Buckets 0..NumBuckets-2 hold values < 2^i us; the last bucket holds
  /// everything >= 2^(NumBuckets-2) us (~2.3 hours — effectively open).
  static constexpr unsigned NumBuckets = 24;

  void observe(uint64_t ValueUs) {
    Buckets[bucketFor(ValueUs)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    SumUs.fetch_add(ValueUs, std::memory_order_relaxed);
    uint64_t Prev = MaxUs.load(std::memory_order_relaxed);
    while (Prev < ValueUs &&
           !MaxUs.compare_exchange_weak(Prev, ValueUs,
                                        std::memory_order_relaxed))
      ;
  }

  /// Index of the bucket recording \p ValueUs: the smallest i with
  /// ValueUs < 2^i, clamped to the overflow bucket.
  static unsigned bucketFor(uint64_t ValueUs) {
    for (unsigned I = 0; I + 1 < NumBuckets; ++I)
      if (ValueUs < (uint64_t(1) << I))
        return I;
    return NumBuckets - 1;
  }

  /// Exclusive upper bound of bucket \p I in microseconds (UINT64_MAX for
  /// the overflow bucket).
  static uint64_t bucketUpperBoundUs(unsigned I) {
    return I + 1 < NumBuckets ? (uint64_t(1) << I) : ~uint64_t(0);
  }

  /// Accumulates another histogram's totals (e.g. a worker process's
  /// snapshot at collect time): per-bucket counts, count, and sum add; max
  /// takes the maximum. \p BucketCounts must have NumBuckets entries.
  void absorb(const uint64_t *BucketCounts, uint64_t OtherCount,
              uint64_t OtherSumUs, uint64_t OtherMaxUs) {
    for (unsigned I = 0; I < NumBuckets; ++I)
      if (BucketCounts[I])
        Buckets[I].fetch_add(BucketCounts[I], std::memory_order_relaxed);
    Count.fetch_add(OtherCount, std::memory_order_relaxed);
    SumUs.fetch_add(OtherSumUs, std::memory_order_relaxed);
    uint64_t Prev = MaxUs.load(std::memory_order_relaxed);
    while (Prev < OtherMaxUs &&
           !MaxUs.compare_exchange_weak(Prev, OtherMaxUs,
                                        std::memory_order_relaxed))
      ;
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sumUs() const { return SumUs.load(std::memory_order_relaxed); }
  uint64_t maxUs() const { return MaxUs.load(std::memory_order_relaxed); }
  uint64_t bucketCount(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    Count.store(0, std::memory_order_relaxed);
    SumUs.store(0, std::memory_order_relaxed);
    MaxUs.store(0, std::memory_order_relaxed);
  }

private:
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> SumUs{0};
  std::atomic<uint64_t> MaxUs{0};
};

/// Point-in-time copy of a registry, with name-sorted maps — the input to
/// formatMetricsJson and the bench harness.
struct MetricsSnapshot {
  struct Histogram {
    uint64_t Count = 0;
    uint64_t SumUs = 0;
    uint64_t MaxUs = 0;
    std::array<uint64_t, MetricsHistogram::NumBuckets> Buckets{};
  };
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, int64_t> Gauges;
  std::map<std::string, Histogram> Histograms;
};

/// Name -> metric map. Lookup takes the registry mutex; the returned
/// references stay valid (and lock-free to update) for the registry's
/// lifetime — reset() zeroes values but never removes entries.
class MetricsRegistry {
public:
  MetricsCounter &counter(std::string_view Name);
  MetricsGauge &gauge(std::string_view Name);
  MetricsHistogram &histogram(std::string_view Name);

  MetricsSnapshot snapshot() const;

  /// Accumulates \p S — typically a worker process's registry snapshot —
  /// into this registry: counters and histogram totals add, gauges take
  /// the snapshot's value (last write wins, like any gauge set). The whole
  /// batch is applied under the registry mutex, so a concurrent snapshot()
  /// observes either none or all of a merge — scrapes can never tear
  /// across the families of one worker collection.
  void merge(const MetricsSnapshot &S);

  /// Zeroes every registered metric (entries and references survive).
  void reset();

private:
  mutable std::mutex Mu;
  std::map<std::string, MetricsCounter, std::less<>> Counters;
  std::map<std::string, MetricsGauge, std::less<>> Gauges;
  std::map<std::string, MetricsHistogram, std::less<>> Histograms;
};

/// The calling thread's current pipeline phase tag ("determinism", "ti",
/// "ambiguity", "cegar", "cegis", "enumeration", ... — "other" when unset).
/// Used at the solver chokepoint to name the query-latency histogram.
const char *currentMetricsPhase();

/// RAII setter for the thread-local phase tag. Phase drivers install one at
/// the top of the scan and inside every worker-task lambda (the tag is
/// per-thread, so the submitting thread's tag does not carry over).
class MetricsPhaseScope {
public:
  explicit MetricsPhaseScope(const char *Phase);
  ~MetricsPhaseScope();
  MetricsPhaseScope(const MetricsPhaseScope &) = delete;
  MetricsPhaseScope &operator=(const MetricsPhaseScope &) = delete;

private:
  const char *Prev;
};

} // namespace genic

#endif // GENIC_SUPPORT_METRICS_H
