//===- support/Trace.h - Span-based pipeline tracing ----------------------===//
//
// Part of the genic project, a C++ reproduction of "Automatic Program
// Inversion using Symbolic Transducers" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe span recorder emitting Chrome trace-event JSON that can be
/// loaded into Perfetto / chrome://tracing. Each thread records into its own
/// ring buffer (no cross-thread contention on the hot path); the recorder
/// retains a reference to every buffer so events survive thread join and are
/// drained when the trace is written. Recording is zero-cost when disabled:
/// spans still read the steady clock (they double as the pipeline's phase
/// stopwatches, see GenicReport::PhaseTimings) but never touch the recorder.
///
/// Span names are static string literals by contract — events store the
/// pointers, not copies.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SUPPORT_TRACE_H
#define GENIC_SUPPORT_TRACE_H

#include "support/Result.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace genic {

/// One recorded trace event. Ph follows the Chrome trace-event format:
/// 'X' is a complete span (TsUs + DurUs), 'i' an instant marker.
struct TraceEvent {
  const char *Name = nullptr; ///< Static string literal.
  const char *Cat = nullptr;  ///< Static string literal.
  char Ph = 'X';
  uint64_t TsUs = 0;  ///< Microseconds since the recorder's epoch.
  uint64_t DurUs = 0; ///< Complete events only.
  /// Request epoch the event belongs to (0 = untagged). Stamped at record
  /// time from the thread-local set by TraceRequestScope; rendered as a
  /// "req" argument so concurrent requests' spans stay distinguishable in
  /// one trace (tools/trace-lint checks nesting per (tid, req)).
  uint64_t Req = 0;
  /// Up to three integer arguments, rendered under "args" in the JSON.
  const char *Arg1Name = nullptr;
  int64_t Arg1 = 0;
  const char *Arg2Name = nullptr;
  int64_t Arg2 = 0;
  const char *Arg3Name = nullptr;
  int64_t Arg3 = 0;
};

/// A trace event in self-contained form — owned strings, explicit tid — for
/// shipping across a process boundary. Worker processes export their
/// recorded events this way at collect time; the coordinator splices them
/// into its own recorder under a per-worker tid offset, so one merged trace
/// file shows every process's tracks. Ph 'M' carries a thread-name metadata
/// row (Name = the thread's name).
struct ExternalTraceEvent {
  std::string Name;
  std::string Cat;
  char Ph = 'X';
  int Tid = 0;
  uint64_t TsUs = 0;
  uint64_t DurUs = 0;
  uint64_t Req = 0;
  std::string Arg1Name;
  int64_t Arg1 = 0;
  std::string Arg2Name;
  int64_t Arg2 = 0;
  std::string Arg3Name;
  int64_t Arg3 = 0;
};

/// The calling thread's current request epoch (0 when none is installed).
uint64_t currentTraceRequest();

/// RAII setter for the thread-local request epoch every recorded event is
/// stamped with. The engine installs one per request; ThreadPool::submit
/// captures the submitting thread's epoch so worker-task spans inherit it.
class TraceRequestScope {
public:
  explicit TraceRequestScope(uint64_t Req);
  ~TraceRequestScope();
  TraceRequestScope(const TraceRequestScope &) = delete;
  TraceRequestScope &operator=(const TraceRequestScope &) = delete;

private:
  uint64_t Prev;
};

/// The process-wide span recorder. All recording goes through global(); the
/// instance is created on first use and lives for the process.
class TraceRecorder {
public:
  /// Events kept per thread before the ring wraps and the oldest are
  /// overwritten (counted in droppedEvents()). Coarse-grained pipeline
  /// spans stay far below this.
  static constexpr size_t RingCapacity = 1u << 16;

  static TraceRecorder &global();

  /// Starts a fresh recording: clears previously drained events, resets the
  /// epoch to now, and turns recording on.
  void enable();
  /// enable() with the epoch set to \p EpochNs (a steady_clock nanosecond
  /// count, see epochNs()) instead of now.
  void enableAt(int64_t EpochNs);
  void disable();

  /// The current epoch as a steady_clock nanosecond count. steady_clock is
  /// CLOCK_MONOTONIC, one clock for every process on the host, so a worker
  /// process that adopts this value via enableAt() stamps its events on
  /// the coordinator's timeline.
  int64_t epochNs() const { return EpochNs.load(std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Microseconds since the current epoch (clamped to 0 before enable()).
  uint64_t nowUs() const;

  /// Converts a steady-clock time point to microseconds since the epoch
  /// (clamped to 0 for points before enable()).
  uint64_t sinceEpochUs(std::chrono::steady_clock::time_point T) const;

  /// Appends \p E to the calling thread's ring buffer. No-op when disabled.
  void record(const TraceEvent &E);

  /// Records an instant event ('i') with up to two integer arguments.
  void instant(const char *Name, const char *Cat,
               const char *Arg1Name = nullptr, int64_t Arg1 = 0,
               const char *Arg2Name = nullptr, int64_t Arg2 = 0);

  /// Names the calling thread in the emitted trace (thread_name metadata).
  void nameThisThread(std::string Name);

  /// Events lost to ring wrap-around since the last enable().
  uint64_t droppedEvents() const;

  /// Copies every recorded event into self-contained form (one 'M' row per
  /// named thread), for shipping to a coordinating process. Timestamps stay
  /// relative to this recorder's epoch, which lines up with the
  /// coordinator's when this process was enabled at its epochNs().
  std::vector<ExternalTraceEvent> exportEvents() const;

  /// Splices events exported by another process into json() output, with
  /// every tid offset by \p TidOffset (the coordinator assigns each worker
  /// a disjoint tid range so tracks never collide). Thread-safe.
  void addExternalEvents(const std::vector<ExternalTraceEvent> &Events,
                         int TidOffset);

  /// Renders everything recorded so far as Chrome trace-event JSON. Events
  /// are sorted by (tid, ts, -dur) so each thread's track is monotone and
  /// parent spans precede their children — the format trace-lint checks.
  /// One event per line, so line-based tooling can slice fields.
  std::string json() const;

  /// Writes json() to \p Path.
  Status writeJson(const std::string &Path) const;

  /// Drops all recorded events and thread buffers (testing aid; the ring
  /// buffers of live threads re-register on their next record()).
  void clear();

private:
  struct ThreadBuffer {
    mutable std::mutex M;
    std::vector<TraceEvent> Events; ///< Ring once size reaches RingCapacity.
    size_t Next = 0;                ///< Ring write index.
    uint64_t Dropped = 0;
    std::string Name;
    int Tid = 0;
  };

  TraceRecorder() = default;
  ThreadBuffer &localBuffer();

  std::atomic<bool> Enabled{false};
  /// steady_clock nanoseconds of the last enable(); atomic so spans on
  /// worker threads can convert timestamps without taking Mu.
  std::atomic<int64_t> EpochNs{0};
  mutable std::mutex Mu; ///< Guards Buffers, External, and tid assignment.
  std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
  /// Events spliced in from other processes, tid already offset.
  std::vector<ExternalTraceEvent> External;
  int NextTid = 0;
  uint64_t Generation = 0; ///< Bumped by clear() to invalidate TLS slots.
};

/// RAII span: starts timing on construction, records a complete ('X') event
/// on destruction when tracing is enabled. Always usable as a stopwatch via
/// seconds(), so pipeline phases measure time through their spans.
class TraceSpan {
public:
  explicit TraceSpan(const char *Name, const char *Cat = "pipeline")
      : Start(std::chrono::steady_clock::now()) {
    E.Name = Name;
    E.Cat = Cat;
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  ~TraceSpan() {
    TraceRecorder &R = TraceRecorder::global();
    if (!R.enabled())
      return;
    E.TsUs = R.sinceEpochUs(Start);
    uint64_t End = R.sinceEpochUs(std::chrono::steady_clock::now());
    E.DurUs = End - E.TsUs;
    R.record(E);
  }

  /// Seconds elapsed since construction; valid whether or not tracing is on.
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  }

  /// Attaches an integer argument (at most three; extras are ignored).
  void arg(const char *Name, int64_t Value) {
    if (!E.Arg1Name) {
      E.Arg1Name = Name;
      E.Arg1 = Value;
    } else if (!E.Arg2Name) {
      E.Arg2Name = Name;
      E.Arg2 = Value;
    } else if (!E.Arg3Name) {
      E.Arg3Name = Name;
      E.Arg3 = Value;
    }
  }

private:
  TraceEvent E;
  std::chrono::steady_clock::time_point Start;
};

} // namespace genic

#endif // GENIC_SUPPORT_TRACE_H
