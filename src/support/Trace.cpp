//===- support/Trace.cpp - Span-based pipeline tracing --------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include <algorithm>
#include <cstdio>

namespace genic {

namespace {

/// TLS handle onto the recorder-owned buffer. The shared_ptr keeps the
/// buffer alive on the thread side; the recorder holds its own reference so
/// recorded events survive the thread's join. Generation detects clear().
struct TlsSlot {
  std::shared_ptr<void> Buffer;
  uint64_t Generation = ~0ull;
};

thread_local TlsSlot LocalSlot;

void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
}

} // namespace

TraceRecorder &TraceRecorder::global() {
  static TraceRecorder *R = new TraceRecorder();
  return *R;
}

void TraceRecorder::enable() {
  enableAt(std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count());
}

void TraceRecorder::enableAt(int64_t Epoch) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &B : Buffers) {
    std::lock_guard<std::mutex> BLock(B->M);
    B->Events.clear();
    B->Next = 0;
    B->Dropped = 0;
  }
  External.clear();
  EpochNs.store(Epoch, std::memory_order_relaxed);
  Enabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::disable() {
  Enabled.store(false, std::memory_order_relaxed);
}

uint64_t TraceRecorder::nowUs() const {
  return sinceEpochUs(std::chrono::steady_clock::now());
}

uint64_t
TraceRecorder::sinceEpochUs(std::chrono::steady_clock::time_point T) const {
  int64_t Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   T.time_since_epoch())
                   .count() -
               EpochNs.load(std::memory_order_relaxed);
  return Ns <= 0 ? 0 : static_cast<uint64_t>(Ns) / 1000;
}

TraceRecorder::ThreadBuffer &TraceRecorder::localBuffer() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (LocalSlot.Buffer && LocalSlot.Generation == Generation)
    return *static_cast<ThreadBuffer *>(LocalSlot.Buffer.get());
  auto B = std::make_shared<ThreadBuffer>();
  B->Tid = NextTid++;
  Buffers.push_back(B);
  LocalSlot.Buffer = B;
  LocalSlot.Generation = Generation;
  return *B;
}

void TraceRecorder::record(const TraceEvent &E) {
  if (!enabled())
    return;
  ThreadBuffer &B = localBuffer();
  std::lock_guard<std::mutex> Lock(B.M);
  TraceEvent Stamped = E;
  if (!Stamped.Req)
    Stamped.Req = currentTraceRequest();
  if (B.Events.size() < RingCapacity) {
    B.Events.push_back(Stamped);
  } else {
    B.Events[B.Next] = Stamped;
    B.Next = (B.Next + 1) % RingCapacity;
    ++B.Dropped;
  }
}

void TraceRecorder::instant(const char *Name, const char *Cat,
                            const char *Arg1Name, int64_t Arg1,
                            const char *Arg2Name, int64_t Arg2) {
  if (!enabled())
    return;
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.Ph = 'i';
  E.TsUs = nowUs();
  E.Arg1Name = Arg1Name;
  E.Arg1 = Arg1;
  E.Arg2Name = Arg2Name;
  E.Arg2 = Arg2;
  record(E);
}

void TraceRecorder::nameThisThread(std::string Name) {
  ThreadBuffer &B = localBuffer();
  std::lock_guard<std::mutex> Lock(B.M);
  B.Name = std::move(Name);
}

uint64_t TraceRecorder::droppedEvents() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t N = 0;
  for (const auto &B : Buffers) {
    std::lock_guard<std::mutex> BLock(B->M);
    N += B->Dropped;
  }
  return N;
}

std::vector<ExternalTraceEvent> TraceRecorder::exportEvents() const {
  std::vector<ExternalTraceEvent> Out;
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &B : Buffers) {
    std::lock_guard<std::mutex> BLock(B->M);
    if (!B->Name.empty()) {
      ExternalTraceEvent M;
      M.Ph = 'M';
      M.Tid = B->Tid;
      M.Name = B->Name;
      Out.push_back(std::move(M));
    }
    for (const TraceEvent &E : B->Events) {
      ExternalTraceEvent X;
      X.Name = E.Name;
      X.Cat = E.Cat ? E.Cat : "genic";
      X.Ph = E.Ph;
      X.Tid = B->Tid;
      X.TsUs = E.TsUs;
      X.DurUs = E.DurUs;
      X.Req = E.Req;
      if (E.Arg1Name) {
        X.Arg1Name = E.Arg1Name;
        X.Arg1 = E.Arg1;
      }
      if (E.Arg2Name) {
        X.Arg2Name = E.Arg2Name;
        X.Arg2 = E.Arg2;
      }
      Out.push_back(std::move(X));
    }
  }
  return Out;
}

void TraceRecorder::addExternalEvents(
    const std::vector<ExternalTraceEvent> &Events, int TidOffset) {
  std::lock_guard<std::mutex> Lock(Mu);
  External.reserve(External.size() + Events.size());
  for (ExternalTraceEvent E : Events) {
    E.Tid += TidOffset;
    External.push_back(std::move(E));
  }
}

std::string TraceRecorder::json() const {
  // A row renders either a locally recorded TraceEvent (static-literal
  // names) or an external event (owned strings, pointers into Ext below).
  struct Row {
    int Tid;
    TraceEvent E;
    const std::string *NameStr = nullptr;
    const std::string *CatStr = nullptr;
    const std::string *Arg1Str = nullptr;
    const std::string *Arg2Str = nullptr;
  };
  std::vector<Row> Rows;
  std::vector<std::pair<int, std::string>> Names;
  std::vector<ExternalTraceEvent> Ext;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &B : Buffers) {
      std::lock_guard<std::mutex> BLock(B->M);
      for (const TraceEvent &E : B->Events)
        Rows.push_back({B->Tid, E});
      if (!B->Name.empty())
        Names.emplace_back(B->Tid, B->Name);
    }
    Ext = External;
  }
  for (const ExternalTraceEvent &X : Ext) {
    if (X.Ph == 'M') {
      Names.emplace_back(X.Tid, X.Name);
      continue;
    }
    Row R;
    R.Tid = X.Tid;
    R.E.Ph = X.Ph;
    R.E.TsUs = X.TsUs;
    R.E.DurUs = X.DurUs;
    R.E.Req = X.Req;
    R.E.Arg1 = X.Arg1;
    R.E.Arg2 = X.Arg2;
    R.NameStr = &X.Name;
    R.CatStr = &X.Cat;
    if (!X.Arg1Name.empty())
      R.Arg1Str = &X.Arg1Name;
    if (!X.Arg2Name.empty())
      R.Arg2Str = &X.Arg2Name;
    Rows.push_back(R);
  }
  // Sort each thread's track by start time, longest span first on ties, so
  // parents precede children and per-tid timestamps are monotone.
  std::stable_sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    if (A.Tid != B.Tid)
      return A.Tid < B.Tid;
    if (A.E.TsUs != B.E.TsUs)
      return A.E.TsUs < B.E.TsUs;
    return A.E.DurUs > B.E.DurUs;
  });
  std::sort(Names.begin(), Names.end());

  std::string Out;
  Out.reserve(Rows.size() * 96 + 256);
  Out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool First = true;
  char Buf[160];
  for (const auto &[Tid, Name] : Names) {
    if (!First)
      Out += ",\n";
    First = false;
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"",
                  Tid);
    Out += Buf;
    appendEscaped(Out, Name);
    Out += "\"}}";
  }
  for (const Row &R : Rows) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += "{\"name\":\"";
    appendEscaped(Out, R.NameStr ? *R.NameStr : std::string(R.E.Name));
    Out += "\",\"cat\":\"";
    appendEscaped(Out, R.CatStr ? *R.CatStr
                                : std::string(R.E.Cat ? R.E.Cat : "genic"));
    std::snprintf(Buf, sizeof(Buf),
                  "\",\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"ts\":%llu", R.E.Ph,
                  R.Tid, static_cast<unsigned long long>(R.E.TsUs));
    Out += Buf;
    if (R.E.Ph == 'X') {
      std::snprintf(Buf, sizeof(Buf), ",\"dur\":%llu",
                    static_cast<unsigned long long>(R.E.DurUs));
      Out += Buf;
    }
    if (R.E.Ph == 'i')
      Out += ",\"s\":\"t\"";
    const char *Arg1Name = R.Arg1Str ? R.Arg1Str->c_str() : R.E.Arg1Name;
    const char *Arg2Name = R.Arg2Str ? R.Arg2Str->c_str() : R.E.Arg2Name;
    if (Arg1Name || R.E.Req) {
      bool FirstArg = true;
      Out += ",\"args\":{";
      if (R.E.Req) {
        std::snprintf(Buf, sizeof(Buf), "\"req\":%llu",
                      static_cast<unsigned long long>(R.E.Req));
        Out += Buf;
        FirstArg = false;
      }
      if (Arg1Name) {
        std::snprintf(Buf, sizeof(Buf), "%s\"%s\":%lld", FirstArg ? "" : ",",
                      Arg1Name, static_cast<long long>(R.E.Arg1));
        Out += Buf;
        FirstArg = false;
      }
      if (Arg2Name) {
        std::snprintf(Buf, sizeof(Buf), ",\"%s\":%lld", Arg2Name,
                      static_cast<long long>(R.E.Arg2));
        Out += Buf;
      }
      Out += "}";
    }
    Out += "}";
  }
  Out += "\n]}\n";
  return Out;
}

Status TraceRecorder::writeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return Status::error("cannot open trace output file: " + Path);
  std::string S = json();
  size_t Written = std::fwrite(S.data(), 1, S.size(), F);
  std::fclose(F);
  if (Written != S.size())
    return Status::error("short write to trace output file: " + Path);
  return Status::ok();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Buffers.clear();
  External.clear();
  NextTid = 0;
  ++Generation;
}

namespace {
thread_local uint64_t CurrentRequest = 0;
} // namespace

uint64_t currentTraceRequest() { return CurrentRequest; }

TraceRequestScope::TraceRequestScope(uint64_t Req) : Prev(CurrentRequest) {
  CurrentRequest = Req;
}

TraceRequestScope::~TraceRequestScope() { CurrentRequest = Prev; }

} // namespace genic
