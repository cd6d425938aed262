//===- ipc/WorkerProtocol.cpp ---------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "ipc/WorkerProtocol.h"

#include "support/StringUtils.h"

#include <cstdlib>

using namespace genic;

IpcMessage genic::makeErrorReply(const Status &S) {
  IpcMessage M;
  M.setStr("err", S.message());
  M.setU64("code", static_cast<uint64_t>(S.code()));
  return M;
}

Status genic::replyStatus(const IpcMessage &Reply) {
  if (!Reply.has("err"))
    return Status::ok();
  std::string Message = Reply.getStr("err").unwrap();
  uint64_t Code = 0;
  if (Result<uint64_t> C = Reply.getU64("code"))
    Code = *C;
  switch (static_cast<StatusCode>(Code)) {
  case StatusCode::Timeout:
    return Status::timeout(std::move(Message));
  case StatusCode::Cancelled:
    return Status::cancelled(std::move(Message));
  case StatusCode::SolverError:
    return Status::solverError(std::move(Message));
  default:
    return Status::error(std::move(Message));
  }
}

void genic::encodeMetricsSnapshot(const MetricsSnapshot &S, IpcMessage &M) {
  for (const auto &[Name, V] : S.Counters)
    M.setU64("m.c." + Name, V);
  for (const auto &[Name, V] : S.Gauges)
    M.setStr("m.g." + Name, std::to_string(V));
  for (const auto &[Name, H] : S.Histograms) {
    std::vector<uint64_t> Packed;
    Packed.reserve(3 + H.Buckets.size());
    Packed.push_back(H.Count);
    Packed.push_back(H.SumUs);
    Packed.push_back(H.MaxUs);
    Packed.insert(Packed.end(), H.Buckets.begin(), H.Buckets.end());
    M.setU64List("m.h." + Name, Packed);
  }
}

Result<MetricsSnapshot> genic::decodeMetricsSnapshot(const IpcMessage &M) {
  MetricsSnapshot S;
  for (const auto &[Key, Value] : M.Fields) {
    if (startsWith(Key, "m.c.")) {
      Result<uint64_t> V = M.getU64(Key);
      if (!V)
        return V.status();
      S.Counters[Key.substr(4)] = *V;
    } else if (startsWith(Key, "m.g.")) {
      S.Gauges[Key.substr(4)] =
          static_cast<int64_t>(std::strtoll(Value.c_str(), nullptr, 10));
    } else if (startsWith(Key, "m.h.")) {
      Result<std::vector<uint64_t>> Packed = M.getU64List(Key);
      if (!Packed)
        return Packed.status();
      if (Packed->size() != 3 + MetricsHistogram::NumBuckets)
        return Status::error("malformed histogram metric: " + Key);
      MetricsSnapshot::Histogram &H = S.Histograms[Key.substr(4)];
      H.Count = (*Packed)[0];
      H.SumUs = (*Packed)[1];
      H.MaxUs = (*Packed)[2];
      for (unsigned I = 0; I < MetricsHistogram::NumBuckets; ++I)
        H.Buckets[I] = (*Packed)[3 + I];
    }
  }
  return S;
}

namespace {

constexpr char FieldSep = '\x1f';

void appendSanitized(std::string &Out, const std::string &S) {
  for (char C : S)
    Out += (C == FieldSep || C == '\n') ? '_' : C;
}

} // namespace

std::string
genic::encodeTraceEvents(const std::vector<ExternalTraceEvent> &Events) {
  std::string Out;
  for (const ExternalTraceEvent &E : Events) {
    Out += E.Ph;
    Out += FieldSep;
    Out += std::to_string(E.Tid);
    Out += FieldSep;
    Out += std::to_string(E.TsUs);
    Out += FieldSep;
    Out += std::to_string(E.DurUs);
    Out += FieldSep;
    Out += std::to_string(E.Req);
    Out += FieldSep;
    appendSanitized(Out, E.Name);
    Out += FieldSep;
    appendSanitized(Out, E.Cat);
    Out += FieldSep;
    appendSanitized(Out, E.Arg1Name);
    Out += FieldSep;
    Out += std::to_string(E.Arg1);
    Out += FieldSep;
    appendSanitized(Out, E.Arg2Name);
    Out += FieldSep;
    Out += std::to_string(E.Arg2);
    Out += FieldSep;
    appendSanitized(Out, E.Arg3Name);
    Out += FieldSep;
    Out += std::to_string(E.Arg3);
    Out += '\n';
  }
  return Out;
}

Result<std::vector<ExternalTraceEvent>>
genic::decodeTraceEvents(const std::string &Blob) {
  std::vector<ExternalTraceEvent> Events;
  for (const std::string &Line : split(Blob, '\n')) {
    if (Line.empty())
      continue;
    std::vector<std::string> F = split(Line, FieldSep);
    if (F.size() != 13 || F[0].size() != 1)
      return Status::error("malformed trace event line");
    ExternalTraceEvent E;
    E.Ph = F[0][0];
    E.Tid = static_cast<int>(std::strtol(F[1].c_str(), nullptr, 10));
    E.TsUs = std::strtoull(F[2].c_str(), nullptr, 10);
    E.DurUs = std::strtoull(F[3].c_str(), nullptr, 10);
    E.Req = std::strtoull(F[4].c_str(), nullptr, 10);
    E.Name = F[5];
    E.Cat = F[6];
    E.Arg1Name = F[7];
    E.Arg1 = std::strtoll(F[8].c_str(), nullptr, 10);
    E.Arg2Name = F[9];
    E.Arg2 = std::strtoll(F[10].c_str(), nullptr, 10);
    E.Arg3Name = F[11];
    E.Arg3 = std::strtoll(F[12].c_str(), nullptr, 10);
    Events.push_back(std::move(E));
  }
  return Events;
}
