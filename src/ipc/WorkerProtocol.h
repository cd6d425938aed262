//===- ipc/WorkerProtocol.h - Coordinator/worker message vocabulary -------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request/response vocabulary spoken over the worker channel (framed
/// IpcMessages, see Frame.h / Message.h). Every request carries an "op"
/// field and gets exactly one reply; a reply either carries the op's result
/// fields or an "err" + "code" pair (code = the numeric StatusCode the
/// coordinator should surface).
///
/// Ops:
///
///   ping                                        -> {}
///   load  {source, fault, solver-timeout-ms,
///          budget-ms, incremental, trace,
///          trace-req, trace-epoch-ns}           -> {}
///   det   {begin, end}                          -> {event}
///   ti    {begin, end}                          -> {event}
///   prep  {hull}                                -> {}
///   amb   {hull, fp, cfg-base, visited,
///          cfg-p, cfg-q, cfg-d}                 -> {fin, disc-cfg, disc-i1,
///                                                   disc-i2, disc-err}
///   collect {}                                  -> {metrics..., trace,
///                                                   trace-dropped}
///   quit  {}                                    -> {}
///
/// prep builds the output automaton and expanded product an amb shard with
/// the same hull flag scans against, ahead of the first such shard; amb
/// builds it itself when no prep came first (a respawned worker). Both the
/// product and a failed build are kept for the worker's lifetime, so prep
/// is idempotent and amb answers the same with or without it. prep is not
/// a shard: its reply carries nothing the coordinator uses.
///
/// trace-epoch-ns is the coordinator's TraceRecorder epoch; a tracing
/// worker records on that timeline.
///
/// det/ti "event" and amb "fin" use ShardNoEvent (UINT64_MAX) for "no event
/// in my range". The amb discovery lists are parallel arrays (one entry per
/// discovery, in scan order). Workers never ship terms — every field is
/// plain data, which is what keeps out-of-process verdicts byte-identical
/// to in-process ones (the winning event is always re-checked in the
/// coordinator's shared session).
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_IPC_WORKERPROTOCOL_H
#define GENIC_IPC_WORKERPROTOCOL_H

#include "ipc/Message.h"
#include "support/Metrics.h"
#include "support/Result.h"
#include "support/Trace.h"

#include <string>
#include <vector>

namespace genic {

namespace workerop {
inline constexpr const char *Ping = "ping";
inline constexpr const char *Load = "load";
inline constexpr const char *Det = "det";
inline constexpr const char *Ti = "ti";
inline constexpr const char *Prep = "prep";
inline constexpr const char *Amb = "amb";
inline constexpr const char *Collect = "collect";
inline constexpr const char *Quit = "quit";
} // namespace workerop

/// Builds the error reply for \p S ("err" = message, "code" = numeric
/// StatusCode).
IpcMessage makeErrorReply(const Status &S);

/// Reconstructs the Status a reply's "err"/"code" fields describe; returns
/// Ok when the reply carries no "err" field.
Status replyStatus(const IpcMessage &Reply);

/// Encodes \p S into \p M under "m.c.<name>" (counters, decimal),
/// "m.g.<name>" (gauges, decimal, possibly negative), and "m.h.<name>"
/// (histograms, packed u64 list: count, sum-us, max-us, then the buckets).
void encodeMetricsSnapshot(const MetricsSnapshot &S, IpcMessage &M);

/// Inverse of encodeMetricsSnapshot; ignores unrelated fields, fails on a
/// malformed metric value.
Result<MetricsSnapshot> decodeMetricsSnapshot(const IpcMessage &M);

/// Serializes trace events one per line, fields separated by the ASCII
/// unit separator. Separator bytes inside names (never present in
/// practice — span names are identifier-like literals) are replaced with
/// '_' rather than escaped.
std::string encodeTraceEvents(const std::vector<ExternalTraceEvent> &Events);

/// Inverse of encodeTraceEvents; fails on a malformed line.
Result<std::vector<ExternalTraceEvent>>
decodeTraceEvents(const std::string &Blob);

} // namespace genic

#endif // GENIC_IPC_WORKERPROTOCOL_H
