//===- tests/worker_ipc_test.cpp - Worker IPC layer & supervision ---------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The out-of-process shard channel, bottom-up: frame framing over a real
/// socketpair (round-trip, deadline, peer-closed detection, corrupt length
/// prefixes), the field-map message codec, the protocol codecs (error
/// replies, metrics snapshots, trace events), and then WorkerSupervisor
/// against the real genic-worker binary — shard verdicts must match the
/// in-process scans, a reply-level error must not count as a crash, an
/// injected crash@N must get exactly one supervised retry before the shard
/// degrades to SolverError, and a full pipeline run must report
/// byte-identically at every --jobs x --worker-procs combination, on
/// multi-state machines too. The prep op (product build ahead of the first
/// ambiguity shard) is checked on a raw worker channel, and its crash and
/// teardown paths through the supervisor.
///
/// The worker binary path is baked in by CMake (GENIC_WORKER_BIN points at
/// the genic-worker target), so these tests never depend on the
/// environment's GENIC_WORKER.
///
//===----------------------------------------------------------------------===//

#include "coders/Corpus.h"
#include "coders/Synthetic.h"
#include "engine/InversionEngine.h"
#include "engine/WorkerSupervisor.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "ipc/Frame.h"
#include "ipc/Message.h"
#include "ipc/WorkerProtocol.h"
#include "solver/FaultInjector.h"
#include "solver/SolverContext.h"
#include "solver/SolverSessionPool.h"
#include "support/Trace.h"
#include "transducer/Determinism.h"
#include "transducer/Injectivity.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace genic;

namespace {

// The paper's Example 6.1 pairwise-sum encoder: the cheapest full
// three-phase pipeline, and (as the fault-injection suite established) its
// verification phases issue worker-session solver queries — so shards
// shipped to worker processes really exercise their solvers.
const char *EncProgram = R"(
trans Enc (l : Int list) : Int :=
  match l with
  | x::y::tail when (and (x >= 0) (y >= 0)) -> (x + y) :: x :: Enc(tail)
  | [] when true -> []
isInjective Enc
invert Enc
)";

//===----------------------------------------------------------------------===//
// Frame layer
//===----------------------------------------------------------------------===//

struct SocketPair {
  int Fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0); }
  ~SocketPair() {
    closeA();
    closeB();
  }
  void closeA() {
    if (Fds[0] >= 0)
      ::close(Fds[0]);
    Fds[0] = -1;
  }
  void closeB() {
    if (Fds[1] >= 0)
      ::close(Fds[1]);
    Fds[1] = -1;
  }
};

TEST(IpcFrame, RoundTripsPayloadsIncludingBinary) {
  SocketPair P;
  std::string Binary("\x00\x1f\xff length-prefixed, not escaped\n", 34);
  ASSERT_TRUE(writeFrame(P.Fds[0], "hello").isOk());
  ASSERT_TRUE(writeFrame(P.Fds[0], "").isOk());
  ASSERT_TRUE(writeFrame(P.Fds[0], Binary).isOk());

  Result<std::string> A = readFrame(P.Fds[1], 1000);
  Result<std::string> B = readFrame(P.Fds[1], 1000);
  Result<std::string> C = readFrame(P.Fds[1], 1000);
  ASSERT_TRUE(A.isOk() && B.isOk() && C.isOk());
  EXPECT_EQ(*A, "hello");
  EXPECT_EQ(*B, "");
  EXPECT_EQ(*C, Binary);
}

TEST(IpcFrame, DeadlineSurfacesAsTimeoutNotPeerClosed) {
  SocketPair P;
  Result<std::string> R = readFrame(P.Fds[1], 50);
  ASSERT_FALSE(R.isOk());
  EXPECT_FALSE(isPeerClosed(R.status()));
}

TEST(IpcFrame, ClosedPeerIsDistinguishableFromAHang) {
  {
    // Clean EOF before the first header byte.
    SocketPair P;
    P.closeA();
    Result<std::string> R = readFrame(P.Fds[1], 1000);
    ASSERT_FALSE(R.isOk());
    EXPECT_TRUE(isPeerClosed(R.status()));
  }
  {
    // EOF mid-header: a crash can sever the pipe anywhere.
    SocketPair P;
    ASSERT_EQ(::send(P.Fds[0], "\x02\x00", 2, 0), 2);
    P.closeA();
    Result<std::string> R = readFrame(P.Fds[1], 1000);
    ASSERT_FALSE(R.isOk());
    EXPECT_TRUE(isPeerClosed(R.status()));
  }
  {
    // Writing into a closed peer must report peer-closed, not SIGPIPE.
    SocketPair P;
    P.closeB();
    Status S = writeFrame(P.Fds[0], "anyone there?");
    ASSERT_FALSE(S.isOk());
    EXPECT_TRUE(isPeerClosed(S));
  }
}

TEST(IpcFrame, RefusesCorruptLengthPrefix) {
  // A corrupt 0xffffffff header must be refused outright, never turned
  // into a 4 GiB allocation or a blocking read.
  SocketPair P;
  ASSERT_EQ(::send(P.Fds[0], "\xff\xff\xff\xff", 4, 0), 4);
  Result<std::string> R = readFrame(P.Fds[1], 1000);
  ASSERT_FALSE(R.isOk());
  EXPECT_FALSE(isPeerClosed(R.status()));

  // And the writer refuses to produce such a frame in the first place.
  std::string TooBig(size_t(MaxFrameBytes) + 1, 'x');
  EXPECT_FALSE(writeFrame(P.Fds[0], TooBig).isOk());
}

//===----------------------------------------------------------------------===//
// Message codec
//===----------------------------------------------------------------------===//

TEST(IpcMessageCodec, RoundTripsTypedFields) {
  IpcMessage M;
  M.setStr("op", "load");
  M.setStr("source", std::string("raw \x00 bytes \x1f ok", 16));
  M.setU64("zero", 0);
  M.setU64("max", UINT64_MAX);
  M.setU64List("empty", {});
  M.setU64List("list", {1, 0, UINT64_MAX, 42});

  Result<IpcMessage> D = decodeIpcMessage(encodeIpcMessage(M));
  ASSERT_TRUE(D.isOk()) << D.status().message();
  EXPECT_EQ(*D->getStr("op"), "load");
  EXPECT_EQ(*D->getStr("source"), std::string("raw \x00 bytes \x1f ok", 16));
  EXPECT_EQ(*D->getU64("zero"), 0u);
  EXPECT_EQ(*D->getU64("max"), UINT64_MAX);
  EXPECT_TRUE(D->getU64List("empty")->empty());
  EXPECT_EQ(*D->getU64List("list"),
            (std::vector<uint64_t>{1, 0, UINT64_MAX, 42}));
}

TEST(IpcMessageCodec, MissingKeysFailLoudlyNamingTheKey) {
  IpcMessage M;
  M.setU64("present", 1);
  Result<std::string> S = M.getStr("absent-key");
  ASSERT_FALSE(S.isOk());
  EXPECT_NE(S.status().message().find("absent-key"), std::string::npos);
  EXPECT_FALSE(M.getU64("also-absent").isOk());
  EXPECT_FALSE(M.getU64List("gone").isOk());
}

TEST(IpcMessageCodec, RejectsTruncationAndTrailingBytes) {
  IpcMessage M;
  M.setStr("k", "value");
  std::string Enc = encodeIpcMessage(M);
  EXPECT_TRUE(decodeIpcMessage(Enc).isOk());
  EXPECT_FALSE(decodeIpcMessage(Enc.substr(0, Enc.size() - 1)).isOk());
  EXPECT_FALSE(decodeIpcMessage(Enc + "x").isOk());
}

//===----------------------------------------------------------------------===//
// Protocol codecs
//===----------------------------------------------------------------------===//

TEST(WorkerProtocol, ErrorRepliesRoundTripTheStatus) {
  for (const Status &S :
       {Status::solverError("worker exploded"), Status::timeout("too slow"),
        Status::cancelled("budget gone")}) {
    Status Back = replyStatus(makeErrorReply(S));
    ASSERT_FALSE(Back.isOk());
    EXPECT_EQ(Back.code(), S.code());
    EXPECT_EQ(Back.message(), S.message());
  }
  // A reply without an "err" field is a success.
  IpcMessage Ok;
  Ok.setU64("event", 7);
  EXPECT_TRUE(replyStatus(Ok).isOk());
}

TEST(WorkerProtocol, MetricsSnapshotRoundTrips) {
  MetricsRegistry R;
  R.counter("solver.pooled.sat_queries").add(7);
  R.counter("decode.bytes").add(123456);
  R.gauge("pool.sessions").set(-3);
  R.histogram("solver.query.us.ti.pooled").observe(5);
  R.histogram("solver.query.us.ti.pooled").observe(90000);

  IpcMessage M;
  encodeMetricsSnapshot(R.snapshot(), M);
  Result<MetricsSnapshot> D = decodeMetricsSnapshot(M);
  ASSERT_TRUE(D.isOk()) << D.status().message();
  EXPECT_EQ(D->Counters.at("solver.pooled.sat_queries"), 7u);
  EXPECT_EQ(D->Counters.at("decode.bytes"), 123456u);
  EXPECT_EQ(D->Gauges.at("pool.sessions"), -3);
  const MetricsSnapshot::Histogram &H =
      D->Histograms.at("solver.query.us.ti.pooled");
  EXPECT_EQ(H.Count, 2u);
  EXPECT_EQ(H.SumUs, 90005u);
  EXPECT_EQ(H.MaxUs, 90000u);
  EXPECT_EQ(H.Buckets[MetricsHistogram::bucketFor(5)], 1u);
  EXPECT_EQ(H.Buckets[MetricsHistogram::bucketFor(90000)], 1u);

  // Merging the decoded snapshot lands in the coordinator registry the
  // same way an in-process worker's counters would.
  MetricsRegistry Coordinator;
  Coordinator.counter("decode.bytes").add(1);
  Coordinator.merge(*D);
  EXPECT_EQ(Coordinator.counter("decode.bytes").value(), 123457u);
  EXPECT_EQ(Coordinator.histogram("solver.query.us.ti.pooled").count(), 2u);
}

TEST(WorkerProtocol, TraceEventsRoundTrip) {
  std::vector<ExternalTraceEvent> Events(2);
  Events[0].Name = "solver.query";
  Events[0].Cat = "solver";
  Events[0].Ph = 'X';
  Events[0].Tid = 3;
  Events[0].TsUs = 17;
  Events[0].DurUs = 5;
  Events[0].Req = 42;
  Events[0].Arg1Name = "ordinal";
  Events[0].Arg1 = -1;
  Events[0].Arg3Name = "queries";
  Events[0].Arg3 = 9;
  Events[1].Name = "genic-worker";
  Events[1].Ph = 'M';

  Result<std::vector<ExternalTraceEvent>> D =
      decodeTraceEvents(encodeTraceEvents(Events));
  ASSERT_TRUE(D.isOk()) << D.status().message();
  ASSERT_EQ(D->size(), 2u);
  EXPECT_EQ((*D)[0].Name, "solver.query");
  EXPECT_EQ((*D)[0].Cat, "solver");
  EXPECT_EQ((*D)[0].Ph, 'X');
  EXPECT_EQ((*D)[0].Tid, 3);
  EXPECT_EQ((*D)[0].TsUs, 17u);
  EXPECT_EQ((*D)[0].DurUs, 5u);
  EXPECT_EQ((*D)[0].Req, 42u);
  EXPECT_EQ((*D)[0].Arg1Name, "ordinal");
  EXPECT_EQ((*D)[0].Arg1, -1);
  EXPECT_EQ((*D)[0].Arg2Name, "");
  EXPECT_EQ((*D)[0].Arg3Name, "queries");
  EXPECT_EQ((*D)[0].Arg3, 9);
  EXPECT_EQ((*D)[1].Ph, 'M');
  EXPECT_FALSE(decodeTraceEvents("not a trace line").isOk());
}

//===----------------------------------------------------------------------===//
// WorkerSupervisor against the real genic-worker binary
//===----------------------------------------------------------------------===//

WorkerSupervisorConfig workerConfig(unsigned Procs) {
  WorkerSupervisorConfig Cfg;
  Cfg.Procs = Procs;
  Cfg.WorkerBinary = GENIC_WORKER_BIN;
  Cfg.Source = EncProgram;
  return Cfg;
}

TEST(WorkerSupervision, LaunchRejectsUnusableConfig) {
  WorkerSupervisorConfig Zero = workerConfig(0);
  EXPECT_FALSE(WorkerSupervisor::launch(Zero).isOk());

  // No explicit binary, no GENIC_WORKER, and no genic-worker next to this
  // test binary: nothing resolvable.
  ::unsetenv("GENIC_WORKER");
  WorkerSupervisorConfig NoBinary = workerConfig(1);
  NoBinary.WorkerBinary.clear();
  EXPECT_FALSE(WorkerSupervisor::launch(NoBinary).isOk());
}

TEST(WorkerSupervision, ShardVerdictsMatchInProcessScans) {
  // The in-process truth: the exact chunk bodies the parallel checkers
  // run, on a fork-mode pool over the same lowered program.
  SolverContext Ctx;
  Result<AstProgram> Ast = parseGenic(EncProgram);
  ASSERT_TRUE(Ast.isOk()) << Ast.status().message();
  Result<LoweredProgram> Prog = lowerProgram(Ctx.factory(), *Ast);
  ASSERT_TRUE(Prog.isOk()) << Prog.status().message();
  const Seft &M = Prog->Machine;
  std::vector<std::pair<unsigned, unsigned>> Pairs = determinismPairList(M);
  std::vector<unsigned> Rules = transitionInjectivityRules(M);
  ASSERT_FALSE(Rules.empty());
  SolverSessionPool Pool(Ctx.factory(), Ctx.solver());
  size_t DetLocal = scanDeterminismShard(M, Pairs, Pool, 0, Pairs.size());
  size_t TiLocal =
      scanTransitionInjectivityShard(M, Rules, Pool, 0, Rules.size());

  Result<std::unique_ptr<WorkerSupervisor>> W =
      WorkerSupervisor::launch(workerConfig(2));
  ASSERT_TRUE(W.isOk()) << W.status().message();
  Result<uint64_t> Det = (*W)->determinismShard(0, Pairs.size());
  Result<uint64_t> Ti = (*W)->transitionInjectivityShard(0, Rules.size());
  ASSERT_TRUE(Det.isOk()) << Det.status().message();
  ASSERT_TRUE(Ti.isOk()) << Ti.status().message();
  EXPECT_EQ(*Det, DetLocal == SIZE_MAX ? ShardNoEvent : uint64_t(DetLocal));
  EXPECT_EQ(*Ti, TiLocal == SIZE_MAX ? ShardNoEvent : uint64_t(TiLocal));

  WorkerSupervisor::Stats S = (*W)->stats();
  EXPECT_EQ(S.ShardsDispatched, 2u);
  EXPECT_EQ(S.WorkerCrashes, 0u);
  EXPECT_EQ(S.ShardRetries, 0u);
  EXPECT_EQ(S.ShardsDegraded, 0u);
}

TEST(WorkerSupervision, ReplyLevelErrorIsNotACrash) {
  // A shard range beyond the rule list is a protocol-level error reply:
  // it must surface as a failed Result without killing the worker,
  // retrying, or touching the crash counters.
  Result<std::unique_ptr<WorkerSupervisor>> W =
      WorkerSupervisor::launch(workerConfig(1));
  ASSERT_TRUE(W.isOk()) << W.status().message();
  Result<uint64_t> R = (*W)->transitionInjectivityShard(1u << 20, 1u << 21);
  ASSERT_FALSE(R.isOk());

  WorkerSupervisor::Stats S = (*W)->stats();
  EXPECT_EQ(S.ShardsDispatched, 1u);
  EXPECT_EQ(S.WorkerCrashes, 0u);
  EXPECT_EQ(S.ShardRetries, 0u);
  EXPECT_EQ(S.ShardsDegraded, 0u);

  // The worker that sent the error reply is still alive and serving.
  SolverContext Ctx;
  Result<AstProgram> Ast = parseGenic(EncProgram);
  ASSERT_TRUE(Ast.isOk());
  Result<LoweredProgram> Prog = lowerProgram(Ctx.factory(), *Ast);
  ASSERT_TRUE(Prog.isOk());
  std::vector<unsigned> Rules = transitionInjectivityRules(Prog->Machine);
  EXPECT_TRUE((*W)->transitionInjectivityShard(0, Rules.size()).isOk());
}

TEST(WorkerSupervision, CrashGetsOneRetryThenDegradesToSolverError) {
  // crash@1x0:workers SIGKILLs the armed worker at its first solver query
  // — and at the retry worker's first query too (the plan replays
  // deterministically), so the shard must degrade after exactly one
  // supervised retry.
  WorkerSupervisorConfig Cfg = workerConfig(1);
  Cfg.FaultSpec = "crash@1x0:workers";
  Result<std::unique_ptr<WorkerSupervisor>> W = WorkerSupervisor::launch(Cfg);
  ASSERT_TRUE(W.isOk()) << W.status().message();

  SolverContext Ctx;
  Result<AstProgram> Ast = parseGenic(EncProgram);
  ASSERT_TRUE(Ast.isOk());
  Result<LoweredProgram> Prog = lowerProgram(Ctx.factory(), *Ast);
  ASSERT_TRUE(Prog.isOk());
  std::vector<unsigned> Rules = transitionInjectivityRules(Prog->Machine);
  ASSERT_FALSE(Rules.empty());

  Result<uint64_t> R = (*W)->transitionInjectivityShard(0, Rules.size());
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::SolverError);
  EXPECT_NE(R.status().message().find("crashed twice"), std::string::npos);

  WorkerSupervisor::Stats S = (*W)->stats();
  EXPECT_EQ(S.ShardsDispatched, 1u);
  EXPECT_EQ(S.ShardRetries, 1u);
  EXPECT_EQ(S.WorkerCrashes, 2u);
  EXPECT_EQ(S.WorkerRestarts, 1u);
  EXPECT_EQ(S.ShardsDegraded, 1u);
}

TEST(WorkerSupervision, UnspawnableBinaryDegradesInsteadOfHanging) {
  // Launch succeeds (spawn is lazy), but the first dispatch must degrade
  // with a bounded number of spawn attempts — never hang or fall back to
  // running the shard in-process.
  WorkerSupervisorConfig Cfg = workerConfig(1);
  Cfg.WorkerBinary = "/nonexistent/genic-worker";
  Result<std::unique_ptr<WorkerSupervisor>> W = WorkerSupervisor::launch(Cfg);
  ASSERT_TRUE(W.isOk()) << W.status().message();
  Result<uint64_t> R = (*W)->determinismShard(0, 1);
  ASSERT_FALSE(R.isOk());
  EXPECT_GE((*W)->stats().ShardsDegraded, 1u);
}

//===----------------------------------------------------------------------===//
// The prep op, spoken directly to a worker
//===----------------------------------------------------------------------===//

/// A genic-worker on a raw socketpair, for protocol tests that bypass the
/// supervisor's spawn-then-load discipline.
struct RawWorker {
  pid_t Pid = -1;
  int Fd = -1;

  RawWorker() {
    int Sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
    Pid = ::fork();
    if (Pid == 0) {
      ::close(Sv[0]);
      std::string FdArg = std::to_string(Sv[1]);
      ::execl(GENIC_WORKER_BIN, "genic-worker", "--fd", FdArg.c_str(),
              static_cast<char *>(nullptr));
      _exit(127);
    }
    ::close(Sv[1]);
    Fd = Sv[0];
  }
  RawWorker(const RawWorker &) = delete;
  RawWorker &operator=(const RawWorker &) = delete;
  ~RawWorker() {
    ::close(Fd);
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
  }

  /// One request/reply exchange; fails only if the channel breaks.
  Result<IpcMessage> call(const IpcMessage &Req) {
    Status W = writeFrame(Fd, encodeIpcMessage(Req), 120000);
    if (!W.isOk())
      return W;
    Result<std::string> Payload = readFrame(Fd, 120000);
    if (!Payload)
      return Payload.status();
    return decodeIpcMessage(*Payload);
  }

  /// The load op the supervisor would send for \p Source.
  Status load(const std::string &Source, const std::string &Fault = "-") {
    IpcMessage Req;
    Req.setStr("op", workerop::Load);
    Req.setStr("source", Source);
    Req.setStr("fault", Fault);
    Req.setU64("solver-timeout-ms", 0);
    Req.setU64("budget-ms", 0);
    Req.setU64("trace", 0);
    Req.setU64("trace-req", 0);
    Req.setU64("trace-epoch-ns", 0);
    Result<IpcMessage> R = call(Req);
    return R ? replyStatus(*R) : R.status();
  }

  Result<IpcMessage> prep() {
    IpcMessage Req;
    Req.setStr("op", workerop::Prep);
    return call(Req);
  }

  Result<IpcMessage> collect() {
    IpcMessage Req;
    Req.setStr("op", workerop::Collect);
    return call(Req);
  }
};

/// One ambiguity shard request, as the coordinator shipped it.
struct AmbCall {
  uint64_t Fingerprint = 0;
  uint64_t CfgBase = 0;
  std::vector<uint64_t> VisitedKeys;
  std::vector<AmbShardConfig> LevelChunk;

  IpcMessage request() const {
    IpcMessage Req;
    Req.setStr("op", workerop::Amb);
    Req.setU64("fp", Fingerprint);
    Req.setU64("cfg-base", CfgBase);
    Req.setU64List("visited", VisitedKeys);
    std::vector<uint64_t> P, Q, D;
    for (const AmbShardConfig &C : LevelChunk) {
      P.push_back(C.P);
      Q.push_back(C.Q);
      D.push_back(C.D ? 1 : 0);
    }
    Req.setU64List("cfg-p", P);
    Req.setU64List("cfg-q", Q);
    Req.setU64List("cfg-d", D);
    return Req;
  }
};

/// Forwards every call to a real WorkerSupervisor and records the
/// ambiguity shards that went through it.
class RecordingDispatcher : public ShardDispatcher {
public:
  explicit RecordingDispatcher(WorkerSupervisor &Inner) : Inner(Inner) {}

  unsigned procs() const override { return Inner.procs(); }
  Result<uint64_t> determinismShard(uint64_t Begin, uint64_t End) override {
    return Inner.determinismShard(Begin, End);
  }
  Result<uint64_t> transitionInjectivityShard(uint64_t Begin,
                                              uint64_t End) override {
    return Inner.transitionInjectivityShard(Begin, End);
  }
  void prepareAmbiguity() override { Inner.prepareAmbiguity(); }
  Result<AmbShardResult>
  ambiguityShard(uint64_t Fingerprint, uint64_t CfgBase,
                 const std::vector<uint64_t> &VisitedKeys,
                 const std::vector<AmbShardConfig> &LevelChunk) override {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Calls.push_back({Fingerprint, CfgBase, VisitedKeys, LevelChunk});
    }
    return Inner.ambiguityShard(Fingerprint, CfgBase, VisitedKeys,
                                LevelChunk);
  }

  /// Shards scanned past BFS level 0: level 0 is the lone initial
  /// configuration, whose visited snapshot holds only itself.
  size_t shardsPastLevelZero() const {
    size_t N = 0;
    for (const AmbCall &C : Calls)
      N += C.VisitedKeys.size() > 1;
    return N;
  }

  std::vector<AmbCall> Calls;

private:
  WorkerSupervisor &Inner;
  std::mutex Mu;
};

/// A multi-state program whose ambiguity search ships shards.
std::string multiStateProgram() { return makeRandomLiaProgram(1, 5); }

/// A worker fleet with a recorder in front of it.
struct RecordedRun {
  std::unique_ptr<WorkerSupervisor> Sup;
  std::unique_ptr<RecordingDispatcher> Rec;
};

/// Runs the injectivity check of \p Source with its shards shipped to
/// \p Procs workers, recording every ambiguity shard into \p Run.
void recordAmbiguityShards(const std::string &Source, unsigned Procs,
                           unsigned Jobs, RecordedRun &Run) {
  SolverContext Ctx;
  Result<AstProgram> Ast = parseGenic(Source);
  ASSERT_TRUE(Ast.isOk()) << Ast.status().message();
  Result<LoweredProgram> Prog = lowerProgram(Ctx.factory(), *Ast);
  ASSERT_TRUE(Prog.isOk()) << Prog.status().message();
  WorkerSupervisorConfig Cfg = workerConfig(Procs);
  Cfg.Source = Source;
  Result<std::unique_ptr<WorkerSupervisor>> W = WorkerSupervisor::launch(Cfg);
  ASSERT_TRUE(W.isOk()) << W.status().message();
  Run.Sup = std::move(*W);
  Run.Rec = std::make_unique<RecordingDispatcher>(*Run.Sup);
  InjectivityOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Workers = Run.Rec.get();
  Result<InjectivityResult> R =
      checkInjectivity(Prog->Machine, Ctx.solver(), Opts);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(R->Injective);
}

/// The first ambiguity shard the coordinator ships for
/// multiStateProgram().
AmbCall firstAmbiguityShard() {
  RecordedRun Run;
  recordAmbiguityShards(multiStateProgram(), 1, 1, Run);
  if (!Run.Rec || Run.Rec->Calls.empty()) {
    ADD_FAILURE() << "no ambiguity shard was shipped";
    return AmbCall();
  }
  return Run.Rec->Calls.front();
}

TEST(WorkerSupervision, PrepBeforeLoadIsAnErrorReplyNotACrash) {
  RawWorker W;
  Result<IpcMessage> R = W.prep();
  ASSERT_TRUE(R.isOk()) << R.status().message();
  Status St = replyStatus(*R);
  EXPECT_FALSE(St.isOk());
  EXPECT_NE(St.message().find("before load"), std::string::npos)
      << St.message();
  // Still serving: the error reply did not take the process down.
  IpcMessage Ping;
  Ping.setStr("op", workerop::Ping);
  Result<IpcMessage> Pong = W.call(Ping);
  ASSERT_TRUE(Pong.isOk()) << Pong.status().message();
  EXPECT_TRUE(replyStatus(*Pong).isOk());
}

TEST(WorkerSupervision, PrepTwiceIsIdempotent) {
  RawWorker W;
  ASSERT_TRUE(W.load(multiStateProgram()).isOk());
  Result<IpcMessage> First = W.prep();
  ASSERT_TRUE(First.isOk()) << First.status().message();
  EXPECT_TRUE(replyStatus(*First).isOk());
  Result<IpcMessage> After1 = W.collect();
  Result<IpcMessage> Second = W.prep();
  ASSERT_TRUE(Second.isOk()) << Second.status().message();
  EXPECT_EQ(encodeIpcMessage(*Second), encodeIpcMessage(*First));
  Result<IpcMessage> After2 = W.collect();
  ASSERT_TRUE(After1.isOk() && After2.isOk());
  // The second prep reused the product: not one more solver query.
  Result<MetricsSnapshot> S1 = decodeMetricsSnapshot(*After1);
  Result<MetricsSnapshot> S2 = decodeMetricsSnapshot(*After2);
  ASSERT_TRUE(S1.isOk() && S2.isOk());
  EXPECT_FALSE(S1->Histograms.empty());
  EXPECT_EQ(S1->Counters, S2->Counters);
  ASSERT_EQ(S1->Histograms.size(), S2->Histograms.size());
  for (const auto &[Name, H] : S1->Histograms)
    EXPECT_EQ(H.Count, S2->Histograms.at(Name).Count) << Name;
}

TEST(WorkerSupervision, PrepThenAmbAnswersLikeAmbAlone) {
  AmbCall Shard = firstAmbiguityShard();
  ASSERT_NE(Shard.Fingerprint, 0u);
  // Clean, and with an injected throw at the Kth query of each worker
  // session: a build that failed in prep must fail the following amb the
  // same way, not be retried with the fault already spent.
  size_t FailedPreps = 0;
  for (const char *Fault : {"-", "throw@1:workers", "throw@4:workers",
                            "throw@16:workers", "throw@64:workers"}) {
    RawWorker Prepped, Cold;
    ASSERT_TRUE(Prepped.load(multiStateProgram(), Fault).isOk());
    ASSERT_TRUE(Cold.load(multiStateProgram(), Fault).isOk());
    Result<IpcMessage> P = Prepped.prep();
    ASSERT_TRUE(P.isOk()) << P.status().message();
    FailedPreps += !replyStatus(*P).isOk();
    Result<IpcMessage> A = Prepped.call(Shard.request());
    Result<IpcMessage> B = Cold.call(Shard.request());
    ASSERT_TRUE(A.isOk() && B.isOk());
    EXPECT_EQ(encodeIpcMessage(*A), encodeIpcMessage(*B)) << Fault;
    if (std::string(Fault) == "-") {
      EXPECT_TRUE(replyStatus(*A).isOk()) << replyStatus(*A).message();
    }
  }
  EXPECT_GT(FailedPreps, 0u) << "no fault landed in the product build";
}

TEST(WorkerSupervision, PrepDoesNotBypassTheFingerprintCheck) {
  AmbCall Shard = firstAmbiguityShard();
  RawWorker W;
  ASSERT_TRUE(W.load(multiStateProgram()).isOk());
  Result<IpcMessage> P = W.prep();
  ASSERT_TRUE(P.isOk() && replyStatus(*P).isOk());
  Shard.Fingerprint ^= 1;
  Result<IpcMessage> R = W.call(Shard.request());
  ASSERT_TRUE(R.isOk()) << R.status().message();
  Status St = replyStatus(*R);
  EXPECT_FALSE(St.isOk());
  EXPECT_NE(St.message().find("fingerprint mismatch"), std::string::npos)
      << St.message();
}

/// The source of corpus coder \p Name.
std::string corpusSource(const std::string &Name) {
  for (const CoderSpec &C : coderCorpus())
    if (C.name() == Name)
      return C.Source;
  ADD_FAILURE() << "no corpus coder " << Name;
  return "";
}

/// A one-state machine whose product takes seconds to build, in solver
/// queries that all honour the request's deadline. Each of its 4 rules
/// reads a pair (x, y) with y = x + k and outputs x, x + 1, x + 2 and
/// x + 3, each from a range of 599 values, one under the projection cap.
/// The concrete walk holds y fixed, so it finds no second value, and each
/// of the 16 projections asks the solver for all 599. On a 4-vCPU x86-64
/// VM the coordinator's build took 1.8-2.2 s on two threads, and a
/// worker's 2.4-3.2 s on one; the scans before it take about 0.1 s.
std::string slowProductProgram() {
  std::string Source = "trans S (l : (BitVec 16) list) : (BitVec 16) :=\n"
                       "  match l with\n";
  for (unsigned K = 0; K != 4; ++K) {
    char Rule[200];
    std::snprintf(Rule, sizeof(Rule),
                  "  | x::y::tail when (and (and (#x%04x <= x) "
                  "(x < #x%04x)) (y == (x + #x%04x))) -> x :: (x + #x0001) "
                  ":: (x + #x0002) :: (x + #x0003) :: S(tail)\n",
                  K * 0x1000, K * 0x1000 + 599, K + 1);
    Source += Rule;
  }
  return Source + "  | [] when true -> []\n"
                  "isInjective S\n"
                  "invert S\n";
}

TEST(WorkerSupervision, CancelledCollectKillsAWorkerStillInPrep) {
  // Once the request is cancelled, collect() must kill a worker still
  // building slowProductProgram()'s product instead of waiting for it —
  // and not call that a crash.
  WorkerSupervisorConfig Cfg = workerConfig(1);
  Cfg.Source = slowProductProgram();
  CancellationToken Cancel(Deadline::never());
  Cfg.Cancel = Cancel;
  Result<std::unique_ptr<WorkerSupervisor>> W = WorkerSupervisor::launch(Cfg);
  ASSERT_TRUE(W.isOk()) << W.status().message();
  (*W)->prepareAmbiguity();
  while ((*W)->slotStates()[0].Pid <= 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE((*W)->slotStates()[0].Busy) << "prep finished too early";

  Cancel.cancel();
  auto Start = std::chrono::steady_clock::now();
  MetricsRegistry Metrics;
  (*W)->collect(&Metrics);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(Seconds, 1.0);
  WorkerSupervisor::SlotState Slot = (*W)->slotStates()[0];
  EXPECT_EQ(Slot.Pid, -1);
  EXPECT_FALSE(Slot.Busy);
  WorkerSupervisor::Stats S = (*W)->stats();
  EXPECT_EQ(S.WorkerCrashes, 0u);
  EXPECT_EQ(S.ShardsDispatched, 0u);
  EXPECT_EQ(S.ShardsDegraded, 0u);
}

//===----------------------------------------------------------------------===//
// Shards cut short by the request's deadline
//===----------------------------------------------------------------------===//

TEST(WorkerSupervision, ShardFailingAfterTheDeadlineIsBudgetExhausted) {
  // A shard that fails once the request's token has fired was cut short by
  // the budget. crash@1x0:workers kills the worker and its retry, which
  // without the fired token degrades to SolverError (see
  // CrashGetsOneRetryThenDegradesToSolverError); with it, the shard must
  // come back Cancelled so the run exits budget-exhausted, not
  // solver-error. Supervision accounting is unchanged.
  WorkerSupervisorConfig Cfg = workerConfig(1);
  Cfg.FaultSpec = "crash@1x0:workers";
  CancellationToken Cancel(Deadline::never());
  Cfg.Cancel = Cancel;
  Result<std::unique_ptr<WorkerSupervisor>> W = WorkerSupervisor::launch(Cfg);
  ASSERT_TRUE(W.isOk()) << W.status().message();
  Cancel.cancel();

  Result<uint64_t> R = (*W)->transitionInjectivityShard(0, 1);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Cancelled);
  EXPECT_NE(R.status().message().find("crashed twice"), std::string::npos);
  WorkerSupervisor::Stats S = (*W)->stats();
  EXPECT_EQ(S.ShardRetries, 1u);
  EXPECT_EQ(S.WorkerCrashes, 2u);
  EXPECT_EQ(S.ShardsDegraded, 1u);

  // An error reply after the deadline is budget exhaustion too.
  WorkerSupervisorConfig Clean = workerConfig(1);
  Clean.Cancel = Cancel;
  Result<std::unique_ptr<WorkerSupervisor>> W2 =
      WorkerSupervisor::launch(Clean);
  ASSERT_TRUE(W2.isOk()) << W2.status().message();
  Result<uint64_t> Bad = (*W2)->transitionInjectivityShard(1u << 20, 1u << 21);
  ASSERT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.status().code(), StatusCode::Cancelled);
}

/// The scan whose shards a FailingDispatcher fails.
enum class FailedScan { Determinism, TransitionInjectivity, Ambiguity };

/// Fails every shard of one scan with \p Failure, as a worker cut short by
/// the request's deadline would, and answers the other scans' shards with
/// "no event" (correct for an injective-by-construction program).
class FailingDispatcher : public ShardDispatcher {
public:
  FailingDispatcher(Status Failure, FailedScan Which)
      : Failure(std::move(Failure)), Which(Which) {}
  unsigned procs() const override { return Procs; }
  Result<uint64_t> determinismShard(uint64_t, uint64_t) override {
    if (Which == FailedScan::Determinism)
      return Failure;
    return ShardNoEvent;
  }
  Result<uint64_t> transitionInjectivityShard(uint64_t, uint64_t) override {
    if (Which == FailedScan::TransitionInjectivity)
      return Failure;
    return ShardNoEvent;
  }
  void prepareAmbiguity() override {}
  Result<AmbShardResult>
  ambiguityShard(uint64_t, uint64_t, const std::vector<uint64_t> &,
                 const std::vector<AmbShardConfig> &) override {
    if (Which == FailedScan::Ambiguity)
      return Failure;
    return AmbShardResult();
  }

  unsigned Procs = 2;

private:
  Status Failure;
  FailedScan Which;
};

/// Lowers \p Source into \p Ctx's factory.
Result<LoweredProgram> lowerSource(SolverContext &Ctx,
                                   const std::string &Source) {
  Result<AstProgram> Ast = parseGenic(Source);
  if (!Ast)
    return Ast.status();
  return lowerProgram(Ctx.factory(), *Ast);
}

TEST(WorkerPipeline, ScanDriversKeepBudgetCodesOfFailedShards) {
  // A worker shard cut short by the deadline must end the phase as budget
  // exhaustion (exit 4), not as a solver fault (exit 5): seen on the UTF-8
  // decoder at --worker-procs 2 with a short --timeout-seconds. Budget
  // codes pass through the scan drivers; other failures poison the phase.
  // The multi-state program has no lookahead rules, so its transition-
  // injectivity scan ships nothing; the BASE64 encoder's does.
  SolverContext Ctx;
  Result<LoweredProgram> Prog = lowerSource(Ctx, multiStateProgram());
  ASSERT_TRUE(Prog.isOk()) << Prog.status().message();
  SolverContext LookCtx;
  Result<LoweredProgram> Look =
      lowerSource(LookCtx, corpusSource("BASE64 encoder"));
  ASSERT_TRUE(Look.isOk()) << Look.status().message();
  ASSERT_FALSE(transitionInjectivityRules(Look->Machine).empty());

  for (StatusCode Code : {StatusCode::Cancelled, StatusCode::Timeout,
                          StatusCode::SolverError, StatusCode::Error}) {
    Status Failure = Code == StatusCode::Cancelled
                         ? Status::cancelled("cancelled by global deadline")
                     : Code == StatusCode::Timeout
                         ? Status::timeout("solver returned unknown")
                     : Code == StatusCode::SolverError
                         ? Status::solverError("worker crashed twice")
                         : Status::error("product fingerprint mismatch");
    StatusCode Expected =
        Code == StatusCode::Error ? StatusCode::SolverError : Code;

    FailingDispatcher Amb(Failure, FailedScan::Ambiguity);
    InjectivityOptions IOpts;
    IOpts.Workers = &Amb;
    Result<InjectivityResult> Inj =
        checkInjectivity(Prog->Machine, Ctx.solver(), IOpts);
    ASSERT_FALSE(Inj.isOk());
    EXPECT_EQ(Inj.status().code(), Expected) << Inj.status().message();
    EXPECT_NE(Inj.status().message().find("ambiguity shard failed"),
              std::string::npos)
        << Inj.status().message();

    FailingDispatcher Ti(Failure, FailedScan::TransitionInjectivity);
    IOpts.Workers = &Ti;
    Result<InjectivityResult> TiRun =
        checkInjectivity(Look->Machine, LookCtx.solver(), IOpts);
    ASSERT_FALSE(TiRun.isOk());
    EXPECT_EQ(TiRun.status().code(), Expected) << TiRun.status().message();
    EXPECT_NE(
        TiRun.status().message().find("transition-injectivity shard failed"),
        std::string::npos)
        << TiRun.status().message();

    FailingDispatcher Det(Failure, FailedScan::Determinism);
    DeterminismOptions DOpts;
    DOpts.Workers = &Det;
    Result<std::optional<DeterminismViolation>> D =
        checkDeterminism(Prog->Machine, Ctx.solver(), DOpts);
    ASSERT_FALSE(D.isOk());
    EXPECT_EQ(D.status().code(), Expected) << D.status().message();
  }
}

/// Answers every ambiguity shard with \p Reply, whatever was asked: a
/// worker whose reply names indices outside the coordinator's level or
/// product.
class ForgedReplyDispatcher : public FailingDispatcher {
public:
  explicit ForgedReplyDispatcher(AmbShardResult Reply)
      : FailingDispatcher(Status::error("unused"), FailedScan::Ambiguity),
        Reply(std::move(Reply)) {}
  Result<AmbShardResult>
  ambiguityShard(uint64_t, uint64_t, const std::vector<uint64_t> &,
                 const std::vector<AmbShardConfig> &) override {
    return Reply;
  }

private:
  AmbShardResult Reply;
};

TEST(WorkerPipeline, OutOfRangeAmbiguityReplyDegradesToSolverError) {
  // A reply is input from another process: a finisher event or discovery
  // outside the level, or a step index outside the product, must fail the
  // phase as a solver error instead of indexing past the coordinator's
  // arrays.
  SolverContext Ctx;
  Result<LoweredProgram> Prog = lowerSource(Ctx, multiStateProgram());
  ASSERT_TRUE(Prog.isOk()) << Prog.status().message();
  constexpr uint64_t Far = uint64_t(1) << 40;
  AmbShardResult BadFin;
  BadFin.FinEvent = Far;
  AmbShardResult BadCfg;
  BadCfg.Discoveries.push_back({Far, 0, 0, false});
  AmbShardResult BadStep;
  BadStep.Discoveries.push_back({0, Far, 0, false});
  for (const AmbShardResult &Reply : {BadFin, BadCfg, BadStep}) {
    ForgedReplyDispatcher Forged(Reply);
    InjectivityOptions IOpts;
    IOpts.Workers = &Forged;
    Result<InjectivityResult> Inj =
        checkInjectivity(Prog->Machine, Ctx.solver(), IOpts);
    ASSERT_FALSE(Inj.isOk());
    EXPECT_EQ(Inj.status().code(), StatusCode::SolverError)
        << Inj.status().message();
    EXPECT_NE(Inj.status().message().find("ambiguity shard failed: shard "
                                          "returned an out-of-range"),
              std::string::npos)
        << Inj.status().message();
  }
}

//===----------------------------------------------------------------------===//
// The shard chunk driver
//===----------------------------------------------------------------------===//

TEST(ShardDriver, ChunksCoverTheRangeOnceInOrder) {
  // W threads' worth of chunks — W = Jobs in-process, W = procs() through
  // a dispatcher (Jobs then ignored) — cut [0, N) into min(N, 4W)
  // contiguous chunks, run on at most min(W, N) threads, and come back in
  // chunk order.
  for (unsigned W : {1u, 2u, 8u}) {
    for (size_t N : {size_t(0), size_t(1), size_t(4 * W), size_t(4 * W + 1)}) {
      for (bool Shipped : {false, true}) {
        FailingDispatcher Fleet(Status::error("unused"), FailedScan::Ambiguity);
        Fleet.Procs = W;
        std::mutex Mu;
        std::set<std::thread::id> Threads;
        TraceSpan Span("test.scan");
        Result<std::vector<std::pair<size_t, size_t>>> R =
            runShardChunks<std::pair<size_t, size_t>>(
                "determinism", N, Shipped ? 3u : W,
                Shipped ? &Fleet : nullptr, Span,
                [&](size_t Begin, size_t End, ShardDispatcher *Via)
                    -> Result<std::pair<size_t, size_t>> {
                  EXPECT_EQ(Via, Shipped ? &Fleet : nullptr);
                  std::lock_guard<std::mutex> Lock(Mu);
                  Threads.insert(std::this_thread::get_id());
                  return std::make_pair(Begin, End);
                });
        ASSERT_TRUE(R.isOk()) << R.status().message();
        std::string Case = "W " + std::to_string(W) + " N " +
                           std::to_string(N) + (Shipped ? " shipped" : "");
        EXPECT_EQ(R->size(), std::min<size_t>(N, 4 * W)) << Case;
        EXPECT_LE(Threads.size(), std::max<size_t>(1, std::min<size_t>(W, N)))
            << Case;
        size_t Next = 0;
        for (const auto &[Begin, End] : *R) {
          EXPECT_EQ(Begin, Next) << Case;
          EXPECT_LT(Begin, End) << Case;
          Next = End;
        }
        EXPECT_EQ(Next, N) << Case;
      }
    }
  }

  // A dispatcher without worker processes leaves the chunks in-process.
  FailingDispatcher Empty(Status::error("unused"), FailedScan::Ambiguity);
  Empty.Procs = 0;
  TraceSpan Span("test.scan");
  Result<std::vector<int>> R = runShardChunks<int>(
      "determinism", 5, 1, &Empty, Span,
      [](size_t, size_t, ShardDispatcher *Via) -> Result<int> {
        return Via ? 1 : 0;
      });
  ASSERT_TRUE(R.isOk());
  EXPECT_EQ(*R, std::vector<int>(4, 0));
}

TEST(ShardDriver, FirstFailedChunkMapsThroughShardFailure) {
  // The failure reported is the first failed chunk's in chunk order, with
  // budget codes kept and everything else turned into SolverError.
  for (StatusCode Code : {StatusCode::Timeout, StatusCode::Cancelled,
                          StatusCode::SolverError, StatusCode::Error}) {
    auto Fail = [Code](std::string Message) {
      return Code == StatusCode::Timeout     ? Status::timeout(Message)
             : Code == StatusCode::Cancelled ? Status::cancelled(Message)
             : Code == StatusCode::SolverError
                 ? Status::solverError(Message)
                 : Status::error(Message);
    };
    TraceSpan Span("test.scan");
    // 8 items on 2 threads: 8 chunks of one item each; chunks 3 and 5 fail.
    Result<std::vector<int>> R = runShardChunks<int>(
        "ambiguity", 8, 2, nullptr, Span,
        [&](size_t Begin, size_t, ShardDispatcher *) -> Result<int> {
          if (Begin == 3 || Begin == 5)
            return Fail("chunk " + std::to_string(Begin));
          return int(Begin);
        });
    ASSERT_FALSE(R.isOk());
    EXPECT_EQ(R.status().code(),
              Code == StatusCode::Error ? StatusCode::SolverError : Code);
    EXPECT_EQ(R.status().message(), "ambiguity shard failed: chunk 3");
  }
}

//===----------------------------------------------------------------------===//
// Full pipeline through --worker-procs
//===----------------------------------------------------------------------===//

TEST(WorkerPipeline, ReportsByteIdenticalAcrossJobsAndWorkerProcs) {
  // The outcome report is the structural contract: every (jobs,
  // worker-procs) combination must render it byte-for-byte identically.
  std::string Baseline;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    for (unsigned Procs : {0u, 2u}) {
      InverterOptions Options;
      Options.Jobs = Jobs;
      GenicTool Tool(Options);
      Tool.request().WorkerProcs = Procs;
      Tool.request().WorkerBinary = GENIC_WORKER_BIN;
      Result<GenicReport> R = Tool.run(EncProgram);
      ASSERT_TRUE(R.isOk()) << R.status().message();
      std::string Report = formatOutcomeReport(*R);
      if (Baseline.empty())
        Baseline = Report;
      EXPECT_EQ(Report, Baseline)
          << "jobs " << Jobs << " worker-procs " << Procs;
      if (Procs > 0) {
        // The run really shipped shards out of process (lazy spawn means
        // a zero here would silently revert to in-process coverage).
        EXPECT_GT(Tool.metrics().counter("workerproc.shards").value(), 0u)
            << "jobs " << Jobs;
        EXPECT_EQ(Tool.metrics().counter("workerproc.crashes").value(), 0u);
      }
    }
  }
}

TEST(WorkerPipeline, MultiStateReportsByteIdenticalAcrossJobsAndWorkerProcs) {
  // The same contract where the Lemma 4.14 product has real depth: random
  // LIA machines of 2, 5 and 8 states and the ST family's S_2.
  std::vector<std::string> Programs;
  for (unsigned States : {2u, 5u, 8u})
    Programs.push_back(makeRandomLiaProgram(1, States));
  Programs.push_back(makeStProgram(2));
  for (const std::string &Source : Programs) {
    std::string Baseline;
    for (unsigned Jobs : {1u, 2u}) {
      for (unsigned Procs : {0u, 2u}) {
        InverterOptions Options;
        Options.Jobs = Jobs;
        GenicTool Tool(Options);
        Tool.request().WorkerProcs = Procs;
        Tool.request().WorkerBinary = GENIC_WORKER_BIN;
        Result<GenicReport> R = Tool.run(Source);
        ASSERT_TRUE(R.isOk()) << R.status().message();
        std::string Report = formatOutcomeReport(*R);
        if (Baseline.empty())
          Baseline = Report;
        EXPECT_EQ(Report, Baseline) << Source << "jobs " << Jobs
                                    << " worker-procs " << Procs;
        if (Procs > 0) {
          EXPECT_EQ(Tool.metrics().counter("workerproc.crashes").value(),
                    0u);
        }
      }
    }

    // The ambiguity search really ran out of process past its first
    // level, i.e. against worker-built products at depth.
    RecordedRun Run;
    recordAmbiguityShards(Source, 2, 2, Run);
    ASSERT_TRUE(Run.Rec);
    EXPECT_GT(Run.Rec->shardsPastLevelZero(), 0u) << Source;
  }
}

TEST(WorkerPipeline, CrashedWorkerDegradesOnlyItsShard) {
  // The headline robustness contract: a SIGKILLed worker costs one shard
  // (degraded to SolverError after its supervised retry), not the run —
  // the pipeline completes with the documented degraded exit code.
  InverterOptions Options;
  Options.Jobs = 2;
  GenicTool Tool(Options);
  Tool.request().WorkerProcs = 2;
  Tool.request().WorkerBinary = GENIC_WORKER_BIN;
  Tool.request().Faults = *parseFaultPlan("crash@1x0:workers");
  Result<GenicReport> R = Tool.run(EncProgram);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(suggestedExitCode(*R), ExitInternalError);

  EXPECT_GE(Tool.metrics().counter("workerproc.crashes").value(), 2u);
  EXPECT_GE(Tool.metrics().counter("workerproc.retries").value(), 1u);
  EXPECT_GE(Tool.metrics().counter("workerproc.degraded").value(), 1u);

  // The same tool serves the next, fault-free run cleanly: supervision
  // state is per-request, nothing sticks.
  Tool.request().Faults = FaultPlan();
  Result<GenicReport> After = Tool.run(EncProgram);
  ASSERT_TRUE(After.isOk()) << After.status().message();
  EXPECT_EQ(suggestedExitCode(*After), ExitOk);
  EXPECT_EQ(Tool.metrics().counter("workerproc.crashes").value(), 0u);
}

TEST(WorkerPipeline, CrashInsideTheProductBuildDegradesAsBeforePrep) {
  // crash@5:workers on the BASE64 encoder: every worker survives its
  // determinism and transition-injectivity shards, then dies at the fifth
  // query of its product build — now inside prep. The run must end
  // exactly as it did when the build ran inside the first ambiguity
  // shard: that shard crashes, its retry crashes, the phase degrades.
  InverterOptions Options;
  Options.Jobs = 2;
  GenicTool Tool(Options);
  Tool.request().WorkerProcs = 2;
  Tool.request().WorkerBinary = GENIC_WORKER_BIN;
  Tool.request().Faults = *parseFaultPlan("crash@5:workers");
  Result<GenicReport> R = Tool.run(corpusSource("BASE64 encoder"));
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(suggestedExitCode(*R), ExitInternalError);
  EXPECT_EQ(formatOutcomeReport(*R),
            "outcome report for B64E\n"
            "  determinism: deterministic\n"
            "  injectivity: solver error\n"
            "  inversion: not run\n"
            "  degraded: injectivity check: ambiguity shard failed: worker "
            "crashed twice on one shard: ipc: peer closed (eof)\n");

  // Shards, retries and degradations are what they were before prep
  // existed; the two prep deaths add to crashes and (on respawn) restarts.
  MetricsRegistry &M = Tool.metrics();
  EXPECT_EQ(M.counter("workerproc.shards").value(), 10u);
  EXPECT_EQ(M.counter("workerproc.retries").value(), 1u);
  EXPECT_EQ(M.counter("workerproc.degraded").value(), 1u);
  EXPECT_EQ(M.counter("workerproc.crashes").value(), 2u + 2u);
  EXPECT_EQ(M.counter("workerproc.restarts").value(), 1u + 1u);
}

TEST(WorkerPipeline, TimedOutRequestDoesNotWaitForPrep) {
  // A one-second budget runs out while the coordinator and both workers
  // are still building slowProductProgram()'s product (see there). The
  // run returns budget-exhausted at about the deadline, and a worker killed
  // in prep is not reported as a crash. (The workers' own copy of the
  // deadline stops their solver queries too, so the kill itself is pinned
  // by CancelledCollectKillsAWorkerStillInPrep.)
  InverterOptions Options;
  Options.Jobs = 2;
  GenicTool Tool(Options);
  Tool.request().WorkerProcs = 2;
  Tool.request().WorkerBinary = GENIC_WORKER_BIN;
  Tool.request().BudgetSeconds = 1.0;
  auto Start = std::chrono::steady_clock::now();
  Result<GenicReport> R =
      Tool.run(slowProductProgram(), /*ForceInjectivity=*/true);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(suggestedExitCode(*R), ExitBudgetExhausted)
      << formatOutcomeReport(*R);
  EXPECT_LT(Seconds, 2.0);
  EXPECT_EQ(Tool.metrics().counter("workerproc.crashes").value(), 0u);
}

TEST(WorkerPipeline, QuantifierEliminationStopsAtTheDeadline) {
  // A 100-state LIA machine usually reaches its Int output projections
  // (Z3's qe_lite -> qe -> qe2 tactic cascade) shortly before a one-second
  // budget runs out. The cascade stops at the deadline, so the
  // coordinator's projections end there, not a tactic timeout later, and
  // the run reports budget-exhausted. On a loaded machine the deadline can
  // fall before the projections start; then there is no span to check and
  // the test is skipped (ProjectionDeadline in projection_test pins the
  // cascade itself).
  InverterOptions Options;
  Options.Jobs = 2;
  GenicTool Tool(Options);
  Tool.request().WorkerProcs = 2;
  Tool.request().WorkerBinary = GENIC_WORKER_BIN;
  Tool.request().BudgetSeconds = 1.0;
  TraceRecorder &Trace = TraceRecorder::global();
  Trace.enable();
  Trace.clear();
  uint64_t StartUs = Trace.nowUs();
  Result<GenicReport> R = Tool.run(makeRandomLiaProgram(1, 100));
  std::vector<ExternalTraceEvent> Events = Trace.exportEvents();
  Trace.disable();
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(suggestedExitCode(*R), ExitBudgetExhausted)
      << formatOutcomeReport(*R);
  // exportEvents() holds this process's spans only, so every projection
  // span below is the coordinator's.
  unsigned Checked = 0;
  for (const ExternalTraceEvent &E : Events) {
    if (E.Name != "cegar.projections")
      continue;
    ++Checked;
    double EndPastDeadline =
        (double(E.TsUs + E.DurUs) - double(StartUs)) / 1e6 - 1.0;
    // Unloaded they end 0.02-0.03 s past it; the bound leaves room for a
    // loaded machine, and a cascade that ignores the deadline runs about
    // 0.7 s past.
    EXPECT_LT(EndPastDeadline, 0.25)
        << "projections ended " << EndPastDeadline << " s past the deadline";
  }
  if (Checked == 0)
    GTEST_SKIP() << "the deadline fell before the projections started";
}

} // namespace
