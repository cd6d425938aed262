#!/usr/bin/env bash
#===------------------------------------------------------------------------===#
# ci.sh — full verification pipeline.
#
#   1. Tier-1: configure, build, and run the whole test suite. Then an
#      observability check: a traced UTF-8 encoder inversion must produce
#      a Chrome trace that passes trace-lint (well-formed events,
#      monotonic timestamps, balanced spans, solver.scope markers from the
#      incremental core) and a metrics JSON with the per-phase
#      solver-query histograms. (Printed inverses are pinned byte for byte
#      by inverse_fixture_test, and their meaning by the bounded
#      composition check in composition_test, both in the suite above.)
#      Then a CLI usage smoke (an unknown option exits 2) and a Z3
#      context gate: at --jobs 4
#      the peak of live Z3 contexts of the UTF-16 and BASE64 encoders must
#      stay within four task slots plus the root and checker-pool sessions.
#      Then a cegis query gate: on the 14 coders at --jobs 4, every
#      cegis-phase query must be incremental unless a retry ran; and a
#      cegar query gate: the same runs' projection queries must not rise
#      above their measured total; and a pre-pass gate: the same runs'
#      size-<=5 SyGuS pre-passes must not rise above theirs.
#   2. Sanitizers: rebuild with -fsanitize=address,undefined and re-run the
#      suites that exercise new machinery with threads and lane evaluation
#      (stack lane buffers read through raw pointers; plus the term/solver
#      cores under them), including the fault-injection suite that drives
#      every retry/degradation path.
#      Then a degraded-run smoke test: the UTF-8 encoder inversion under a
#      1-second global budget must exit with the budget-exhausted code and
#      a well-formed partial outcome report.
#   3. ThreadSanitizer: rebuild with -fsanitize=thread and run the suites
#      that actually share state across threads — the thread pool itself,
#      the parallel determinism/injectivity/ambiguity tests (Small +
#      Concurrent subsets: cheap, and they cover the shared frontier, the
#      PairSat cache, and the session pool), and the copy-on-write
#      context/bank suites whose forks read the frozen prefix from worker
#      threads, and the shard chunk driver's dispatch threads over
#      WorkerSupervisor (worker_ipc_test's scan-driver and
#      jobs x worker-procs cases, against a TSan-built genic-worker).
#      Note z3 itself is not instrumented, so this validates our
#      synchronization, not z3's.
#   4. Bench smoke: one fast pass of bench_micro so perf regressions that
#      crash or hang surface in CI, and regression gates against the
#      committed baselines at --jobs 1: bench_table1 on the UTF-16 encoder
#      isInjective timing (fails on >75% slowdown) and the UTF-8 encoder
#      end-to-end inversion (>40%), bench_decode's BASE16 streaming decode
#      (>60%), and bench_serve's BASE16 warm latency (>75%, plus a 2x
#      warm-over-cold speedup floor). The slack comes from measured drift
#      on this box.
#
# Usage: ./ci.sh [--skip-asan] [--skip-tsan] [--skip-bench]
#===------------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")"

SKIP_ASAN=0
SKIP_TSAN=0
SKIP_BENCH=0
for Arg in "$@"; do
  case "$Arg" in
  --skip-asan) SKIP_ASAN=1 ;;
  --skip-tsan) SKIP_TSAN=1 ;;
  --skip-bench) SKIP_BENCH=1 ;;
  *)
    echo "usage: $0 [--skip-asan] [--skip-tsan] [--skip-bench]" >&2
    exit 2
    ;;
  esac
done

echo "=== tier-1: build + full test suite ==="
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "=== observability: traced inversion + trace-lint + metrics schema ==="
# A traced UTF-8 encoder inversion must produce a lintable Chrome trace
# (well-formed events, per-thread monotonic timestamps, balanced spans)
# and a metrics JSON carrying the per-phase solver-query histograms.
cmake --build build -j --target trace-lint genic-cli
./build/tools/genic invert programs/UTF-8_encoder.genic --jobs 2 \
  --trace-out build/utf8.trace.json --metrics-json build/utf8.metrics.json
./build/tools/trace-lint build/utf8.trace.json
for Key in '"schema": "genic-metrics-v1"' '"structural"' \
  '"solver.query.us.' '"timings"'; do
  if ! grep -qF "$Key" build/utf8.metrics.json; then
    echo "metrics schema check: missing $Key in utf8.metrics.json" >&2
    exit 1
  fi
done
# The run above used the incremental solver core (the default); its scope
# push/pop markers must appear in the lintable trace.
if ! grep -qF '"solver.scope"' build/utf8.trace.json; then
  echo "trace check: no solver.scope events in the incremental run" >&2
  exit 1
fi

echo "=== CLI usage smoke: unknown options exit 2 ==="
# An unknown or removed option must not be taken for an eval symbol and
# ignored: the run must stop with the usage exit code.
set +e
./build/tools/genic invert programs/BASE16_encoder.genic \
  --solver-incremental off > /dev/null 2>&1
USAGE_RC=$?
set -e
if [ "$USAGE_RC" -ne 2 ]; then
  echo "CLI usage smoke: unknown option exited $USAGE_RC, want 2" >&2
  exit 1
fi

echo "=== z3 context gate: live contexts bounded by the running tasks ==="
# A deterministic count, not a timing. A fork builds its Z3 context on its
# first query and drops it when its task ends, so at --jobs 4 the peak of
# live contexts is at most four task slots next to the root session and
# the checker pool's sessions. A rule task may hold a second context while
# variable reduction runs in its child session: the UTF-16 encoder reduces
# one of its three rules, so its four slots hold at most four contexts;
# the BASE64 encoder reduces every rule, so up to two per slot. Forks that
# kept their contexts until the serial merge read 16 on the BASE64
# encoder, against a bound of 13; the UTF-16 encoder alone cannot tell
# the two patterns apart (8 against 8).
for Spec in UTF-16_encoder:1 BASE64_encoder:2; do
  Prog=${Spec%:*}
  ./build/tools/genic invert programs/$Prog.genic --jobs 4 \
    --metrics-json build/$Prog.contexts.json > /dev/null
  python3 - build/$Prog.contexts.json "${Spec#*:}" <<'PYEOF'
import json, sys
M = json.load(open(sys.argv[1]))
Peak = M["gauges"]["solver.backend.peak_live"]
Bound = 4 * int(sys.argv[2]) + 1 + M["gauges"]["sessions.checker"]
print("%s: %d z3 contexts created, peak %d live (bound %d)"
      % (sys.argv[1], M["counters"]["solver.backend.contexts"], Peak, Bound))
if Peak > Bound:
    sys.exit("z3 context gate: peak %d live contexts exceeds %d"
             % (Peak, Bound))
PYEOF
done

echo "=== cegis query gate: no one-shot solver on the synthesis path ==="
# A deterministic count, not a timing. CEGIS counterexamples and Phase-2
# guard samples come from the rule's live session, so every cegis-phase
# query is an incremental one. A one-shot query there is the flat retry
# after an Unknown, which first escalates the timeout; so on a run with no
# retries the two counts must be equal.
for P in programs/*.genic; do
  Prog=$(basename "$P" .genic)
  ./build/tools/genic invert "$P" --jobs 4 \
    --metrics-json build/$Prog.cegis.json > /dev/null
  python3 - build/$Prog.cegis.json <<'PYEOF'
import json, sys
M = json.load(open(sys.argv[1]))
H = M["histograms"]
def count(Name):
    return H.get("solver.query.us.cegis." + Name, {}).get("count", 0)
OneShot = count("worker") - count("incremental")
Retries = M["counters"].get("run.retries_attempted", 0)
print("%s: %d cegis queries, %d one-shot, %d retries"
      % (sys.argv[1], count("worker"), OneShot, Retries))
if OneShot != 0 and Retries == 0:
    sys.exit("cegis query gate: %d one-shot cegis queries without a retry"
             % OneShot)
PYEOF
done

echo "=== cegar query gate: projection images mostly by evaluation ==="
# A deterministic count, not a timing, over the same 14 runs. Bit-vector
# projection images take their values from concrete evaluation around one
# solver model and leave the solver only what the walk misses; an image at
# the enumeration cap stops there and enters the output automaton as its
# existential predicate. The 14 coders sent 22,955 cegar queries at
# --jobs 4 when every image value was a solver model, 1,239 with the walk,
# and 261 once capped images no longer went to a hull and a second round
# of interval learning (the bound); a rise means images went back to the
# solver.
python3 - build/*.cegis.json <<'PYEOF'
import json, sys
Total = 0
for Path in sys.argv[1:]:
    H = json.load(open(Path))["histograms"]
    Total += sum(H.get("solver.query.us.cegar." + Kind, {}).get("count", 0)
                 for Kind in ("shared", "worker"))
print("%d cegar queries over %d coders (bound 261)"
      % (Total, len(sys.argv) - 1))
if len(sys.argv) - 1 != 14 or Total > 261:
    sys.exit("cegar query gate: %d cegar queries over %d coders, want at "
             "most 261 over 14" % (Total, len(sys.argv) - 1))
PYEOF

echo "=== pre-pass gate: exhausted shallow enumerations stay skipped ==="
# A deterministic count, not a timing, over the same 14 runs. Each CEGIS
# iteration of a synthesis call first enumerates every term of size <= 5,
# unless an earlier such pre-pass of the call found none: examples only
# grow within a call, so none can match later either, and the pass is
# skipped. The 14 coders ran 268 pre-passes at --jobs 4 before the skip
# and 189 with it (106 of them hits, 79 skipped); a rise means exhausted
# pre-passes run again.
python3 - build/*.cegis.json <<'PYEOF'
import json, sys
Runs = Hits = Skipped = 0
for Path in sys.argv[1:]:
    C = json.load(open(Path))["counters"]
    def total(Suffix):
        return sum(V for K, V in C.items()
                   if K.startswith("sygus.") and K.endswith(Suffix))
    Runs += total(".prepass.runs")
    Hits += total(".prepass.hits")
    Skipped += total(".prepass.skipped")
print("%d pre-passes (%d hits), %d skipped over %d coders (bound 189)"
      % (Runs, Hits, Skipped, len(sys.argv) - 1))
# Zero means the counters went missing: every coder synthesizes.
if len(sys.argv) - 1 != 14 or Runs > 189 or Runs == 0:
    sys.exit("pre-pass gate: %d pre-passes over %d coders, want 1 to 189 "
             "over 14" % (Runs, len(sys.argv) - 1))
PYEOF

echo "=== decode smoke: traced --decode-file through trace-lint ==="
# Compile the synthesized BASE16 inverse to bytecode and stream a hex file
# through it: the trace must lint and carry the decode.stream span, the
# metrics snapshot the decode counters, and the decoded output must match
# the plaintext byte-for-byte.
printf 'streaming decode smoke' > build/decode.plain
od -An -v -tx1 build/decode.plain | tr -d ' \n' | tr a-f A-F > build/decode.hex
./build/tools/genic invert programs/BASE16_encoder.genic --jobs 2 \
  --decode-file build/decode.hex --decode-out build/decode.out \
  --trace-out build/decode.trace.json \
  --metrics-json build/decode.metrics.json --stats
./build/tools/trace-lint build/decode.trace.json
if ! grep -qF '"decode.stream"' build/decode.trace.json; then
  echo "trace check: no decode.stream span in the decode run" >&2
  exit 1
fi
for Key in '"decode.bytes"' '"decode.chunk.us' '"decode.rules.fired"'; do
  if ! grep -qF "$Key" build/decode.metrics.json; then
    echo "metrics schema check: missing $Key in decode.metrics.json" >&2
    exit 1
  fi
done
cmp build/decode.plain build/decode.out

echo "=== trace-lint fixtures: interleaved requests + overflow rejection ==="
# genicd serves many requests per thread, so the linter accepts multiple
# overlapping root spans per (tid, request) — but a child span overflowing
# its enclosing span within one request must still be rejected.
./build/tools/trace-lint tests/traces/interleaved_requests.trace.json
if ./build/tools/trace-lint tests/traces/overflowing_span.trace.json \
    2>/dev/null; then
  echo "trace-lint fixture: overflowing_span.trace.json must fail" >&2
  exit 1
fi

# Asserts every line of an access log is valid NDJSON carrying the
# documented request/slowquery schema (tools/genicd.cpp --access-log).
validate_access_log() {
  python3 - "$1" <<'PYEOF'
import json, sys
Path = sys.argv[1]
N = 0
for Raw in open(Path):
    Line = Raw.strip()
    if not Line:
        continue
    O = json.loads(Line)
    assert O.get("event") in ("request", "slowquery"), O
    if O["event"] == "request":
        for K in ("ts", "id", "op", "api", "exit", "warm", "queue_us"):
            assert K in O, (K, O)
    else:
        for K in ("ts", "req", "phase", "kind", "elapsed_us",
                  "threshold_ms", "in_flight", "timed_out"):
            assert K in O, (K, O)
    N += 1
assert N > 0, "empty access log"
print("access log OK: %d lines" % N)
PYEOF
}

echo "=== genicd: resident service smoke ==="
# One daemon, eight concurrent inversions plus deliberate failures: the
# error paths must stay per-request (the daemon keeps serving, the clean
# requests still exit 0) and a served report must be byte-identical to the
# fresh-process CLI's. The daemon runs with the full observability stack
# on — access log, Prometheus exposition, statusz, slow-query watch — and
# the artifacts are validated after shutdown.
cmake --build build -j --target genicd genicd-client promlint
GENICD_SOCK=build/genicd-ci.sock
rm -f "$GENICD_SOCK" build/genicd-ci.access.ndjson
./build/tools/genicd --socket "$GENICD_SOCK" --threads 4 --queue 16 \
  --access-log build/genicd-ci.access.ndjson --slow-query-ms 30000 \
  > build/genicd-ci.log 2>&1 &
GENICD_PID=$!
trap 'kill "$GENICD_PID" 2>/dev/null || true' EXIT
./build/tools/genicd-client --socket "$GENICD_SOCK" --op ping \
  --retry-seconds 10 > /dev/null
CLIENT_PIDS=()
for I in 1 2 3 4 5 6 7 8; do
  ./build/tools/genicd-client --socket "$GENICD_SOCK" \
    --file programs/BASE16_encoder.genic --id "$I" --jobs 2 \
    --field code > "build/genicd-ci.$I.code" &
  CLIENT_PIDS+=("$!")
done
# Per-request isolation: an exhausted budget on a cold program and a
# malformed source, racing the eight clean requests above.
set +e
./build/tools/genicd-client --socket "$GENICD_SOCK" \
  --file programs/UTF-8_encoder.genic --id 101 --jobs 2 \
  --timeout-seconds 0.000001 --field code > build/genicd-ci.budget.code
BUDGET_RC=$?
printf 'this is not a genic program' | ./build/tools/genicd-client \
  --socket "$GENICD_SOCK" --file - --id 102 \
  --field code > build/genicd-ci.bad.code
BAD_RC=$?
set -e
for P in "${CLIENT_PIDS[@]}"; do
  wait "$P" # a clean request failing fails the stage
done
for I in 1 2 3 4 5 6 7 8; do
  grep -qx 'ok' "build/genicd-ci.$I.code"
done
if [ "$BUDGET_RC" -ne 4 ] || ! grep -qx 'budget-exhausted' \
    build/genicd-ci.budget.code; then
  echo "genicd smoke: budget request: want exit 4 / budget-exhausted," \
    "got $BUDGET_RC / $(cat build/genicd-ci.budget.code)" >&2
  exit 1
fi
if [ "$BAD_RC" -eq 0 ] || grep -qx 'ok' build/genicd-ci.bad.code; then
  echo "genicd smoke: malformed source must fail per-request" >&2
  exit 1
fi
# A daemon-served report must match the fresh-process CLI byte-for-byte,
# and the response must carry the server-side timing breakdown.
./build/tools/genicd-client --socket "$GENICD_SOCK" \
  --file programs/BASE16_encoder.genic --id 103 --jobs 2 --timings \
  --field report > build/genicd-ci.report 2> build/genicd-ci.timings
./build/tools/genic invert programs/BASE16_encoder.genic --jobs 2 \
  | sed -n '/^outcome report for/,$p' > build/genicd-ci.cli.report
diff build/genicd-ci.report build/genicd-ci.cli.report
grep -q '^timings: queue [0-9]*us' build/genicd-ci.timings
# The metrics op must return a parseable genic-metrics-v1 snapshot with the
# serve counters.
./build/tools/genicd-client --socket "$GENICD_SOCK" --op metrics \
  --field payload > build/genicd-ci.metrics.json
for Key in '"schema": "genic-metrics-v1"' '"serve.requests"' \
  '"serve.request_us"'; do
  if ! grep -qF "$Key" build/genicd-ci.metrics.json; then
    echo "genicd smoke: missing $Key in /metrics snapshot" >&2
    exit 1
  fi
done
# Slow-query watch: unknown@1 makes the first solver query of each armed
# session time out once (the retry masks it, so the request still succeeds)
# and the watch must record it — a slowquery access-log line now, a nonzero
# solver.slowquery.count in the next scrape.
./build/tools/genicd-client --socket "$GENICD_SOCK" \
  --file programs/BASE16_encoder.genic --id 104 --jobs 2 \
  --fault-inject 'unknown@1' --field code > build/genicd-ci.slow.code
grep -qx 'ok' build/genicd-ci.slow.code
# statusz must identify itself and expose pool + slow-query state.
./build/tools/genicd-client --socket "$GENICD_SOCK" --op statusz \
  --field payload > build/genicd-ci.statusz
for Key in '"schema": "genic-statusz-v1"' '"queue"' '"pool"' \
  '"slow_query_ms": 30000'; do
  if ! grep -qF "$Key" build/genicd-ci.statusz; then
    echo "genicd smoke: missing $Key in statusz snapshot" >&2
    exit 1
  fi
done
# Prometheus exposition: scrape the NDJSON snapshot and the HTTP endpoint
# back to back (no inverts in between, so serve.requests cannot move), lint
# the text format, and require the counter values to agree.
./build/tools/genicd-client --socket "$GENICD_SOCK" --op metrics \
  --field payload > build/genicd-ci.metrics2.json
curl -sS --unix-socket "$GENICD_SOCK" http://localhost/metrics \
  > build/genicd-ci.prom
./build/tools/promlint build/genicd-ci.prom
NDJSON_REQ=$(grep -oE '"serve\.requests": *[0-9]+' \
  build/genicd-ci.metrics2.json | grep -oE '[0-9]+$')
PROM_REQ=$(awk '$1 == "genic_serve_requests_total" {print $2}' \
  build/genicd-ci.prom)
if [ -z "$NDJSON_REQ" ] || [ "$NDJSON_REQ" != "$PROM_REQ" ]; then
  echo "genicd smoke: serve.requests disagrees between the NDJSON" \
    "snapshot ($NDJSON_REQ) and the Prometheus scrape ($PROM_REQ)" >&2
  exit 1
fi
if ! grep -E '"solver\.slowquery\.count": *[1-9]' \
    build/genicd-ci.metrics2.json > /dev/null; then
  echo "genicd smoke: unknown@1 run left solver.slowquery.count at zero" >&2
  exit 1
fi
./build/tools/genicd-client --socket "$GENICD_SOCK" --op shutdown \
  > /dev/null
wait "$GENICD_PID"
trap - EXIT
# Every request in the stage — clean, budget-exhausted, malformed,
# fault-injected, introspection — must have produced a schema-valid
# access-log line, and the timed-out query a slowquery event.
validate_access_log build/genicd-ci.access.ndjson
grep -q '"event":"slowquery"' build/genicd-ci.access.ndjson
grep -q '"timed_out":true' build/genicd-ci.access.ndjson
grep -q '"api":"budget-exhausted"' build/genicd-ci.access.ndjson
REQ_LINES=$(grep -c '"event":"request"' build/genicd-ci.access.ndjson)
if [ "$REQ_LINES" -lt 15 ]; then
  echo "genicd smoke: expected >=15 request lines in the access log," \
    "got $REQ_LINES" >&2
  exit 1
fi

echo "=== genicd: live statusz + overload shed under a saturated queue ==="
# A one-worker, one-slot daemon: a long cold inversion occupies the worker,
# the HTTP statusz (served inline on the reader thread, never queued) must
# show it in flight with its current phase, a queued request fills the one
# slot, and the next request must shed with api=overloaded — which the
# access log must record.
OVL_SOCK=build/genicd-ovl.sock
rm -f "$OVL_SOCK" build/genicd-ovl.access.ndjson
./build/tools/genicd --socket "$OVL_SOCK" --threads 1 --queue 1 \
  --access-log build/genicd-ovl.access.ndjson \
  > build/genicd-ovl.log 2>&1 &
OVL_PID=$!
trap 'kill "$OVL_PID" 2>/dev/null || true' EXIT
./build/tools/genicd-client --socket "$OVL_SOCK" --op ping \
  --retry-seconds 10 > /dev/null
./build/tools/genicd-client --socket "$OVL_SOCK" \
  --file programs/UTF-8_encoder.genic --id 1 --timeout-seconds 10 \
  --field code > build/genicd-ovl.long.code &
OVL_LONG=$!
SAW_INFLIGHT=0
for _ in $(seq 1 100); do
  curl -sS --unix-socket "$OVL_SOCK" http://localhost/statusz \
    > build/genicd-ovl.statusz || true
  if grep -q '"phase": "' build/genicd-ovl.statusz &&
      grep -q '"elapsed_us"' build/genicd-ovl.statusz; then
    SAW_INFLIGHT=1
    break
  fi
  sleep 0.1
done
if [ "$SAW_INFLIGHT" -ne 1 ]; then
  echo "genicd statusz: never saw the in-flight request's phase" >&2
  exit 1
fi
# Fill the single queue slot, then the next request must shed immediately.
./build/tools/genicd-client --socket "$OVL_SOCK" \
  --file programs/BASE16_encoder.genic --id 2 \
  --field code > build/genicd-ovl.queued.code &
OVL_QUEUED=$!
sleep 0.3
set +e
./build/tools/genicd-client --socket "$OVL_SOCK" \
  --file programs/BASE16_encoder.genic --id 3 \
  --field code > build/genicd-ovl.shed.code
SHED_RC=$?
set -e
if [ "$SHED_RC" -eq 0 ] || ! grep -qx 'overloaded' build/genicd-ovl.shed.code
then
  echo "genicd shed: want api=overloaded, got rc $SHED_RC /" \
    "$(cat build/genicd-ovl.shed.code)" >&2
  exit 1
fi
wait "$OVL_LONG" || true # budget exhaustion on the long request is fine
wait "$OVL_QUEUED"
kill -TERM "$OVL_PID"
wait "$OVL_PID"
trap - EXIT
validate_access_log build/genicd-ovl.access.ndjson
grep -q '"api":"overloaded"' build/genicd-ovl.access.ndjson

echo "=== chaos: out-of-process shards, SIGKILLed workers, merged traces ==="
# Verification shards must produce byte-identical verdicts whether they run
# in-process or in supervised worker processes, and a worker SIGKILLed mid
# solver query must degrade only its own shard — to the documented exit
# code, with a still-lintable merged trace — while every surviving shard
# keeps its clean verdict.
cmake --build build -j --target genic-cli genic-worker trace-lint
WORKER_BIN=build/tools/genic-worker
# Table-1 sweep: every corpus coder, --worker-procs 0 vs 2, timing-stripped
# reports compared byte-for-byte.
./build/tools/genic corpus > build/chaos.programs
while IFS= read -r Prog; do
  ./build/tools/genic corpus "$Prog" > build/chaos.genic
  ./build/tools/genic check build/chaos.genic --jobs 2 > build/chaos.wp0.out
  ./build/tools/genic check build/chaos.genic --jobs 2 --worker-procs 2 \
    --worker-binary "$WORKER_BIN" > build/chaos.wp2.out
  if ! diff <(grep -vE '\([0-9.]+s' build/chaos.wp0.out) \
      <(grep -vE '\([0-9.]+s' build/chaos.wp2.out); then
    echo "chaos sweep: $Prog: verdicts differ with --worker-procs 2" >&2
    exit 1
  fi
done < build/chaos.programs
# A clean worker run must actually dispatch shards, report zero crashes,
# and merge the worker-side trace events (tid 1000*(slot+1)) into one
# lintable timeline.
./build/tools/genic corpus "BASE64 encoder" > build/chaos.genic
./build/tools/genic check build/chaos.genic --jobs 2 --worker-procs 2 \
  --worker-binary "$WORKER_BIN" --trace-out build/chaos.clean.trace.json \
  --metrics-json build/chaos.clean.metrics.json > build/chaos.clean.out
./build/tools/trace-lint build/chaos.clean.trace.json
grep -qF '"workerproc.crashes": 0' build/chaos.clean.metrics.json
if grep -qF '"workerproc.shards": 0' build/chaos.clean.metrics.json; then
  echo "chaos: clean --worker-procs 2 run dispatched no shards" >&2
  exit 1
fi
if ! grep -qF '"tid":1000' build/chaos.clean.trace.json; then
  echo "chaos: no merged worker-side trace events in the clean run" >&2
  exit 1
fi
# Workers build their copy of the Lemma 4.14 product (prep) while the
# coordinator builds its own. Worker spans share the coordinator's clock,
# so some worker's cegar.projections span must start before the
# coordinator's first one ends; a change that serializes the builds again
# (workers building inside their first ambiguity shard) fails here.
python3 - build/chaos.clean.trace.json <<'PYEOF'
import json, sys
Spans = [json.loads(L.rstrip().rstrip(","))
         for L in open(sys.argv[1]) if '"name":"cegar.projections"' in L]
Coord = [S for S in Spans if S["tid"] < 1000]
Worker = [S for S in Spans if S["tid"] >= 1000]
assert Coord and Worker, "missing cegar.projections spans: %r" % Spans
First = min(Coord, key=lambda S: S["ts"])
End = First["ts"] + First["dur"]
Start = min(S["ts"] for S in Worker)
assert Start < End, ("worker product build started at %dus, after the "
                     "coordinator's ended at %dus" % (Start, End))
print("chaos: worker product build overlaps the coordinator's "
      "(%dus < %dus)" % (Start, End))
PYEOF
# SIGKILL mid-query: crash@1x0:workers arms every worker process to
# raise(SIGKILL) at its first solver query. Determinism needs no worker
# queries for this coder so that verdict must survive; the transition-
# injectivity shard crashes, its one supervised retry replays and dies the
# same way, and the run degrades to the documented solver-error exit (5).
set +e
./build/tools/genic check build/chaos.genic --jobs 2 --worker-procs 2 \
  --worker-binary "$WORKER_BIN" --fault-inject 'crash@1x0:workers' \
  --trace-out build/chaos.crash.trace.json \
  --metrics-json build/chaos.crash.metrics.json > build/chaos.crash.out
CRASH_RC=$?
set -e
if [ "$CRASH_RC" -ne 5 ]; then
  echo "chaos crash: expected exit 5 (solver error), got $CRASH_RC" >&2
  exit 1
fi
grep -qF 'worker crashed twice on one shard' build/chaos.crash.out
# The coordinator's trace must stay balanced and lintable even though two
# workers died mid-shard (their unsent events are the only loss).
./build/tools/trace-lint build/chaos.crash.trace.json
for Key in '"workerproc.crashes"' '"workerproc.retries"' \
  '"workerproc.degraded"'; do
  if ! grep -F "$Key" build/chaos.crash.metrics.json | grep -qv ': 0'; then
    echo "chaos crash: $Key missing or zero in metrics snapshot" >&2
    exit 1
  fi
done
# Surviving shards keep their clean verdicts byte-for-byte.
diff <(grep -F 'determinism:' build/chaos.crash.out) \
  <(grep -F 'determinism:' build/chaos.clean.out)
# SIGKILL inside the product build: crash@5:workers lets every worker
# through its determinism and transition-injectivity shards, then kills it
# at the fifth query of its ambiguity product build, which now runs in
# prep. Prep deaths are reaped quietly; the first ambiguity shard respawns,
# dies the same way, is retried once, and degrades — the same exit and
# report as when the build ran inside that shard.
set +e
./build/tools/genic check build/chaos.genic --jobs 2 --worker-procs 2 \
  --worker-binary "$WORKER_BIN" --fault-inject 'crash@5:workers' \
  --trace-out build/chaos.prep.trace.json \
  --metrics-json build/chaos.prep.metrics.json > build/chaos.prep.out
PREP_RC=$?
set -e
if [ "$PREP_RC" -ne 5 ]; then
  echo "chaos prep crash: expected exit 5 (solver error), got $PREP_RC" >&2
  exit 1
fi
grep -qF 'ambiguity shard failed: worker crashed twice on one shard' \
  build/chaos.prep.out
./build/tools/trace-lint build/chaos.prep.trace.json
for Key in '"workerproc.crashes"' '"workerproc.restarts"' \
  '"workerproc.retries"' '"workerproc.degraded"'; do
  if ! grep -F "$Key" build/chaos.prep.metrics.json | grep -qv ': 0'; then
    echo "chaos prep crash: $Key missing or zero in metrics snapshot" >&2
    exit 1
  fi
done
# The same worker-crash degradation served through genicd must land in the
# daemon's access log: the request line carries api=solver-error with the
# worker crash/degraded counters, and every line still parses.
CHAOS_SOCK=build/genicd-chaos.sock
rm -f "$CHAOS_SOCK" build/genicd-chaos.access.ndjson
./build/tools/genicd --socket "$CHAOS_SOCK" --threads 2 --queue 8 \
  --worker-procs 2 --worker-binary "$WORKER_BIN" \
  --access-log build/genicd-chaos.access.ndjson --slow-query-ms 30000 \
  > build/genicd-chaos.log 2>&1 &
CHAOS_PID=$!
trap 'kill "$CHAOS_PID" 2>/dev/null || true' EXIT
./build/tools/genicd-client --socket "$CHAOS_SOCK" --op ping \
  --retry-seconds 10 > /dev/null
set +e
./build/tools/genicd-client --socket "$CHAOS_SOCK" \
  --file build/chaos.genic --id 1 --jobs 2 --force-injectivity \
  --fault-inject 'crash@1x0:workers' \
  --field code > build/genicd-chaos.code
CHAOS_RC=$?
set -e
if [ "$CHAOS_RC" -ne 5 ] || ! grep -qx 'solver-error' build/genicd-chaos.code
then
  echo "chaos genicd: want exit 5 / solver-error, got $CHAOS_RC /" \
    "$(cat build/genicd-chaos.code)" >&2
  exit 1
fi
./build/tools/genicd-client --socket "$CHAOS_SOCK" --op shutdown > /dev/null
wait "$CHAOS_PID"
trap - EXIT
validate_access_log build/genicd-chaos.access.ndjson
grep -q '"api":"solver-error"' build/genicd-chaos.access.ndjson
if ! grep '"api":"solver-error"' build/genicd-chaos.access.ndjson \
    | grep -q '"worker_crashes":[1-9]'; then
  echo "chaos genicd: degraded request line lacks worker crash counts" >&2
  exit 1
fi

if [ "$SKIP_ASAN" -eq 0 ]; then
  echo "=== sanitizers: address,undefined on the hot-path suites ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan -j --target \
    lane_eval_test parallel_invert_test enumerator_test \
    term_test eval_test solver_test support_test fault_injection_test \
    incremental_solver_test stream_decode_test backend_lifetime_test \
    sygus_test projection_test
  for T in lane_eval_test parallel_invert_test enumerator_test \
    term_test eval_test solver_test support_test fault_injection_test \
    incremental_solver_test backend_lifetime_test sygus_test \
    projection_test; do
    echo "--- asan/ubsan: $T"
    ./build-asan/tests/"$T"
  done
  echo "--- asan/ubsan: stream_decode_test (unit + synthetic fuzz + BASE16)"
  # The fused-rule interpreter runs on a raw word stack and indexes the
  # input window directly, so the chunked differential fuzz under
  # asan/ubsan is the memory-safety check for the whole decode hot path.
  # The BASE16 parity rows add a real synthesized inverse (the cheapest
  # inversion in the corpus) on top of the synthetic machines.
  ./build-asan/tests/stream_decode_test \
    --gtest_filter='StreamDecoderUnit.*:StreamDecodeSynthetic.*:*BASE16_*'

  echo "=== degraded-run smoke: --timeout-seconds under asan ==="
  # A heavy coder under a 1-second global budget must exit cleanly with
  # the budget-exhausted code (4) and a well-formed partial report —
  # never crash, hang, or leak (asan is still on).
  cmake --build build-asan -j --target genic-cli trace-lint
  set +e
  DEGRADED_OUT=$(./build-asan/tools/genic invert programs/UTF-8_encoder.genic \
    --timeout-seconds 1 --trace-out build-asan/degraded.trace.json 2>&1)
  DEGRADED_RC=$?
  set -e
  echo "$DEGRADED_OUT"
  if [ "$DEGRADED_RC" -ne 4 ]; then
    echo "degraded-run smoke: expected exit 4 (budget exhausted), got $DEGRADED_RC" >&2
    exit 1
  fi
  if ! echo "$DEGRADED_OUT" | grep -q "outcome report for"; then
    echo "degraded-run smoke: missing outcome report" >&2
    exit 1
  fi
  # Even a deadline-exhausted run must leave a balanced, lintable trace.
  ./build-asan/tools/trace-lint build-asan/degraded.trace.json

  echo "=== worker smoke under asan: --worker-procs 2 round trip ==="
  # Both sides of the IPC boundary instrumented: spawn, load, shard scans,
  # collect/merge, and clean quit all run under asan/ubsan.
  cmake --build build-asan -j --target genic-worker
  ./build-asan/tools/genic check programs/BASE16_encoder.genic --jobs 2 \
    --worker-procs 2 --worker-binary build-asan/tools/genic-worker
fi

if [ "$SKIP_TSAN" -eq 0 ]; then
  echo "=== thread sanitizer: parallel checker suites ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j --target support_test \
    parallel_injectivity_test solver_context_test bank_reuse_test \
    fault_injection_test incremental_solver_test stream_decode_test \
    backend_lifetime_test worker_ipc_test genic-worker
  # tsan.supp silences the uninstrumented libz3's internal locking (false
  # positives); our own code is fully checked.
  export TSAN_OPTIONS="suppressions=$PWD/tsan.supp"
  echo "--- tsan: support_test"
  ./build-tsan/tests/support_test
  echo "--- tsan: parallel_injectivity_test (Small + Concurrent)"
  ./build-tsan/tests/parallel_injectivity_test \
    --gtest_filter='*Small*:*Concurrent*'
  echo "--- tsan: worker_ipc_test (scan drivers over WorkerSupervisor)"
  # The shared chunk driver's dispatch pool calls into WorkerSupervisor
  # from several threads; these cases ship every scan to TSan-built
  # genic-worker processes.
  ./build-tsan/tests/worker_ipc_test --gtest_filter='ShardDriver.*:'\
'WorkerPipeline.ScanDriversKeepBudgetCodesOfFailedShards:'\
'WorkerPipeline.ReportsByteIdenticalAcrossJobsAndWorkerProcs'
  echo "--- tsan: solver_context_test"
  ./build-tsan/tests/solver_context_test
  echo "--- tsan: bank_reuse_test"
  ./build-tsan/tests/bank_reuse_test
  echo "--- tsan: fault_injection_test"
  ./build-tsan/tests/fault_injection_test
  echo "--- tsan: incremental_solver_test"
  ./build-tsan/tests/incremental_solver_test
  echo "--- tsan: backend_lifetime_test"
  # Forks build and drop their Z3 contexts on pool threads, counted in one
  # process-wide live count.
  ./build-tsan/tests/backend_lifetime_test
  echo "--- tsan: stream_decode_test (unit + synthetic)"
  # The decoder itself is single-threaded; what tsan checks here is the
  # cancellation token it polls, which another thread's deadline can trip
  # mid-stream (the fault-injection unit test does exactly that).
  ./build-tsan/tests/stream_decode_test \
    --gtest_filter='StreamDecoderUnit.*:StreamDecodeSynthetic.*'
  echo "--- tsan: trace_metrics_test"
  cmake --build build-tsan -j --target trace_metrics_test
  ./build-tsan/tests/trace_metrics_test
  echo "--- tsan: traced CLI run (--jobs 4)"
  # The trace path itself under tsan: ring buffers, tid registration, and
  # the epoch are shared across pool workers.
  cmake --build build-tsan -j --target genic-cli trace-lint
  ./build-tsan/tools/genic invert programs/BASE16_encoder.genic --jobs 4 \
    --trace-out build-tsan/b16.trace.json
  ./build-tsan/tools/trace-lint build-tsan/b16.trace.json
  echo "--- tsan: genicd, 8 concurrent requests"
  # The daemon's full request path under tsan: admission queue, worker
  # threads, the warm pool's exclusive checkouts, and the engine-lifetime
  # metrics registry all shared across 8 in-flight requests.
  # Access log + slow-query watchdog stay on so their writer/scanner
  # threads are raced against the 8 in-flight requests under tsan too.
  cmake --build build-tsan -j --target genicd genicd-client
  rm -f build-tsan/genicd-ci.sock build-tsan/genicd-ci.access.ndjson
  ./build-tsan/tools/genicd --socket build-tsan/genicd-ci.sock \
    --threads 4 --queue 16 --trace-out build-tsan/genicd-ci.trace.json \
    --access-log build-tsan/genicd-ci.access.ndjson --slow-query-ms 30000 \
    > build-tsan/genicd-ci.log 2>&1 &
  GENICD_TSAN_PID=$!
  trap 'kill "$GENICD_TSAN_PID" 2>/dev/null || true' EXIT
  ./build-tsan/tools/genicd-client --socket build-tsan/genicd-ci.sock \
    --op ping --retry-seconds 30 > /dev/null
  TSAN_CLIENT_PIDS=()
  for I in 1 2 3 4 5 6 7 8; do
    ./build-tsan/tools/genicd-client --socket build-tsan/genicd-ci.sock \
      --file programs/BASE16_encoder.genic --id "$I" --jobs 2 \
      --field code > "build-tsan/genicd-ci.$I.code" &
    TSAN_CLIENT_PIDS+=("$!")
  done
  for P in "${TSAN_CLIENT_PIDS[@]}"; do
    wait "$P"
  done
  for I in 1 2 3 4 5 6 7 8; do
    grep -qx 'ok' "build-tsan/genicd-ci.$I.code"
  done
  ./build-tsan/tools/genicd-client --socket build-tsan/genicd-ci.sock \
    --op shutdown > /dev/null
  wait "$GENICD_TSAN_PID"
  trap - EXIT
  # The daemon's shutdown trace must lint: overlapping request spans per
  # worker thread are exactly what the per-(tid, request) nesting allows.
  ./build-tsan/tools/trace-lint build-tsan/genicd-ci.trace.json
  validate_access_log build-tsan/genicd-ci.access.ndjson
  unset TSAN_OPTIONS
fi

if [ "$SKIP_BENCH" -eq 0 ]; then
  echo "=== bench smoke: bench_micro ==="
  cmake --build build -j --target bench_micro
  (cd build && ./bench/bench_micro --benchmark_min_time=0.05)

  echo "=== bench regression gate: isInjective + inversion vs baseline ==="
  # Slack is set from measured day-to-day drift on this single-core box
  # (same-binary sweeps vary by ~25-55% per program; see EXPERIMENTS.md
  # "Incremental solver core"), so the gate catches hangs and 2x cliffs
  # without flaking on container noise. The UTF-16 encoder's isInjective
  # is a single hard surrogate-pair query and drifts the most.
  cmake --build build -j --target bench_table1
  (cd build && ./bench/bench_table1 --only "UTF-16 encoder" --jobs 1 \
    --baseline ../BENCH_table1.json --max-regress 75 \
    --json BENCH_table1.smoke.json)
  (cd build && ./bench/bench_table1 --only "UTF-8 encoder" --jobs 1 \
    --baseline ../BENCH_table1.json --max-regress 40 \
    --json BENCH_table1.utf8.smoke.json)

  echo "=== bench regression gate: streaming decode vs baseline ==="
  # The BASE16 pair re-inverts in well under a second, so this gates the
  # compiled runtime's MB/s against the committed BENCH_decode.json
  # without re-running the 14-coder corpus. Slack matches the table1
  # gates: wide enough for container noise, tight enough for a 2x cliff
  # (e.g. a rule knocked off the fused tier back onto the generic one).
  cmake --build build -j --target bench_decode
  (cd build && ./bench/bench_decode --only BASE16 --jobs 1 \
    --baseline ../BENCH_decode.json --max-regress 60 \
    --json BENCH_decode.smoke.json)

  echo "=== bench gate: resident serving, cold vs warm ==="
  # The warm pool must actually skip work: the BASE16 pair re-serves from
  # a warm entry (persisted lowered program, solver memo caches, rule
  # forks, enumeration banks), and the mean warm speedup is gated at 2x —
  # far under the committed ~10x (BENCH_serve.json), so it trips on "pool
  # silently stopped hitting" rather than on container noise. Warm latency
  # is additionally gated against the committed baseline with the same
  # generous slack as the other gates on this box.
  cmake --build build -j --target bench_serve
  (cd build && ./bench/bench_serve --only BASE16 --jobs 1 \
    --rps-seconds 1 --min-warm-speedup 2 \
    --baseline ../BENCH_serve.json --max-regress 75 \
    --json BENCH_serve.smoke.json)
fi

echo "=== ci.sh: all green ==="
