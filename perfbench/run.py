#!/usr/bin/env python3
"""The genic benchmark: one command, four workloads, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a genic checkout. The first run builds the library,
the tools and perfbench/harness.cpp into $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build.

Workloads (see perfbench/README.md for why each exists):

  invert-corpus      the 14 Table-1 coders, each a fresh `genic invert
                     --jobs <nproc>` process (determinism + injectivity +
                     inversion)
  invert-multistate  seeded multi-state LIA programs and the ST family, each
                     a fresh `genic invert --jobs 2 --worker-procs 2`
  serve-skewed       one genicd, <nproc> closed-loop clients on persistent
                     Unix-socket connections, a seeded Zipf-skewed sequence
                     of the 14 corpus sources
  stream-codec       the 21 corpus machines (14 programs, 7 synthesized
                     inverses) streaming seeded payloads in-process

Each workload repeats whole passes over its inputs until --seconds have
elapsed (at least one pass). With --trace 0 the last line of standard output
carries the end-to-end metrics; with --trace 1 a separate traced run gives
the per-layer metrics, writes a Chrome trace (checked with trace-lint) and
prints the per-layer self-time table. Every output is checked: a wrong
verdict, a round trip that disagrees with the corpus's native oracle, or a
genicd report that differs from the CLI's outcome report counts as failed.
"""

import argparse
import itertools
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
TOOLS = os.path.join(BUILD, "genic_tools")
HARNESS = os.path.join(BUILD, "perfbench-harness")
EXPECTED = os.path.join(HERE, "expected")
NPROC = min(os.cpu_count() or 1, 4)

WORKLOADS = ("invert-corpus", "invert-multistate", "serve-skewed",
             "stream-codec")

# Solver query phases reported per layer; histogram families are
# solver.query.us.<phase>.<session kind>.
PHASES = ("determinism", "ti", "cegar", "ambiguity", "cegis", "enumeration",
          "inversion")
LAYERS = ("genic", "transducer", "automata", "sygus", "engine", "ipc",
          "runtime", "serve")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "op_p50_ms": "ms"}
PER_LAYER = (
    ["genic.parse_s", "genic.lower_s", "transducer.det_s",
     "transducer.det_pairs", "transducer.inj_s", "transducer.ti_s",
     "transducer.outproj_s", "automata.trim_s", "automata.product_s",
     "sygus.invert_s", "sygus.max_rule_s", "sygus.calls",
     "sygus.cegis_iters", "term.compiled_evals", "sygus.bank_reuse_ratio"]
    + ["solver.queries." + p for p in PHASES]
    + ["solver.busy_s." + p for p in PHASES]
    + ["solver.cache_hit_ratio", "solver.retries", "solver.timeouts",
       "engine.warm_ratio", "engine.pool.busy_misses",
       "engine.pool.evictions", "serve.queue_ms", "serve.overhead_ms",
       "serve.phase_ms.det", "serve.phase_ms.inj", "serve.phase_ms.inv",
       "serve.sheds", "ipc.shards", "ipc.crashes", "ipc.restarts",
       "ipc.overhead_s", "runtime.compile_s", "runtime.fused_ratio",
       "runtime.rules_fired", "runtime.ns_per_rule", "runtime.feed_calls",
       "trace.overhead_ratio"]
    + ["self_s." + l for l in LAYERS + ("unattributed",)])


def layer_unit(name):
    parts = name.split(".")
    if any(p.endswith("_s") for p in parts):
        return "s"
    if any(p.endswith("_ms") for p in parts):
        return "ms"
    if parts[-1].endswith("_ratio"):
        return "ratio"
    return "ns" if parts[-1] == "ns_per_rule" else "count"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); None when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    s = sorted(samples)
    k = n - 11  # index of the highest sample with >= 10 above it
    return (100.0 * (k + 1) / n, s[k])


# --- build -------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: genic sources not found next to perfbench/")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
                  "perfbench-harness", "genic-cli", "genicd", "genic-worker",
                  "trace-lint"])
    with open(logpath, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                log("perfbench: build failed, see", logpath)
                sys.exit(2)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_context(seed):
    z3 = "unknown"
    header = os.path.join(cache_value("Z3_INCLUDE_DIR"), "z3_version.h")
    try:
        with open(header) as f:
            for line in f:
                if "Z3_FULL_VERSION" in line:
                    z3 = line.split('"')[1]
    except (OSError, IndexError):
        pass
    cxx = cache_value("CMAKE_CXX_COMPILER")
    try:
        cxx = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(),
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "compiler": cxx, "z3": z3, "kernel": os.uname().release,
            "seed": seed}


# --- shared checks -----------------------------------------------------------

def expected_outcome(index):
    with open(os.path.join(EXPECTED, "%02d.outcome" % index),
              encoding="utf-8") as f:
        return f.read()


def known_verdict_ok(outcome):
    """All benchmark programs are injective by construction: the outcome
    must read deterministic, injective, and every rule inverted."""
    lines = [l.strip() for l in outcome.splitlines()]
    if "determinism: deterministic" not in lines:
        return False
    if "injectivity: injective" not in lines:
        return False
    inv = [l for l in lines if l.startswith("inversion: ")]
    if len(inv) != 1 or not inv[0].endswith(" rules inverted"):
        return False
    done, total = inv[0].split()[1].split("/")
    return done == total and int(total) > 0


def split_cli_output(text):
    """(inverse program source, outcome report) of `genic invert`."""
    at = text.find("\noutcome report for ")
    if at < 0:
        return None, None
    head, outcome = text[:at], text[at + 1:]
    blank = head.find("\n\n")
    return (head[blank + 2:] if blank >= 0 else ""), outcome


# --- tracing -----------------------------------------------------------------

class Trace:
    """Spans of one traced run: name, request id, span id, parent id, start
    and duration in microseconds of CLOCK_MONOTONIC, and a thread lane."""

    def __init__(self):
        self.spans = []
        self.next_id = 1 << 32  # above the harness's ids

    def add(self, name, req, parent, start_us, dur_us, tid):
        sid = self.next_id
        self.next_id += 1
        self.spans.append((name, req, sid, parent, int(start_us),
                           max(0, int(dur_us)), tid))
        return sid

    def load_harness(self, path, tid):
        with open(path) as f:
            for line in f:
                name, req, sid, parent, start, dur = line.rstrip("\n").split(
                    "\t")
                self.spans.append((name, int(req), int(sid), int(parent),
                                   int(start), int(dur), tid))

    def write_chrome(self, path):
        rows = sorted(self.spans, key=lambda s: (s[6], s[4], -s[5]))
        with open(path, "w") as f:
            f.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            f.write(",\n".join(
                '{"name":"%s","cat":"%s","ph":"X","pid":1,"tid":%d,"ts":%d,'
                '"dur":%d,"args":{"req":%d,"span":%d,"parent":%d}}'
                % (n, n.split(".")[0], tid, ts, dur, req, sid, parent)
                for n, req, sid, parent, ts, dur, tid in rows))
            f.write("\n]}\n")

    def self_times(self):
        """Per-layer self time: each span's duration minus the part its
        children cover. Spans named bench.* are the benchmark's own glue;
        their self time is the unattributed remainder."""
        child = {}
        for s in self.spans:
            child[s[3]] = child.get(s[3], 0) + s[5]
        out = {l: 0.0 for l in LAYERS + ("unattributed",)}
        for n, _, sid, _, _, dur, _ in self.spans:
            layer = n.split(".")[0]
            key = layer if layer in out else "unattributed"
            out[key] += max(0, dur - child.get(sid, 0)) / 1e6
        return out


def lint_trace(trace, path):
    trace.write_chrome(path)
    r = subprocess.run([os.path.join(TOOLS, "trace-lint"), path],
                       capture_output=True, text=True)
    log("trace-lint:", (r.stdout + r.stderr).strip())
    return r.returncode == 0


def now_us():
    return time.clock_gettime(time.CLOCK_MONOTONIC) * 1e6


# --- exported metrics ----------------------------------------------------------

class Exported:
    """Sums genic-metrics-v1 exports (CLI/engine reports, genicd's metrics
    op) into the per-layer counters they feed."""

    def __init__(self):
        self.c = {}

    def add(self, doc, sign=1):
        for section in ("counters", "gauges"):
            for k, v in doc.get(section, {}).items():
                self.c[k] = self.c.get(k, 0) + sign * v
        for k, h in doc.get("histograms", {}).items():
            parts = k.split(".")
            if k.startswith("solver.query.us.") and len(parts) == 5 \
                    and parts[4] != "incremental":
                for field, val in (("count", h["count"]),
                                   ("sum_us", h["sum_us"])):
                    key = "q.%s.%s" % (parts[3], field)
                    self.c[key] = self.c.get(key, 0) + sign * val

    def get(self, k):
        return self.c.get(k, 0)

    def sum_suffix(self, prefix, suffix):
        return sum(v for k, v in self.c.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    def layer_metrics(self, m):
        for p in PHASES:
            m["solver.queries." + p] = self.get("q.%s.count" % p)
            m["solver.busy_s." + p] = self.get("q.%s.sum_us" % p) / 1e6
        hits = self.sum_suffix("solver.", ".cache.sat.hits")
        misses = self.sum_suffix("solver.", ".cache.sat.misses")
        m["solver.cache_hit_ratio"] = hits / (hits + misses) if hits + \
            misses else 0.0
        m["solver.retries"] = self.get("run.retries_attempted")
        m["solver.timeouts"] = self.get("run.queries_timed_out")
        m["sygus.calls"] = self.get("sygus.calls")
        m["term.compiled_evals"] = self.sum_suffix("eval.", ".evals")
        bh = self.sum_suffix("bank.", ".reuse_hits")
        bm = self.sum_suffix("bank.", ".reuse_misses")
        m["sygus.bank_reuse_ratio"] = bh / (bh + bm) if bh + bm else 0.0
        m["ipc.shards"] = self.get("workerproc.shards")
        m["ipc.crashes"] = self.get("workerproc.crashes")
        m["ipc.restarts"] = self.get("workerproc.restarts")


# --- invert-corpus / invert-multistate ---------------------------------------

def write_programs(work, kind, seed):
    d = tempfile.mkdtemp(dir=work)
    args = [HARNESS, "programs", kind, d]
    if kind == "multistate":
        args += [str(seed), "14"]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    return [line.split("\t") for line in out.stdout.splitlines()]


def load_programs(programs, batches=15):
    """Set-up of an invert workload: one `genic eval FILE` process per
    program, which starts the CLI, parses and lowers the program and runs
    it on the empty input. Returns the median over `batches` of the
    summed wall time of one batch over the whole program set."""
    sums = []
    for _ in range(batches):
        total = 0.0
        for path, label in programs:
            t0 = time.perf_counter()
            r = subprocess.run([os.path.join(TOOLS, "genic"), "eval", path],
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
            total += time.perf_counter() - t0
            if r.returncode != 0:
                log("perfbench: genic eval failed on", label)
                sys.exit(1)
        sums.append(total)
    return median(sums)


def run_invert(workload, seed, seconds, trace, work):
    corpus = workload == "invert-corpus"
    kind = "corpus" if corpus else "multistate"
    jobs = NPROC if corpus else 2
    worker = os.path.join(TOOLS, "genic-worker")
    extra = [] if corpus else ["--worker-procs", "2", "--worker-binary",
                               worker]

    programs = write_programs(work, kind, seed)
    setup_s = load_programs(programs)

    if trace:
        return trace_invert(workload, programs, jobs, 2 if extra else 0,
                            work)

    passes, op_ms = [], []
    attempted = failed = 0
    verified = {}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall = cpu = rss = 0.0
        manifest = []
        for i, (path, label) in enumerate(programs):
            out_path = os.path.join(work, "cli.out")
            with open(out_path, "w") as out:
                t0 = time.perf_counter()
                p = subprocess.Popen(
                    [os.path.join(TOOLS, "genic"), "invert", path, "--jobs",
                     str(jobs)] + extra, stdout=out, stderr=subprocess.DEVNULL)
                _, status, ru = os.wait4(p.pid, 0)
                dt = time.perf_counter() - t0
                p.returncode = os.waitstatus_to_exitcode(status)
            wall += dt
            cpu += ru.ru_utime + ru.ru_stime
            rss = max(rss, ru.ru_maxrss / 1024.0)
            op_ms.append(dt * 1e3)
            attempted += 1
            with open(out_path, encoding="utf-8") as f:
                inverse, outcome = split_cli_output(f.read())
            ok = p.returncode == 0 and outcome is not None and \
                known_verdict_ok(outcome)
            if ok and corpus:
                ok = outcome == expected_outcome(i)
            if not ok:
                failed += 1
                log("FAILED:", label, "exit", p.returncode)
                continue
            if inverse not in verified:
                inv_path = os.path.join(work, "inv%d_%d.genic" % (
                    i, len(verified)))
                with open(inv_path, "w", encoding="utf-8") as f:
                    f.write(inverse)
                verified[inverse] = None
                manifest.append((inverse, "%s\t%d\t%s\t%s" % (
                    "corpus" if corpus else "roundtrip",
                    i if corpus else seed * 100 + i, path, inv_path), label))
            if verified[inverse] is False:
                failed += 1
        failed += verify(manifest, verified, work)
        passes.append((wall, cpu, rss))
    metrics = {
        "setup_s": setup_s,
        "wall_s": median([w for w, _, _ in passes]),
        "cpu_s": median([c for _, c, _ in passes]),
        "peak_rss_mb": median([r for _, _, r in passes]),
        "op_p50_ms": median(op_ms),
    }
    print("invert_wall_s %.3f s, invert_cpu_s %.3f s (%d programs a pass, "
          "%d pass(es))" % (metrics["wall_s"], metrics["cpu_s"],
                            len(programs), len(passes)))
    print("op_p50_ms %.1f ms over %d programs" % (median(op_ms), len(op_ms)))
    tail = tail_percentile(op_ms)
    if tail:
        print("op_p%.0f_ms %.1f ms (highest percentile with >= 10 samples "
              "beyond it)" % tail)
    return metrics, attempted, failed


def verify(manifest, verified, work):
    """Runs the oracle checks of one pass; returns the number of failures
    and records each verdict in \\p verified (keyed by inverse text)."""
    if not manifest:
        return 0
    path = os.path.join(tempfile.mkdtemp(dir=work), "manifest")
    with open(path, "w") as f:
        f.write("".join(line + "\n" for _, line, _ in manifest))
    out = subprocess.run([HARNESS, "verify", path], capture_output=True,
                         text=True).stdout.splitlines()
    failed = 0
    for k, (inverse, _, label) in enumerate(manifest):
        ok = k < len(out) and out[k] == "ok"
        verified[inverse] = ok
        if not ok:
            failed += 1
            log("FAILED round trip:", label,
                out[k] if k < len(out) else "no verdict")
    return failed


def trace_invert(workload, programs, jobs, wprocs, work):
    prefix = os.path.join(work, "probe")
    files = [p for p, _ in programs]
    out = subprocess.run(
        [HARNESS, "probe", prefix, str(jobs), str(wprocs),
         os.path.join(TOOLS, "genic-worker")] + files,
        capture_output=True, text=True)
    if out.returncode != 0:
        log(out.stderr)
        sys.exit(1)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    trace = Trace()
    trace.load_harness(prefix + ".spans", 1)
    exported = Exported()
    for i in range(len(files)):
        path = "%s.%d.json" % (prefix, i)
        if os.path.exists(path):  # absent when the program's run failed
            with open(path) as f:
                exported.add(json.load(f))
    progs = res["programs"]
    m = {k: 0.0 for k in PER_LAYER}
    for key, name in (("parse_s", "genic.parse_s"),
                      ("lower_s", "genic.lower_s"),
                      ("det_s", "transducer.det_s"),
                      ("det_pairs", "transducer.det_pairs"),
                      ("inj_s", "transducer.inj_s"),
                      ("ti_s", "transducer.ti_s"),
                      ("outproj_s", "transducer.outproj_s"),
                      ("trim_s", "automata.trim_s"),
                      ("product_s", "automata.product_s"),
                      ("invert_s", "sygus.invert_s"),
                      ("max_rule_s", "sygus.max_rule_s"),
                      ("cegis_iters", "sygus.cegis_iters"),
                      ("ipc_overhead_s", "ipc.overhead_s")):
        m[name] = sum(p.get(key, 0.0) for p in progs)
    exported.layer_metrics(m)
    m["trace.overhead_ratio"] = res["traced_s"] / res["untraced_s"] - 1
    failed = sum(1 for p in progs if not p["ok"])
    return finish_trace(workload, trace, m, work), len(progs), failed


def finish_trace(workload, trace, m, work):
    path = os.path.join(work, "trace.json")
    if not lint_trace(trace, path):
        log("perfbench: the trace does not lint")
        sys.exit(1)
    keep = os.path.join(BUILD, "perfbench-%s.trace.json" % workload)
    shutil.copyfile(path, keep)
    selfs = trace.self_times()
    total = sum(selfs.values()) or 1.0
    print("per-layer self time (%s), trace in %s" % (workload, keep))
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print("  %-13s %10.4f s  %5.1f%%" % (layer, s, 100 * s / total))
        m["self_s." + layer] = s
    print("  tracing overhead: %+.2f%% of untraced wall time"
          % (100 * m["trace.overhead_ratio"]))
    return m


# --- serve-skewed ------------------------------------------------------------

def json_escape(s):
    """The escaping of jsonEscapeString (src/engine/Serve.cpp), which is
    what genicd-client sends: raw UTF-8, only quote, backslash and control
    characters escaped."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


class Client:
    def __init__(self, path, lane=0):
        self.lane = lane  # trace thread lane
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.f = self.sock.makefile("rwb")

    def call(self, request):
        self.f.write(request.encode("utf-8"))
        self.f.flush()
        line = self.f.readline()
        return json.loads(line.decode("utf-8")) if line else None

    def close(self):
        self.f.close()
        self.sock.close()


def zipf_sequence(seed, rounds=4, length=32):
    """Popularity follows corpus order: in each round of `length` requests
    rank r gets weight 1/r, at least one request each. The seed draws the
    arrival order of every round independently, so a pass averages over
    several orders (which program meets a warm pool entry depends on it)."""
    weights = [1.0 / r for r in range(1, 15)]
    total = sum(weights)
    multiset = []
    for i, w in enumerate(weights):
        multiset += [i] * max(1, round(length * w / total))
    rng = random.Random(seed)
    seq = []
    for _ in range(rounds):
        rng.shuffle(multiset)
        seq += multiset
    return seq


def proc_stat(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def run_serve(workload, seed, seconds, trace, work):
    sources = []
    programs = write_programs(work, "corpus", seed)
    names = [label for _, label in programs]
    for path, _ in programs:
        with open(path, encoding="utf-8") as f:
            sources.append(f.read())
    expected = [expected_outcome(i) for i in range(len(sources))]
    sock = os.path.join(work, "genicd.sock")
    results = []
    lock = threading.Lock()
    counter = [0]
    ids = itertools.count(1)
    spans = Trace() if trace else None
    recording = [False]

    def request(client, i, rid):
        line = '{"op":"invert","id":%d,"source":"%s"}\n' % (
            rid, json_escape(sources[i]))
        t0 = now_us()
        r = client.call(line)
        t1 = now_us()
        ok = r is not None and r.get("code") == "ok" and \
            r.get("report") == expected[i] and known_verdict_ok(r["report"])
        if not ok:
            log("FAILED serve request:", names[i],
                r and (r.get("code"), r.get("error")))
        with lock:
            results.append((i, rid, t0, t1, ok, r or {}))
            if recording[0]:
                record_request(spans, client.lane, rid, t0, t1, r or {})

    def closed_loop(clients, order):
        """Each client sends its next request only after its reply, taking
        the next index of \\p order; returns when all are answered."""
        def body(client):
            while True:
                with lock:
                    k = counter[0]
                    counter[0] += 1
                if k >= len(order):
                    return
                request(client, order[k], next(ids))
        counter[0] = 0
        threads = [threading.Thread(target=body, args=(c,)) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    t0 = time.perf_counter()
    daemon = subprocess.Popen(
        [os.path.join(TOOLS, "genicd"), "--socket", sock, "--threads",
         str(NPROC)], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        clients = []
        deadline = time.time() + 30
        while not clients:
            try:
                clients = [Client(sock, lane + 1) for lane in range(NPROC)]
            except OSError:
                if time.time() > deadline or daemon.poll() is not None:
                    raise
                time.sleep(0.01)
        # Warm-up pass: every program once, cold.
        closed_loop(clients, list(range(len(sources))))
        setup_s = time.perf_counter() - t0

        def metrics_doc():
            r = clients[0].call('{"op":"metrics","id":0}\n')
            return json.loads(r["payload"])

        before = metrics_doc()
        # A traced run makes two passes (see below) of half the length.
        order = zipf_sequence(seed, rounds=2 if trace else 4)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds or \
                (trace and len(passes) < 2):
            # In a traced run the second pass records spans; the first is
            # its untraced reference.
            recording[0] = trace and len(passes) == 1
            first = len(results)
            cpu0 = proc_stat(daemon.pid)
            closed_loop(clients, order)
            cpu = proc_stat(daemon.pid) - cpu0
            batch = results[first:]
            # Closed loop with no think time: every client is busy from its
            # first send to its last reply, so client-busy time per client
            # is the pass's wall time without the idle tail of the slowest
            # client (Little's law: throughput = clients / mean latency).
            busy = sum(t1 - t0 for _, _, t0, t1, _, _ in batch) / 1e6
            passes.append((busy / len(clients), cpu, batch))
        after = metrics_doc()
        rss = proc_hwm_mb(daemon.pid)
        for c in clients:
            c.close()
        shutdown = Client(sock)
        shutdown.call('{"op":"shutdown","id":0}\n')
        shutdown.close()
        daemon.wait(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    measured = [r for _, _, batch in passes for r in batch]
    attempted = len(results)
    failed = sum(1 for r in results if not r[4])
    lat = [(t1 - t0) / 1e3 for _, _, t0, t1, ok, _ in measured if ok]
    wall = median([w for w, _, _ in passes])
    ok_per_pass = median([sum(1 for r in b if r[4]) for _, _, b in passes])
    tail = tail_percentile(lat)
    print("serve_rps %.3f 1/s (%d clients, %d requests/pass, %d pass(es))"
          % (ok_per_pass / wall, len(clients), len(order), len(passes)))
    print("serve_p50_ms %.1f ms over %d requests" % (median(lat), len(lat)))
    if len(lat) >= 100:
        print("serve_p90_ms %.1f ms" % statistics.quantiles(lat, n=10)[-1])
    if tail:
        print("serve_p%.0f_ms %.1f ms (highest percentile with >= 10 "
              "samples beyond it)" % tail)
    if not trace:
        return {"setup_s": setup_s, "wall_s": wall,
                "cpu_s": median([c for _, c, _ in passes]),
                "peak_rss_mb": rss, "op_p50_ms": median(lat)}, \
            attempted, failed

    # Traced run: the first measured pass is the untraced reference, the
    # second gets client spans plus the server-reported phases laid out
    # inside each request's span.
    untraced, traced = passes[0][0], passes[1][0]
    ex = Exported()
    ex.add(after)
    ex.add(before, -1)
    m = {k: 0.0 for k in PER_LAYER}
    ex.layer_metrics(m)
    hits = ex.get("serve.pool.hits")
    lookups = hits + ex.get("serve.pool.misses")
    m["engine.warm_ratio"] = hits / lookups if lookups else 0.0
    m["engine.pool.busy_misses"] = ex.get("serve.pool.busy_misses")
    m["engine.pool.evictions"] = ex.get("serve.pool.evictions")
    m["serve.sheds"] = ex.get("serve.overloaded")
    m["serve.queue_ms"] = median([r.get("queueUs", 0) / 1e3
                                  for *_, r in measured])
    m["serve.overhead_ms"] = median(
        [((t1 - t0) - r.get("totalUs", 0) - r.get("queueUs", 0)) / 1e3
         for _, _, t0, t1, _, r in measured])
    for short, key, total in (("det", "detUs", "transducer.det_s"),
                              ("inj", "injUs", "transducer.inj_s"),
                              ("inv", "invUs", "sygus.invert_s")):
        m["serve.phase_ms." + short] = median([r.get(key, 0) / 1e3
                                               for *_, r in measured])
        m[total] = sum(r.get(key, 0) for *_, r in measured) / 1e6
    m["trace.overhead_ratio"] = traced / untraced - 1
    return finish_trace(workload, spans, m, work), attempted, failed


def record_request(trace, lane, rid, t0, t1, r):
    """A request's client span, with the server-reported queue wait and
    phase times laid out in order inside it (genicd reports durations, not
    start times)."""
    root = trace.add("serve.request", rid, 0, t0, t1 - t0, lane)
    at = t0
    for name, key in (("engine.queue", "queueUs"),
                      ("transducer.det", "detUs"),
                      ("transducer.inj", "injUs"),
                      ("sygus.invert", "invUs")):
        dur = min(r.get(key, 0), t1 - at)
        trace.add(name, rid, root, at, dur, lane)
        at += dur


# --- stream-codec ------------------------------------------------------------

def run_stream(workload, seed, seconds, trace, work):
    prefix = os.path.join(work, "stream")
    out = subprocess.run([HARNESS, "stream", str(seed), str(seconds),
                          "1" if trace else "0", prefix],
                         capture_output=True, text=True)
    if out.returncode != 0:
        log(out.stderr)
        sys.exit(1)
    r = json.loads(out.stdout.strip().splitlines()[-1])
    mb = r["pass_bytes"] / 1e6
    print("stream_mbps %.3f MB/s (64 KiB feeds), stream_small_mbps %.3f MB/s "
          "(1..64-byte feeds); %d codecs, %.2f MB per feed mode, %d passes"
          % (mb / r["bulk_median_s"], mb / r["small_median_s"], r["codecs"],
             mb, r["passes"]))
    print("op_p50_ms %.2f ms over %d streams" % (r["stream_median_s"] * 1e3,
                                               r["streams"]))
    if r["stream_tail_pct"]:
        print("op_p%.0f_ms %.2f ms (highest percentile with >= 10 samples "
              "beyond it)" % (r["stream_tail_pct"], r["stream_tail_s"] * 1e3))
    attempted, failed = int(r["attempted"]), int(r["failed"])
    pass_s = r["bulk_median_s"] + r["small_median_s"]
    if not trace:
        return {"setup_s": r["setup_s"], "wall_s": pass_s,
                "cpu_s": r["cpu_s"], "peak_rss_mb": r["peak_rss_mb"],
                "op_p50_ms": r["stream_median_s"] * 1e3}, attempted, failed

    t = Trace()
    t.load_harness(prefix + ".spans", 1)
    ex = Exported()
    with open(prefix + ".setup_metrics") as f:
        for doc in f.read().split("\n\x1e\n"):
            if doc.strip():
                ex.add(json.loads(doc))
    m = {k: 0.0 for k in PER_LAYER}
    ex.layer_metrics(m)
    for name, dur in (("genic.parse", "genic.parse_s"),
                      ("genic.lower", "genic.lower_s"),
                      ("transducer.det", "transducer.det_s"),
                      ("sygus.invert", "sygus.invert_s")):
        m[dur] = sum(s[5] for s in t.spans if s[0] == name) / 1e6
    m["sygus.cegis_iters"] = r["cegis_iters"]
    m["sygus.max_rule_s"] = r["max_rule_s"]
    m["runtime.compile_s"] = r["compile_s"]
    m["runtime.fused_ratio"] = r["fused_rules"] / max(1, r["rules"])
    m["runtime.rules_fired"] = r["rules_fired"]
    m["runtime.feed_calls"] = r["feed_calls"]
    m["runtime.ns_per_rule"] = pass_s * 1e9 / max(1, r["rules_fired"])
    # The first pass is traced, the rest are not.
    first = r["bulk_s"][0] + r["small_s"][0]
    rest = [b + s for b, s in zip(r["bulk_s"][1:], r["small_s"][1:])]
    m["trace.overhead_ratio"] = first / median(rest) - 1 if rest else 0.0
    return finish_trace(workload, t, m, work), attempted, failed


# --- main --------------------------------------------------------------------

def write_expected(work):
    """Regenerates perfbench/expected from the CLI at the current commit:
    each corpus program's outcome report."""
    os.makedirs(EXPECTED, exist_ok=True)
    programs = write_programs(work, "corpus", 0)
    for i, (path, label) in enumerate(programs):
        out = subprocess.run([os.path.join(TOOLS, "genic"), "invert", path,
                              "--jobs", str(NPROC)], capture_output=True,
                             text=True, check=True).stdout
        _, outcome = split_cli_output(out)
        with open(os.path.join(EXPECTED, "%02d.outcome" % i), "w",
                  encoding="utf-8") as f:
            f.write(outcome)
        log("wrote outcome of", label)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate perfbench/expected from the CLI")
    args = ap.parse_args()
    if not args.workload and not args.write_expected:
        ap.error("--workload is required")

    build()
    os.makedirs(os.path.join(BUILD, "perfbench-work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(BUILD, "perfbench-work"))
    try:
        if args.write_expected:
            write_expected(work)
            return 0
        print("host:", json.dumps(host_context(args.seed)))
        runner = {"invert-corpus": run_invert,
                  "invert-multistate": run_invert,
                  "serve-skewed": run_serve,
                  "stream-codec": run_stream}[args.workload]
        metrics, attempted, failed = runner(
            args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = {k: layer_unit(k) for k in PER_LAYER}
    else:
        units = END_TO_END
    for k in units:
        print("%-28s %14.6f %s" % (k, metrics[k], units[k]))
    print("error_rate %.4f (%d failed of %d attempted)"
          % (failed / attempted if attempted else 1.0, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
