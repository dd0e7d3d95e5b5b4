#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of lockdoc's two user surfaces.

    python3 perfbench/run.py --workload cli_vfs --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run builds the lockdoc
CLI and the traced runner (Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); every run works in a scratch directory
under that build directory and removes it when done.

--trace 0 drives the real user surfaces with no tracing: the `lockdoc` CLI
as a subprocess and a `lockdoc serve --listen` daemon over persistent TCP
connections. It prints the end-to-end metrics. --trace 1 replays the same
workload in-process through lockdoc_trace_run, which times the calls into
each layer's public functions, and prints the per-layer metrics. Both check
every output against the CLI's bytes; the last stdout line is one JSON
object {correct, attempted, failed, metrics}. perfbench/README.md defines
the workloads and metrics.
"""

import argparse
import filecmp
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

CHEAP_PASSES = ["check", "derive", "violations", "lock-order"]
HEAVY_PASSES = ["modes", "report"]
FORMAT_EXT = {"text": "txt", "json": "json", "html": "html"}

# Each workload: the trace the CLI flow runs on, and the serve set-up.
# Input seeds derive from --seed so one seed fixes every input. The CLI
# inputs keep every observation group of their mix (the vfs mix has its
# 446 from 15k ops, the mm mix its 17) and are small enough that a run
# times each command about fifteen times: on a shared host one command
# can take 15% more or less than the next, so a median needs many.
WORKLOADS = {
    "cli_vfs": {"cli": ("vfs", 15000)},
    "cli_mm": {"cli": ("mm", 25000)},
    "serve_mixed": {
        # The mm input is hot, so both cold inputs have one kind and size.
        "serve_inputs": [("h0", "vfs", 15000, 0), ("h1", "mm", 25000, 1),
                         ("c0", "vfs", 15000, 2), ("c1", "vfs", 15000, 3)],
        "hot": ["h0", "h1"],
        "cold": ["c0", "c1"],
    },
}

# Set-up simulates the inputs this often and reports the median: five
# times for the one trace of a CLI workload, three times for serve_mixed's
# four.
SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 3
MIN_CLI_ITERATIONS = 5
# serve_mixed runs the CLI flow on its hot vfs input this often, and for
# at least this share of --seconds.
SERVE_CLI_FLOWS = 4
SERVE_CLI_SHARE = 0.55
CHECK_REPEATS = 3
# Serve traffic per round (see traffic_plan). serve_mixed: 1 cold, 5 cheap
# and 1 heavy request, so 71% cheap, 14% heavy and 14% cold by construction.
SERVE_MIX = {"formats": ["text", "json", "html"], "cheap": 5, "heavy": 1, "conn0_hot": 2,
             "cold_alone": False}
# serve_mixed sends 24 rounds, 168 requests. Every deck of traffic_plan is
# then drawn whole (each hot input gets 2 decks of heavy and 5 of cheap
# requests), so every run sends the same requests in another order and p90,
# which falls among the heavy ones, compares like with like.
SERVE_ROUNDS = 24
# The CLI workloads' serve phase: CLI_SERVE_ROUNDS rounds of 1 cold and 12
# cheap text requests, 260 in all (7.7% cold), so p90 falls inside the warm
# latencies and the cold median has twenty samples: one reload varies by
# a quarter from the next. The cold request runs alone, so that warm and
# cold latencies stay apart.
CLI_SERVE_ROUNDS = 20
CLI_SERVE_MIX = {"formats": ["text"], "cheap": 12, "heavy": 0, "conn0_hot": 6,
                 "cold_alone": True}
COMMAND_TIMEOUT_S = 150
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")


class BenchError(Exception):
    pass


def log(message):
    print("perfbench: " + message, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


# --- host and build ---------------------------------------------------------

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def cmake_build_type(tree):
    """The CMAKE_BUILD_TYPE of a build tree, as scripts/bench_common.sh reads it."""
    try:
        with open(os.path.join(tree, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "unknown"
    except OSError:
        pass
    return "unknown"


def require_optimized(tree):
    """Refuses an unoptimized build tree unless LOCKDOC_BENCH_ALLOW_DEBUG=1."""
    build_type = cmake_build_type(tree)
    if build_type in OPTIMIZED_BUILD_TYPES:
        return build_type
    if os.environ.get("LOCKDOC_BENCH_ALLOW_DEBUG", "0") != "1":
        raise BenchError(
            "refusing to benchmark a '%s' build tree (%s); reconfigure with "
            "-DCMAKE_BUILD_TYPE=Release (or RelWithDebInfo), or set "
            "LOCKDOC_BENCH_ALLOW_DEBUG=1 to record annotated debug numbers" % (build_type, tree))
    print("perfbench: WARNING benchmarking a '%s' build; numbers are not comparable"
          % build_type, file=sys.stderr)
    return build_type


def build(tree, jobs):
    os.makedirs(tree, exist_ok=True)
    build_log = os.path.join(tree, "perfbench-build.log")
    with open(build_log, "w") as out:
        if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True, timeout=600)
        build_type = require_optimized(tree)
        subprocess.run(["cmake", "--build", tree, "-j", str(jobs), "--target", "lockdoc_cli",
                        "lockdoc_trace_run"],
                       stdout=out, stderr=subprocess.STDOUT, check=True, timeout=850)
    return build_type


def source_digest():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# --- processes --------------------------------------------------------------

class Tally:
    """Operations attempted and failed; a failure is a non-zero exit, a
    status=error answer or a byte mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lock = threading.Lock()

    def record(self, ok, what):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print("perfbench: FAILED " + what, file=sys.stderr, flush=True)
        return ok


class Bench:
    def __init__(self, args, tree, work):
        self.args = args
        self.lockdoc = os.path.join(tree, "tools", "lockdoc")
        self.trace_run = os.path.join(tree, "lockdoc_trace_run")
        self.work = work
        self.tally = Tally()
        self.jobs = min(4, os.cpu_count() or 1)
        self.workers = min(2, os.cpu_count() or 1)
        # The daemon's --jobs: its workers share the CPUs rather than
        # oversubscribe them, so a reload does not starve the other worker.
        self.serve_jobs = max(1, (os.cpu_count() or 1) // self.workers)
        self.stderr_log = os.path.join(work, "stderr.log")

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def ops(self, base):
        return max(200, int(base * self.args.ops_scale))

    def cli(self, argv, stdout_path=None):
        """Runs one lockdoc command; returns (ok, wall seconds, peak RSS in MB)."""
        with open(stdout_path or os.devnull, "wb") as out, open(self.stderr_log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([self.lockdoc] + argv, stdout=out, stderr=err)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = self.tally.record(proc.returncode == 0, "lockdoc %s exited %d" % (
            " ".join(argv[:2]), proc.returncode))
        return ok, wall, usage.ru_maxrss / 1024.0

    def same_bytes(self, a, b, what):
        ok = os.path.exists(a) and os.path.exists(b) and filecmp.cmp(a, b, shallow=False)
        return self.tally.record(ok, what + " (%s vs %s)" % (a, b))

    def simulate(self, kind, ops, seed, out):
        argv = ["simulate", "--out", out, "--ops", str(ops), "--seed", str(seed)]
        if kind == "mm":
            argv += ["--workload", "mm"]
        return self.cli(argv)[1]

    def jobs_flag(self):
        return ["--jobs", str(self.jobs)]


class Daemon:
    """One `lockdoc serve --listen 127.0.0.1:0` process over a fresh spool."""

    def __init__(self, bench, spool, max_resident):
        self.bench = bench
        self.spool = spool
        os.makedirs(os.path.join(spool, "incoming"), exist_ok=True)
        self.out_path = spool + ".stdout"
        self.err_path = spool + ".stderr"
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [bench.lockdoc, "serve", spool, "--listen", "127.0.0.1:0", "--poll-ms", "10",
                 "--workers", str(bench.workers), "--jobs", str(bench.serve_jobs),
                 "--max-resident", str(max_resident)], stdout=out, stderr=err)
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None:
            with open(self.err_path) as err:
                for line in err:
                    if "listening on" in line:
                        self.port = int(line.strip().rsplit(":", 1)[1])
            if self.port is None:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise BenchError("serve did not start; see " + self.err_path)
                time.sleep(0.005)

    def ingest(self, files):
        """Drops {name: path} into incoming/ and waits for every ack."""
        for name, path in files.items():
            os.link(path, os.path.join(self.spool, "incoming", name + os.path.splitext(path)[1]))
        deadline = time.monotonic() + COMMAND_TIMEOUT_S
        for name in files:
            ack = os.path.join(self.spool, "responses", name + ".ingest.meta")
            while not os.path.exists(ack):
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise BenchError("serve did not ingest " + name)
                time.sleep(0.002)
            with open(ack) as f:
                self.bench.tally.record(f.read().startswith("status=ok"), "ingest " + name)

    def snapshot(self, name):
        return os.path.join(self.spool, "state", "snapshots", name + ".lockdb")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM, wait, and return the stats line's counters."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        stats = {}
        with open(self.out_path) as out:
            for line in out:
                if line.startswith("ingested="):
                    stats = {k: int(v) for k, v in (kv.split("=") for kv in line.split())}
        return stats


class Connection:
    """A persistent framed connection: u32 big-endian length + payload."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)

    def _read_exact(self, n):
        chunks = []
        while n > 0:
            chunk = self.sock.recv(min(n, 1 << 20))
            if not chunk:
                raise BenchError("serve closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self):
        (length,) = struct.unpack(">I", self._read_exact(4))
        return self._read_exact(length)

    def ask(self, text):
        payload = text.encode()
        self.sock.sendall(struct.pack(">I", len(payload)) + payload)
        return self._read_frame(), self._read_frame()

    def close(self):
        self.sock.close()


def request_text(snap, pass_name, fmt):
    text = "pass=%s\ninput=%s\n" % (pass_name, snap)
    return text + ("format=%s\n" % fmt if fmt != "text" else "")


def traffic_plan(mix, hot, cold, rounds, seed):
    """The serve traffic as a list of steps; a step is one fixed list of
    requests per connection.

    `mix` gives, per round, the cheap and heavy hot requests, their formats
    and how many of the cheap ones connection 0 sends. Every round has the
    same shape. Connection 0 sends the cold `check` and then `conn0_hot`
    cheap requests cycling through the hot snapshots; connection 1 sends
    the heavy requests and then the other cheap ones. With `cold_alone`
    the cold request is a step of its own, so no hot request waits on a
    reload. After a cold request
    every hot snapshot is touched, so the next cold request names the cold
    snapshot that is not resident while the other one is least recently
    used: each cold request evicts exactly once. Each (connection, hot
    snapshot, kind) draws its (pass, format) pairs from its own deck,
    which holds every pair once and is reshuffled by `seed` when empty. So
    the mix is set by the plan, not by how fast the daemon answers, and
    the seed changes the order only.
    """
    rng = random.Random(seed * 1009)
    decks = {}

    def draw(conn, snap, kind):
        deck = decks.setdefault((conn, snap, kind), [])
        if not deck:
            deck.extend((p, f) for p in (HEAVY_PASSES if kind == "heavy" else CHEAP_PASSES)
                        for f in mix["formats"])
            rng.shuffle(deck)
        return (kind, snap) + deck.pop()

    plan = []  # plan[step] = [connection 0's requests, connection 1's requests]
    for r in range(rounds):
        own_cold = [("cold", cold[(r + 1) % len(cold)], "check", "text")]
        own = [draw(0, hot[i % len(hot)], "cheap") for i in range(mix["conn0_hot"])]
        kinds = ["heavy"] * mix["heavy"] + ["cheap"] * (mix["cheap"] - mix["conn0_hot"])
        other = [draw(1, hot[(r + i) % len(hot)], kind) for i, kind in enumerate(kinds)]
        if mix["cold_alone"]:
            plan += [[own_cold, []], [own, other]]
        else:
            plan.append([own_cold + own, other])
    return plan


def serve_traffic(bench, daemon, refs, hot, cold, mix, rounds, seed):
    """Sends traffic_plan() from one process over two persistent
    connections, step by step: both connections send their share of a
    step concurrently, and the next step starts when both are done.
    `refs(snap, pass, fmt)` gives the CLI's bytes for each answer.
    Returns [(kind, seconds)] per request and the wall time of the steps.
    """
    plan = traffic_plan(mix, hot, cold, rounds, seed)
    samples = []
    lock = threading.Lock()
    barrier = threading.Barrier(2)
    errors = []

    def client(index, conn):
        try:
            for requests in plan:
                for kind, snap, pass_name, fmt in requests[index]:
                    start = time.perf_counter()
                    meta, out = conn.ask(request_text(snap, pass_name, fmt))
                    elapsed = time.perf_counter() - start
                    ok = meta.startswith(b"status=ok") and out == refs(snap, pass_name, fmt)
                    bench.tally.record(ok, "serve %s %s %s" % (pass_name, snap, fmt))
                    with lock:
                        samples.append((kind, elapsed))
                barrier.wait()
        except Exception as error:  # noqa: BLE001 - reported as a failure below
            errors.append(error)
            barrier.abort()

    conns = [Connection(daemon.port) for _ in range(2)]
    try:
        # Warm-up (untimed): load the first cold snapshot, then every hot one
        # with each pass, so the rounds start with the store full and the
        # lazy indexes built.
        hot_passes = CHEAP_PASSES + (HEAVY_PASSES if mix["heavy"] else [])
        for snap in [cold[0]] + hot:
            for pass_name in hot_passes if snap in hot else ["check"]:
                meta, out = conns[0].ask(request_text(snap, pass_name, "text"))
                bench.tally.record(
                    meta.startswith(b"status=ok") and out == refs(snap, pass_name, "text"),
                    "serve warm-up %s %s" % (pass_name, snap))
        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(i, c)) for i, c in enumerate(conns)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(1.0, start + COMMAND_TIMEOUT_S - time.perf_counter()))
            if thread.is_alive():
                errors.append(BenchError("serve traffic did not finish"))
                barrier.abort()
                for conn in conns:
                    conn.sock.shutdown(socket.SHUT_RDWR)
                thread.join()
        wall = time.perf_counter() - start
    finally:
        for conn in conns:
            conn.close()
    for error in errors:
        bench.tally.record(False, "serve client: %r" % error)
    return samples, wall


def serve_metrics(bench, daemon, samples, wall):
    """Reads the daemon's peak RSS, stops it, checks that every cold request
    evicted exactly once, and returns the serve metrics."""
    latencies = sorted(s for _, s in samples)
    colds = [s for kind, s in samples if kind == "cold"]
    peak = daemon.peak_rss_mb()
    stats = daemon.stop()
    bench.tally.record(stats.get("evictions") == len(colds),
                       "serve evictions %s == cold requests %d"
                       % (stats.get("evictions"), len(colds)))
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) >= 2 else [0.0] * 9
    counts = [(kind, sum(1 for k, _ in samples if k == kind))
              for kind in ("cheap", "heavy", "cold")]
    shares = " ".join("%s=%d (%.1f%%)" % (kind, n, 100.0 * n / max(1, len(samples)))
                      for kind, n in counts)
    log("samples serve_cold_ms n=%d [%s]" % (len(colds), " ".join("%.4g" % (s * 1000.0)
                                                                  for s in colds)))
    log("serve requests=%d %s wall_s=%.3f evictions=%s answered_ok=%s answered_error=%s"
        % (len(samples), shares, wall, stats.get("evictions"), stats.get("answered_ok"),
           stats.get("answered_error")))
    return {
        "serve_rps": len(samples) / wall,
        "serve_p50_ms": median(latencies) * 1000.0,
        "serve_p90_ms": deciles[8] * 1000.0,
        "serve_cold_p50_ms": median(colds) * 1000.0,
        "serve_peak_rss_mb": peak,
    }


def file_refs(ref_dir_of):
    """refs(snap, pass, fmt) over the CLI outputs ref_dir_of(snap)/<pass>.<ext>."""
    cache = {}

    def refs(snap, pass_name, fmt):
        key = (ref_dir_of(snap), pass_name, fmt)
        if key not in cache:
            path = os.path.join(key[0], "%s.%s" % (pass_name, FORMAT_EXT[fmt]))
            with open(path, "rb") as f:
                cache[key] = f.read()
        return cache[key]
    return refs


# --- end-to-end workloads ---------------------------------------------------

def cli_analyze(bench, db, out_dir, fmt="text"):
    argv = ["analyze", db, "--out-dir", out_dir] + bench.jobs_flag()
    if fmt != "text":
        argv += ["--format", fmt]
    return bench.cli(argv)


def cli_pass(bench, pass_name, db, ref_dir):
    """Standalone `lockdoc <pass> DB`; its stdout must equal analyze's file."""
    out = os.path.join(bench.work, "stdout.%s" % pass_name)
    _, wall, _ = bench.cli([pass_name, db] + bench.jobs_flag(), out)
    bench.same_bytes(out, os.path.join(ref_dir, pass_name + ".txt"),
                     "%s stdout equals analyze --out-dir" % pass_name)
    return wall


def cli_flow(bench, trace, db, ref_dir, times):
    """The analyst flow once: import, analyze (full suite, text, into
    ref_dir), then standalone check and report. Appends each wall time.
    `check` is the shortest command and varies most from process to
    process, so it runs CHECK_REPEATS times."""
    times["import_s"].append(
        bench.cli(["import", trace, "--out", db] + bench.jobs_flag())[1])
    _, wall, rss = cli_analyze(bench, db, ref_dir)
    times["analyze_s"].append(wall)
    times["analyze_peak_rss_mb"].append(rss)
    for _ in range(CHECK_REPEATS):
        times["check_s"].append(cli_pass(bench, "check", db, ref_dir))
    times["report_s"].append(cli_pass(bench, "report", db, ref_dir))


def cli_times():
    return {"import_s": [], "analyze_s": [], "check_s": [], "report_s": [],
            "analyze_peak_rss_mb": []}


def medians(times):
    for name, values in times.items():
        log("samples %s n=%d [%s]" % (name, len(values), " ".join("%.4g" % v for v in values)))
    return {name: median(values) for name, values in times.items()}


def run_cli_workload(bench, spec, seconds, seed):
    kind, base_ops = spec["cli"]
    ops = bench.ops(base_ops)
    trace, db, refs = bench.path("in.trace"), bench.path("in.lockdb"), bench.path("refs")
    setup = [bench.simulate(kind, ops, seed, trace) for _ in range(SETUP_REPEATS)]

    # Untimed first pass: warms the page cache and the binary.
    bench.cli(["import", trace, "--out", db] + bench.jobs_flag())

    times = cli_times()
    start = time.perf_counter()
    while (len(times["import_s"]) < MIN_CLI_ITERATIONS or
           time.perf_counter() - start < seconds):
        cli_flow(bench, trace, db, refs, times)
    metrics = medians(dict(times, setup_s=setup))
    metrics["lockdb_bytes_per_trace_byte"] = os.path.getsize(db) / os.path.getsize(trace)
    log("cli iterations=%d ops=%d workload=%s" % (len(times["import_s"]), ops, kind))

    # The serve side of the same input: the snapshot dropped under three
    # names, one hot and two cold, answering the cheap passes in text.
    daemon = Daemon(bench, bench.path("spool"), max_resident=2)
    try:
        daemon.ingest({name: db for name in ("a", "b", "c")})
        for name in ("a", "b", "c"):
            bench.same_bytes(daemon.snapshot(name), db, "serve snapshot %s equals import" % name)
        samples, wall = serve_traffic(
            bench, daemon, file_refs(lambda snap: refs), hot=["a"], cold=["b", "c"],
            mix=CLI_SERVE_MIX, rounds=CLI_SERVE_ROUNDS, seed=seed)
        metrics.update(serve_metrics(bench, daemon, samples, wall))
    finally:
        daemon.stop()
    return metrics


def run_serve_workload(bench, spec, seconds, seed):
    inputs = spec["serve_inputs"]
    hot, cold = spec["hot"], spec["cold"]
    traces = {name: bench.path(name + ".trace") for name, _, _, _ in inputs}
    daemon = None
    try:
        # Set-up is simulating the four inputs (SERVE_SETUP_REPEATS times,
        # median) plus one ingest of all four through the daemon.
        simulated = []
        for _ in range(SERVE_SETUP_REPEATS):
            start = time.perf_counter()
            for name, kind, ops, offset in inputs:
                bench.simulate(kind, bench.ops(ops), seed + offset, traces[name])
            simulated.append(time.perf_counter() - start)
        start = time.perf_counter()
        daemon = Daemon(bench, bench.path("spool"), max_resident=len(hot) + 1)
        daemon.ingest(traces)
        ingest = time.perf_counter() - start

        # The CLI's bytes for every answer come from the analyst flow. It
        # runs on the hot vfs input, SERVE_CLI_FLOWS times and until
        # SERVE_CLI_SHARE of --seconds has passed. The other inputs are
        # imported and analyzed once, untimed. Every snapshot the daemon
        # ingested must equal the CLI's import.
        ref_dirs = {name: bench.path("refs", name) for name in traces}
        dbs = {name: bench.path(name + ".lockdb") for name in traces}
        timed = hot[0]
        times = cli_times()
        start = time.perf_counter()
        flows = 0
        while flows < SERVE_CLI_FLOWS or time.perf_counter() - start < seconds * SERVE_CLI_SHARE:
            cli_flow(bench, traces[timed], dbs[timed], ref_dirs[timed], times)
            flows += 1
        log("cli flows=%d on %s" % (flows, timed))
        for name in traces:
            if name != timed:
                bench.cli(["import", traces[name], "--out", dbs[name]] + bench.jobs_flag())
                cli_analyze(bench, dbs[name], ref_dirs[name])
            bench.same_bytes(daemon.snapshot(name), dbs[name],
                             "serve snapshot %s equals import" % name)
            if name in hot:
                for fmt in ("json", "html"):
                    cli_analyze(bench, dbs[name], ref_dirs[name], fmt)
        metrics = medians(dict(times, simulate_s=simulated))
        metrics["setup_s"] = metrics.pop("simulate_s") + ingest
        log("set-up ingest_s=%.4f" % ingest)
        metrics["lockdb_bytes_per_trace_byte"] = (
            sum(os.path.getsize(daemon.snapshot(name)) for name in traces) /
            sum(os.path.getsize(path) for path in traces.values()))
        samples, wall = serve_traffic(
            bench, daemon, file_refs(lambda snap: ref_dirs[snap]), hot=hot, cold=cold,
            mix=SERVE_MIX, rounds=SERVE_ROUNDS, seed=seed)
        metrics.update(serve_metrics(bench, daemon, samples, wall))
    finally:
        if daemon is not None:
            daemon.stop()
    return metrics


# --- traced run -------------------------------------------------------------

def run_traced(bench, spec, seed):
    """CLI references first (their walls are the ratio numerators), then
    the in-process replay with spans."""
    refs = bench.path("refs")
    if "cli" in spec:
        kind, base_ops = spec["cli"]
        inputs = [("main", kind, bench.ops(base_ops), seed)]
        analyzed, serve = "main", {"a": "main", "b": "main", "c": "main"}
        hot, cold, drop = ["a"], ["b", "c"], "lockdb"
    else:
        inputs = [(n, k, bench.ops(o), seed + off) for n, k, o, off in spec["serve_inputs"]]
        analyzed, serve = spec["hot"][0], {n: n for n, _, _, _ in inputs}
        hot, cold, drop = spec["hot"], spec["cold"], "trace"
    walls = {}
    for name, kind, ops, input_seed in inputs:
        trace, db = bench.path("cli_%s.trace" % name), bench.path("cli_%s.lockdb" % name)
        ref_dir = os.path.join(refs, name)
        bench.simulate(kind, ops, input_seed, trace)
        bench.cli(["import", trace, "--out", db] + bench.jobs_flag())
        if name == analyzed:
            walls["analyze"] = cli_analyze(bench, db, ref_dir)[1]
            for fmt in ("json", "html"):
                cli_analyze(bench, db, ref_dir, fmt)
            walls["check"] = cli_pass(bench, "check", db, ref_dir)
        else:
            os.makedirs(ref_dir, exist_ok=True)
            bench.cli(["check", db] + bench.jobs_flag(), os.path.join(ref_dir, "check.txt"))

    argv = [bench.trace_run, "--work", bench.work, "--refs", refs,
            "--inputs", ",".join("%s:%s:%d:%d" % i for i in inputs),
            "--analyze", analyzed, "--serve", ",".join("%s=%s" % kv for kv in serve.items()),
            "--hot", ",".join(hot), "--cold", ",".join(cold), "--serve-drop", drop,
            "--jobs", str(bench.jobs), "--workers", str(bench.workers)]
    with open(bench.stderr_log, "ab") as err:
        got = subprocess.run(argv, stdout=subprocess.PIPE, stderr=err, timeout=COMMAND_TIMEOUT_S)
    bench.tally.record(got.returncode == 0, "lockdoc_trace_run exited %d" % got.returncode)
    traced = json.loads(got.stdout.decode().strip().splitlines()[-1])
    with bench.tally.lock:
        bench.tally.attempted += traced["attempted"]
        bench.tally.failed += traced["failed"]
    for name, _, _, _ in inputs:
        bench.same_bytes(bench.path("%s.trace" % name), bench.path("cli_%s.trace" % name),
                         "traced simulate equals the CLI's trace")
    bench.same_bytes(bench.path("%s.lockdb" % analyzed), bench.path("cli_%s.lockdb" % analyzed),
                     "traced import equals the CLI's .lockdb")

    m = traced["metrics"]
    ratios = {
        "ratio.socket_vs_spool": ("serve.socket_warm_ms", m["serve.socket_warm_ms"],
                                  "serve.spool_warm_ms", m["serve.spool_warm_ms"]),
        "ratio.check_vs_load": ("cli check_s", walls["check"],
                                "core.snapshot_load_s", m["core.snapshot_load_s"]),
        "ratio.analyze_vs_spans": ("cli analyze_s", walls["analyze"],
                                   "analysis spans_s", m["analyze_spans_s"]),
    }
    for ratio, (num_name, num, den_name, den) in ratios.items():
        m[ratio] = num / den if den > 0 else 0.0
        log("%s = %.4g (%s %.6g / %s %.6g)" % (ratio, m[ratio], num_name, num, den_name, den))
    log("traced wall_s=%.4f spans=%d unattributed_s=%.6f (%.2f%% of wall) tracing_overhead_s=%.6f"
        % (m["traced_wall_s"], m["span_count"], m["unattributed_s"],
           100.0 * m["unattributed_s"] / m["traced_wall_s"], m["tracing_overhead_s"]))
    return m


# --- main -------------------------------------------------------------------

def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    return declared["end_to_end"], declared["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Reduced-scale runs for perfbench/test_run.py: multiplies every op count.
    parser.add_argument("--ops-scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args()

    missing = [p for p in ("CMakeLists.txt", "src", os.path.join("tools", "lockdoc.cc"),
                           "BENCHMARK.json") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a lockdoc source checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2

    end_to_end, per_layer = load_declared()
    tree = build_dir()
    try:
        build_type = build(tree, os.cpu_count() or 1)
    except (BenchError, subprocess.SubprocessError) as error:
        print("perfbench: build failed: %s (log: %s)" % (error, os.path.join(
            tree, "perfbench-build.log")), file=sys.stderr)
        return 1

    work = os.path.join(os.path.dirname(tree), "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(args, tree, work)
    spec = WORKLOADS[args.workload]
    log("host " + json.dumps({
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "build_type": build_type,
        "commit": commit_id(), "source_sha256": source_digest(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops_scale": args.ops_scale, "jobs": bench.jobs, "workers": bench.workers,
        "serve_jobs": bench.serve_jobs,
        "connections": 2, "import_flush": "fsync + atomic rename"}))
    try:
        if args.trace:
            measured = run_traced(bench, spec, args.seed)
            declared = per_layer
        elif "cli" in spec:
            measured = run_cli_workload(bench, spec, args.seconds, args.seed)
            declared = end_to_end
        else:
            measured = run_serve_workload(bench, spec, args.seconds, args.seed)
            declared = end_to_end
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as error:
        print("perfbench: %s failed: %r" % (args.workload, error), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = bench.tally
    log("error_rate %.6g (%d failed of %d operations)"
        % (tally.failed / max(1, tally.attempted), tally.failed, tally.attempted))
    metrics = {}
    for metric in declared:
        value = measured.get(metric["name"])
        if value is None:
            print("perfbench: metric %s was not measured" % metric["name"], file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        log("metric %-34s %14.6f %s" % (metric["name"], value, metric["unit"]))
    print(json.dumps({"correct": tally.failed == 0, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
