#!/usr/bin/env python3
"""Auric end-to-end benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 24 --trace 0

Run from the repository root. The first run builds the `auric` CLI and the
in-process probe from source into .bench_build/perfbench (CMake + Ninja,
Release). Every run works on the default CLI world (28 markets, scale 55,
13,470 carriers) and goes through the daily operation the paper describes:

  1. set-up: the replay's world and inventory up to OperationReplay::run(),
     timed from process start;
  2. an `auric serve` process, timed from start to a 200 from /healthz and
     then driven by an open-loop Poisson schedule: one second at a low and
     one at a high fixed rate, then reads at the low rate while a full
     POST /relearn runs;
  3. `auric replay` over two whole weeks with its defaults and journal
     checkpoints.

A run makes round(seconds / 5) such passes. Every sample of a metric comes
from its own process, because on a shared machine one process can run
slower than the next for its whole life, and the samples are spread over
the whole run, so a slow minute lands on a share of each metric.

Every result carries every end-to-end metric, so both workloads run all of
this; the workload decides whose set-up is setup_s and whose process is
peak_rss_mb (see README.md).

The last stdout line is the JSON result; the line before it is the hardware
and source stamp. With --trace 1 the scenario runs twice with the same seed,
first untraced and then with span output from every process; the probe then
times each layer in-process, and the metrics are the per-layer ones plus the
tracing overhead, the traced end-to-end figures minus the untraced ones.
Output checks (sampled response bodies against an in-process engine,
byte-identical weekly CSVs, zero-flip relearn audits) set "correct", and a
failed check makes the exit code 1.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
AURIC = os.path.join(BUILD, "auric")
PROBE = os.path.join(BUILD, "perfbench_probe")

WORKLOADS = ("replay", "serve")
REPLAY_DAYS = 14          # two whole weeks: the weekly relearn falls inside the window
LOW_RATE = 250.0          # req/s
HIGH_RATE = 500.0         # req/s; well below what 3 reader connections get on 4 cores (1.7-2.9K)
RATES = ("low", "high")   # the fixed-rate phases
SECONDS_PER_PASS = 5      # a run makes round(--seconds / SECONDS_PER_PASS) passes
SEARCH_START = 1000.0     # capacity search (traced runs): first trial rate, req/s,
SEARCH_TRIALS = 7         # then SEARCH_TRIALS trials of SEARCH_TRIAL_S seconds
SEARCH_TRIAL_S = 1.2

END_TO_END = [
    ("setup_s", "s"),
    ("replay_s", "s"),
    ("serve_cpu_us_per_req", "us"),
    ("relearn_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics the probe measures in-process.
PROBE_LAYERS = [
    ("netsim.topology_ms", "ms"),
    ("config.assign_ms", "ms"),
    ("core.learn_ms", "ms"),
    ("core.param_view_ms", "ms"),
    ("core.chi_square_ms", "ms"),
    ("core.voting_build_ms", "ms"),
    ("core.learn_rows", "count"),
    ("core.voting_groups", "count"),
    ("core.recommend_singular_us_p50", "us"),
    ("core.recommend_singular_us_p99", "us"),
    ("core.recommend_pairwise_us_p50", "us"),
    ("core.recommend_pairwise_us_p99", "us"),
    ("core.global_vote_ns", "ns"),
    ("core.local_vote_ns", "ns"),
    ("core.source_local_frac", "fraction"),
    ("core.source_global_frac", "fraction"),
    ("core.source_default_frac", "fraction"),
    ("core.backoff_level_mean", "level"),
    ("core.vote_accept_ratio", "ratio"),
    ("smartlaunch.plan_us", "us"),
    ("io.checkpoint_save_ms", "ms"),
    ("io.checkpoint_load_ms", "ms"),
    ("io.checkpoint_bytes", "bytes"),
    ("serve.handle_us_recommend_p50", "us"),
    ("serve.handle_us_recommend_p99", "us"),
    ("serve.handle_us_recommend_pair_p50", "us"),
    ("serve.handle_us_recommend_pair_p99", "us"),
    ("serve.handle_us_diff_p50", "us"),
    ("serve.handle_us_diff_p99", "us"),
]
# Per-layer metrics from the socket runs and the program's own spans.
RUN_LAYERS = [
    ("serve.p50_ms_low", "ms"),
    ("serve.p50_ms_high", "ms"),
    ("serve.relearn_read_p99_ms", "ms"),
    ("smartlaunch.launch_ms", "ms"),
    ("serve.transport_us", "us"),
    ("serve.p99_ms_low", "ms"),
    ("serve.p99_ms_high", "ms"),
    ("serve.max_qps", "1/s"),
    ("serve.shed_frac", "fraction"),
    ("serve.expired_frac", "fraction"),
    ("serve.peak_rss_mb_after_relearns", "MB"),
    ("bench.gen_lag_p99_ms", "ms"),
]
OVERHEAD_LAYERS = [("trace.overhead." + name, unit) for name, unit in END_TO_END]
PER_LAYER = PROBE_LAYERS + RUN_LAYERS + OVERHEAD_LAYERS


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --- build and stamp -----------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "auric_cli.cpp"))):
        raise BenchError("no Auric sources next to perfbench/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                m = re.match(r"model name\s*:\s*(.+)", line)
                if m:
                    return m.group(1).strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds: a checkout need not be a
    git repository, so the commit alone may not name the code."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "tools", "auric_cli.cpp")]
    for top in ("src", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(dirpath, n) for n in names]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def stamp():
    """The fields tools/bench_stamp.py writes, plus what names the build."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu_model": cpu_model(), "num_cpus_online": os.cpu_count(),
            "build_type": "Release", "git_commit": commit, "source_sha256": source_digest()}


# --- processes -----------------------------------------------------------------

class Children:
    """Every process the run starts; stop_all() ends and reaps the rest."""

    def __init__(self):
        self.procs = []

    def start(self, argv, **kw):
        p = subprocess.Popen(argv, **kw)
        self.procs.append(p)
        return p

    def stop_all(self):
        for p in self.procs:
            if p.poll() is None:
                p.terminate()
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()


def wait_rss(proc, timeout):
    """Waits for `proc` and returns its peak RSS in MB (from wait4)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            raise BenchError("%s did not exit in %ds" % (" ".join(proc.args[:2]), timeout))
        time.sleep(0.002)


def request(port, method, path, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


class Daemon:
    """`auric serve` with its defaults on an ephemeral port."""

    def __init__(self, children, workdir, tag, trace_out=None):
        self.log_path = os.path.join(workdir, "serve-%s.log" % tag)
        argv = [AURIC, "serve", "--port", "0"]
        if trace_out:
            argv += ["--trace-out", trace_out]
        self.t0 = time.perf_counter()
        with open(self.log_path, "w") as out:
            self.proc = children.start(argv, stdout=out, stderr=subprocess.STDOUT)
        self.port = None
        self.ready_s = None

    def wait_ready(self, timeout=60):
        """Process start to the first 200 from /healthz."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("auric serve did not start; see " + self.log_path)
            with open(self.log_path) as f:
                m = re.search(r"listening on [0-9.]+:(\d+)", f.read())
            if m:
                self.port = int(m.group(1))
            else:
                time.sleep(0.002)
        while True:
            try:
                if request(self.port, "GET", "/healthz", timeout=5)[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchError("auric serve never answered /healthz with 200")
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - self.t0
        return self

    def stop(self):
        """POST /quit; returns the drained process's peak RSS."""
        try:
            request(self.port, "POST", "/quit", timeout=10)
        except OSError:
            self.proc.send_signal(signal.SIGTERM)
        rss = wait_rss(self.proc, 30)
        if self.proc.returncode != 0:
            raise BenchError("auric serve exited with %d" % self.proc.returncode)
        return rss


def replay_setup(children, trace_out=None):
    """Process start to the probe's "ready": world, inventory and the
    OperationReplay built as `auric replay` builds them before run()."""
    argv = [PROBE, "ready-replay"]
    if trace_out:
        argv += ["--trace-out", trace_out]
    t0 = time.perf_counter()
    p = children.start(argv, stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    ready = time.perf_counter() - t0
    p.stdout.close()
    if p.wait(timeout=60) != 0 or not line.startswith("ready"):
        raise BenchError("perfbench_probe ready-replay failed")
    return ready


def run_replay(children, workdir, tag, trace_out=None):
    state = os.path.join(workdir, "state-" + tag)
    weekly = os.path.join(workdir, "weekly-%s.csv" % tag)
    # Checkpoints stay inside the checkout; fsync is off so the number
    # measures the store's code rather than the disk under the checkout.
    argv = [AURIC, "replay", "--days", str(REPLAY_DAYS), "--state-dir", state,
            "--checkpoint-fsync", "false", "--weekly-out", weekly]
    if trace_out:
        argv += ["--trace-out", trace_out]
    t0 = time.perf_counter()
    with open(os.path.join(workdir, "replay-%s.log" % tag), "w") as out:
        p = children.start(argv, stdout=out, stderr=subprocess.STDOUT)
        rss = wait_rss(p, 150)
    wall = time.perf_counter() - t0
    csv = b""
    if os.path.isfile(weekly):
        with open(weekly, "rb") as f:
            csv = f.read()
    return {"wall_s": wall, "rc": p.returncode, "rss_mb": rss, "weekly": csv, "state": state}


# --- the scenario ----------------------------------------------------------------

def plan_for(seconds, traced):
    """How many passes one run makes; the capacity search runs only in
    traced runs."""
    return {"passes": max(2, round(seconds / SECONDS_PER_PASS)), "search": traced}


def per_daemon_median(loads, name, key):
    """Median over the daemons of the median over each daemon's one-second
    windows of the phases called `name`."""
    return statistics.median(
        statistics.median(v for p in load["phases"] if p["name"] == name for v in p[key])
        for load in loads)


def quantile(values, q):
    """Nearest-rank quantile, as the probe computes it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def scenario(children, workload, seed, seconds, workdir, traced):
    plan = plan_for(seconds, traced)
    tag = "t" if traced else "u"
    out = {"checks": [], "attempted": 0, "failed": 0}

    def trace_out(name):
        """In a traced scenario every process writes its spans to a file."""
        return os.path.join(workdir, "%s.jsonl" % name) if traced else None

    def check(ok, what):
        out["checks"].append({"check": what, "ok": bool(ok)})
        if not ok:
            log("check failed: " + what)

    samples = os.path.join(workdir, "samples-%s.tsv" % tag)
    replay_setups, serve_setups, loads, serve_rss_end, replays = [], [], [], [], []
    for i in range(plan["passes"]):
        replay_setups.append(replay_setup(children, trace_out("ready-t%d" % i)))
        daemon = Daemon(children, workdir, "%s%d" % (tag, i),
                        trace_out("serve-t%d" % i)).wait_ready()
        serve_setups.append(daemon.ready_s)
        phases = (["warm:%g:0.5" % LOW_RATE]  # caches and lazy set-up; not reported
                  + ["low:%g:1" % LOW_RATE, "high:%g:1" % HIGH_RATE, "relearn:%g:1" % LOW_RATE])
        if plan["search"] and i == plan["passes"] - 1:
            # Last, and only in traced runs: its p99 <= 5 ms verdicts flip
            # with the shared machine's stalls, so it is reported per layer.
            phases.append("search:%g:%g:%d" % (SEARCH_START, SEARCH_TRIAL_S, SEARCH_TRIALS))
        drive = subprocess.run(
            [PROBE, "drive", "--port", str(daemon.port), "--daemon-pid", str(daemon.proc.pid),
             "--seed", str(seed * 16 + i), "--plan", ",".join(phases), "--samples-out", samples],
            capture_output=True, text=True, timeout=150)
        if drive.returncode != 0:
            sys.stderr.write(drive.stderr)
            raise BenchError("perfbench_probe drive failed")
        loads.append(json.loads(drive.stdout.strip().splitlines()[-1]))
        serve_rss_end.append(daemon.stop())
        replays.append(run_replay(children, workdir, "%s%d" % (tag, i),
                                  trace_out("replay-t%d" % i)))
    out["attempted"] += len(replay_setups) + len(serve_setups) + len(replays)
    out["failed"] += sum(1 for r in replays if r["rc"] != 0)
    check(all(r["rc"] == 0 for r in replays), "auric replay exits 0")
    check(replays[0]["weekly"] and all(r["weekly"] == replays[0]["weekly"] for r in replays),
          "weekly CSV byte-identical between replays")

    reads = [p for load in loads for p in load["phases"]]
    out["attempted"] += sum(p["sent"] for p in reads)
    out["failed"] += sum(p["sent"] - p["ok"] for p in reads)
    relearn_phases = [p for p in reads if p["name"] == "relearn"]
    relearns = [r for p in relearn_phases for r in p["relearns"]]
    relearn_reads = [v for p in relearn_phases for v in p["relearn_read_ms"]]
    out["attempted"] += len(relearns)
    out["failed"] += sum(1 for r in relearns if not r["swapped"])
    check(all(r["swapped"] for r in relearns), "every POST /relearn swapped")
    check(all(r["flips"] == 0 for r in relearns), "relearn audits report flips: 0")
    check(len(relearn_reads) > 0, "reads overlapped the relearns")
    check(verify_samples(workdir, samples, tag), "sampled bodies match the in-process engine")
    max_qps = loads[-1]["max_qps"]
    if plan["search"] and max_qps <= HIGH_RATE:
        log("warning: high rate %g is not below serve.max_qps %g" % (HIGH_RATE, max_qps))

    out["e2e"] = {
        "setup_s": statistics.median(replay_setups if workload == "replay" else serve_setups),
        # The whole command, set-up included: subtracting the set-up median
        # of other processes would add their spread to this one's.
        "replay_s": statistics.median(r["wall_s"] for r in replays),
        # Daemon CPU time over its low- and high-rate seconds per request
        # sent, median over the daemons.
        "serve_cpu_us_per_req": statistics.median(
            1000.0 * sum(p["daemon_cpu_ms"] for p in load["phases"] if p["name"] in RATES)
            / sum(p["sent"] for p in load["phases"] if p["name"] in RATES)
            for load in loads),
        "relearn_ms": statistics.median(r["ms"] for r in relearns),
        # The daemon's peak before the relearn: after it the peak depends on
        # how the allocator's arenas happened to fragment.
        "peak_rss_mb": (max(r["rss_mb"] for r in replays) if workload == "replay"
                        else statistics.median(l["daemon_peak_rss_mb_before_relearn"]
                                               for l in loads)),
    }
    for load in loads:
        for p in load["phases"]:
            p.pop("relearn_read_ms")  # pooled above; too bulky for the record
    out.update(loads=loads, max_qps=max_qps, relearn_read_p99_ms=quantile(relearn_reads, 0.99),
               replay_setups=replay_setups,
               serve_setups=serve_setups, replay_walls=[r["wall_s"] for r in replays],
               serve_rss_end_mb=statistics.median(serve_rss_end),
               state_dir=replays[0]["state"], plan=plan)
    return out


def verify_samples(workdir, samples, tag):
    """Sampled /recommend and /diff bodies against AuricEngine and
    LaunchController run in-process on the same world."""
    expected_path = os.path.join(workdir, "expected-%s.jsonl" % tag)
    if subprocess.run([PROBE, "expect", "--samples", samples, "--out", expected_path],
                      timeout=120).returncode != 0:
        return False
    with open(samples) as f:
        actual = [line.rstrip("\n").split("\t", 3) for line in f if line.strip()]
    with open(expected_path) as f:
        expected = [json.loads(line) for line in f]
    if len(actual) < 20 or len(actual) != len(expected):
        log("only %d sampled bodies" % len(actual))
        return False
    for (kind, carrier, neighbor, body), want in zip(actual, expected):
        if not matches(json.loads(body), want):
            log("%s carrier=%s neighbor=%s: body differs from the engine" % (kind, carrier, neighbor))
            return False
    return True


def matches(got, want):
    """Every field of `want` is in `got` with the same value; `got` may carry
    more fields (a field the daemon adds later does not fail the check)."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and matches(got[k], v)
                                             for k, v in want.items())
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches(g, w) for g, w in zip(got, want)))
    return got == want


# --- traced run -------------------------------------------------------------------

def span_mean_ms(paths, name):
    total, count = 0, 0
    for path in paths:
        with open(path) as f:
            for line in f:
                if '"name":"%s"' % name in line:
                    total += json.loads(line)["dur_ns"]
                    count += 1
    return total / count / 1e6 if count else 0.0


def layer_metrics(workload, seed, workdir, traced, untraced):
    layers_out = os.path.join(workdir, "layers.json")
    probe_trace = os.path.join(workdir, "probe.jsonl")
    if subprocess.run([PROBE, "layers", "--seed", str(seed), "--state-dir", traced["state_dir"],
                       "--save-dir", os.path.join(workdir, "ckpt"), "--out", layers_out,
                       "--trace-out", probe_trace], timeout=170).returncode != 0:
        raise BenchError("perfbench_probe layers failed")
    with open(layers_out) as f:
        layers = json.load(f)
    # Self time and critical paths per span name, from the program's own tool:
    # one replay, the daemon that also ran the capacity search, and the probe.
    for name in ("replay-t0", "serve-t%d" % (traced["plan"]["passes"] - 1), "probe"):
        path = os.path.join(workdir, name + ".jsonl")
        subprocess.run([AURIC, "tracestats", "--in", path, "--top", "0",
                        "--out", os.path.join(RESULTS, "%s-seed%d-tracestats-%s.csv" % (
                            workload, seed, name))],
                       capture_output=True, timeout=60)

    loads = traced["loads"]
    reads = [p for load in loads for p in load["phases"]]
    sent = sum(p["sent"] for p in reads)
    # A rough estimate of the listener's and HTTP's cost: the p50 socket round
    # trip at the low rate (send to response, so without the wait for a free
    # reader) minus the p50 of handle() in-process over a stream of the same
    # mix. Both are traced; the daemon's sample and the probe's differ.
    socket_p50_ms = statistics.median(
        p["send_p50_ms"] for load in loads for p in load["phases"] if p["name"] == "low")
    replay_traces = [os.path.join(workdir, "replay-t%d.jsonl" % i)
                     for i in range(traced["plan"]["passes"])]
    layers.update({
        "smartlaunch.launch_ms": span_mean_ms(replay_traces, "replay.launch"),
        "serve.transport_us": 1000.0 * socket_p50_ms - layers["serve.handle_us_mix_p50"],
        # Latency from the untraced scenario: the traced daemons write spans.
        "serve.p50_ms_low": per_daemon_median(untraced["loads"], "low", "window_p50"),
        "serve.p50_ms_high": per_daemon_median(untraced["loads"], "high", "window_p50"),
        "serve.p99_ms_low": per_daemon_median(loads, "low", "window_p99"),
        "serve.p99_ms_high": per_daemon_median(loads, "high", "window_p99"),
        "serve.max_qps": traced["max_qps"],
        "serve.relearn_read_p99_ms": traced["relearn_read_p99_ms"],
        "serve.shed_frac": sum(p["shed"] for p in reads) / sent,
        "serve.expired_frac": sum(p["expired"] for p in reads) / sent,
        "serve.peak_rss_mb_after_relearns": traced["serve_rss_end_mb"],
        "bench.gen_lag_p99_ms": max(p["gen_lag_p99_ms"]
                                    for load in loads for p in load["phases"] + load["search"]),
    })
    for name, _ in END_TO_END:
        layers["trace.overhead." + name] = traced["e2e"][name] - untraced["e2e"][name]
    return layers


# --- main -------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A SIGTERM unwinds through the finally below, which stops every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    build()
    info = stamp()
    workdir = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(RESULTS, exist_ok=True)
    children = Children()
    try:
        runs = [scenario(children, args.workload, args.seed, args.seconds, workdir, False)]
        if args.trace:
            # The untraced reference is this run's own, with the same seed
            # and seconds.
            runs.append(scenario(children, args.workload, args.seed, args.seconds, workdir, True))
            values = layer_metrics(args.workload, args.seed, workdir, runs[1], runs[0])
            units = PER_LAYER
        else:
            values = runs[0]["e2e"]
            units = END_TO_END
        correct = all(c["ok"] for r in runs for c in r["checks"])
        result = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
        }
        record = dict(info, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, result=result, runs=runs)
        with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
                args.workload, args.seed, args.trace)), "w") as f:
            json.dump(record, f, indent=1)
        print(json.dumps(dict(info, workload=args.workload, seed=args.seed)))
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        children.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("error: " + str(e))
        sys.exit(2)
