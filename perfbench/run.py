#!/usr/bin/env python3
"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds `rtgen` and the probe
with dune, generates the workload's inputs from the seed with
`rtgen simulate` (cached per seed under .perfbench/inputs), runs the
workload against the real binary for about S seconds, verifies every
output, and prints one JSON result as the last line of stdout.

--trace 0 measures the end-to-end metrics with no tracing at all.
Every timed learn and drain runs between two runs of the fixed
reference perfbench/calib.exe and is scaled by how slowly it ran, to
take out the host's slow spells (README.md, "Calibration").
--trace 1 runs the in-process traced run (perfbench/probe.ml) instead
and reports the per-layer metrics. Metric names and units come from
BENCHMARK.json; README.md says what each one measures and which
end-to-end metric it should move.

Workloads (why each exists: README.md):
  table1-b150    rtgen learn --bound 150 -j 1, GM-like Table 1 trace
  table1-shard8  rtgen learn --bound 150 --shards 8 -j 2, same trace
  fleet-serve    rtgen serve --bound 1 --store DIR --checkpoint-every 16
                 over a 16-vehicle spool: an open-loop stage at a fixed
                 rate (latency), then unthrottled drains (throughput)

--toy shrinks every workload to seconds, for perfbench/selftest.py.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = ".perfbench"                  # inputs cache and scratch, git-ignored
RTGEN = "_build/default/bin/rtgen.exe"
PROBE = "_build/default/perfbench/probe.exe"
CALIB = "_build/default/perfbench/calib.exe"

SHARDS, SHARD_JOBS = 8, 2
FLEET, FLEET_TASKS = 16, 6            # vehicles, `simulate --tasks`
# Table 1 bound, and periods per vehicle in the live and drained spools
SIZES = {"full": {"bound": 150, "live": 2000, "drain": 1000},
         "toy": {"bound": 8, "live": 40, "drain": 60}}
# The open-loop rate is about a third of the drain capacity measured at
# the seed commit, low enough that a 2x slower host does not saturate
# the daemon (README.md); the p99 limit sits next to it.
FLEET_RATE = 5000.0                   # periods/s, all vehicles together
LATENCY_P99_LIMIT_MS = 100.0
SERVE_FLAGS = ["--bound", "1", "--checkpoint-every", "16"]
SETUP_SAMPLES = 15
# calibrated times are in seconds of a host where calib.exe takes this
# long (a round figure; it took 0.30 s in the baseline's fast spell)
CALIB_NOMINAL_S = 0.4


class Failed(Exception):
    """The benchmark itself cannot run (build, inputs, a hung child)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, **kw):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, **kw)
    if r.returncode != 0:
        raise Failed(f"{' '.join(cmd)} exited {r.returncode}: {r.stderr[-400:]}")
    return r.stdout


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".",
                        *("./" + t for t in (RTGEN, PROBE, CALIB))],
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        raise Failed("dune build failed")


def probe(*args):
    return json.loads(run_quiet([PROBE, *map(str, args)]).strip().splitlines()[-1])


# ---- inputs ----------------------------------------------------------------

def inputs(seed, size):
    """Generate (once per seed) and return the input paths plus the exact
    simulate command lines that made them."""
    live_p, drain_p = size["live"], size["drain"]
    cmds = {
        "table1": [RTGEN, "simulate", "--case-study", "--seed", str(seed),
                   "--output", "table1.trace"],
        "live": [RTGEN, "simulate", "--fleet", str(FLEET), "--tasks", str(FLEET_TASKS),
                 "--periods", str(live_p), "--seed", str(seed), "--spool", "live"],
        "drain": [RTGEN, "simulate", "--fleet", str(FLEET), "--tasks", str(FLEET_TASKS),
                  "--periods", str(drain_p), "--seed", str(seed + FLEET),
                  "--spool", "drain"],
    }
    # the cache key covers the input sizes, so resizing never reuses stale files
    base = os.path.join(STATE, "inputs", f"{seed}-{live_p}-{drain_p}")
    if not os.path.exists(os.path.join(base, "done")):
        tmp = base + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        for cmd in cmds.values():
            run_quiet([os.path.relpath(RTGEN, tmp), *cmd[1:]], cwd=tmp)
        with open(os.path.join(tmp, "table1.trace")) as f:
            header = [f.readline(), f.readline()]
        with open(os.path.join(tmp, "header.trace"), "w") as f:
            f.writelines(header)
        open(os.path.join(tmp, "done"), "w").close()
        shutil.rmtree(base, ignore_errors=True)
        os.replace(tmp, base)
    p = lambda *xs: os.path.join(base, *xs)
    files = [p("table1.trace"), p("header.trace")] + [
        p(d, f) for d in ("live", "drain") for f in sorted(os.listdir(p(d)))]
    return {
        "table1": p("table1.trace"), "header": p("header.trace"),
        "live": p("live"), "drain": p("drain"),
        "bound": size["bound"], "drain_periods": drain_p,
        "commands": {k: " ".join(["rtgen", *v[1:]]) for k, v in cmds.items()},
        "md5": {os.path.relpath(f, base): a for f, a in probe("address", *files).items()},
    }


# ---- process measurement ---------------------------------------------------

def spawn_wait(cmd, timeout=170, cwd=None):
    """Run cmd to completion through measure.py; return (wall_s, cpu_s,
    maxrss_kb, returncode) as measured around the program alone."""
    launcher = [sys.executable, os.path.join(HERE, "measure.py")]
    p = subprocess.Popen(launcher + cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as e:
        os.killpg(p.pid, signal.SIGKILL)  # the launcher and the program
        p.wait()
        raise Failed(f"{cmd[1]} timed out") from e
    if p.returncode != 0:
        raise Failed(f"measure.py: {err[-400:]}")
    wall, cpu, kb, rc = out.split()
    return float(wall), float(cpu), int(kb), int(rc)


def nearest_rank(xs, q):
    s = sorted(xs)
    return s[min(len(s), max(1, math.ceil(q * len(s)))) - 1]


def p99(xs):
    """The nearest-rank p99 when at least ten samples lie beyond it;
    with fewer samples, the highest percentile that keeps min(10, n/2)
    beyond it (the median for a handful of samples)."""
    n = len(xs)
    return nearest_rank(xs, min(0.99, 1 - min(10, n // 2) / n))


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted, self.failures = 0, []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def add_probe(self, res):
        self.attempted += res["attempted"]
        self.failures += res["failures"]


def calibrated_samples(seconds, tally, one):
    """Call one(i) -> (wall_s, cpu_s, maxrss_kb) until `seconds` are
    used up (at least three times), each call between two runs of the
    fixed reference calib.exe. A sample's wall and CPU times are scaled
    by CALIB_NOMINAL_S over the mean of the two calib times around it,
    which takes out the host's slow spells (README.md, "Calibration").
    Returns the scaled walls and CPU times, peak RSS in MB, and a dict
    of uncalibrated medians for the line before the result."""
    def calib():
        wall, _, _, rc = spawn_wait([CALIB])
        tally.check(rc == 0, f"calib exited {rc}")
        return wall

    walls, cpus, rss, refs = [], [], [], [calib()]
    t_end = time.perf_counter() + seconds
    while len(walls) < 3 or time.perf_counter() < t_end:
        wall, cpu, kb = one(len(walls))
        walls.append(wall), cpus.append(cpu), rss.append(kb / 1024)
        refs.append(calib())
    scale = [CALIB_NOMINAL_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]
    return ([w * k for w, k in zip(walls, scale)], [c * k for c, k in zip(cpus, scale)], rss,
            {"uncalibrated_wall_s": statistics.median(walls),
             "uncalibrated_cpu_s": statistics.median(cpus),
             "calib_s": statistics.median(refs), "calib_scale": statistics.median(scale)})


# ---- table1-* ----------------------------------------------------------------

def table1(inp, work, seconds, shards, tally):
    extra = ["--shards", str(SHARDS), "-j", str(SHARD_JOBS)] if shards else ["-j", "1"]
    learn = lambda trace, out: [RTGEN, "learn", "--bound", str(inp["bound"]), *extra,
                                trace, "-o", out]
    setup = []
    for _ in range(SETUP_SAMPLES):
        wall, _, _, rc = spawn_wait(learn(inp["header"], os.path.join(work, "h.model")))
        # a header-only trace has no periods to learn: learn exits 2
        tally.check(rc == 2, f"header-only learn exited {rc}, expected 2")
        setup.append(wall)
    with open(inp["table1"]) as f:
        periods = sum(1 for line in f if line.startswith("period "))
    models = []

    def one(i):
        models.append(os.path.join(work, f"m{i}.model"))
        wall, cpu, kb, rc = spawn_wait(learn(inp["table1"], models[-1]))
        tally.check(rc == 0, f"learn exited {rc}")
        return wall, cpu, kb

    walls, cpus, rss, raw = calibrated_samples(seconds, tally, one)
    tally.add_probe(probe("verify-table1", inp["table1"], *models))
    return {
        "learn_s": statistics.median(walls),
        "periods_per_s": statistics.median(periods / w for w in walls),
        # one learn is one request; every period waits for the model
        "latency_p50_ms": 1e3 * statistics.median(walls),
        "latency_p99_ms": 1e3 * p99(walls),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
    }, {"samples": len(walls), "setup_samples": len(setup), **raw}


# ---- fleet-serve -------------------------------------------------------------

def control(sock, verb):
    s = socket.socket(socket.AF_UNIX)
    try:
        s.connect(sock)
        s.sendall(verb.encode() + b"\n")
        chunks = []
        while True:
            b = s.recv(65536)
            if not b:
                return b"".join(chunks).decode()
            chunks.append(b)
    finally:
        s.close()


class Serve:
    """An `rtgen serve` child in its own directory, with a control socket."""

    def __init__(self, work, spool, extra=()):
        os.makedirs(work)
        self.work = work
        self.sock = os.path.join(work, "ctl.sock")
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            [os.path.relpath(RTGEN, work), "serve", "--spool", os.path.relpath(spool, work),
             "--out", "out", "--store", "store", "--control", "ctl.sock",
             *SERVE_FLAGS, *extra],
            cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def wait_ready(self):
        """Seconds from spawn until the control socket answers `status`."""
        deadline = self.t0 + 30
        while True:
            try:
                if control(self.sock, "status").startswith("rtgend status"):
                    return time.perf_counter() - self.t0
            except OSError:
                pass
            if self.p.poll() is not None or time.perf_counter() > deadline:
                self.kill()
                raise Failed("serve never answered status")
            time.sleep(0.0002)

    def drain(self):
        control(self.sock, "drain")
        try:
            return self.p.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.kill()
            raise Failed("serve did not exit after drain")

    def kill(self):
        self.p.kill()
        self.p.wait()


def serve_setup(work, tally):
    empty = os.path.join(work, "empty")
    os.makedirs(empty)
    times = []
    for i in range(SETUP_SAMPLES):
        s = Serve(os.path.join(work, f"setup{i}"), empty)
        times.append(s.wait_ready())
        tally.check(s.drain() == 0, "idle serve exited non-zero")
    return times


def split_periods(path):
    """Header bytes and one bytes chunk per period (from its `period` line)."""
    with open(path, "rb") as f:
        lines = f.read().splitlines(keepends=True)
    first = next(i for i, l in enumerate(lines) if l.startswith(b"period "))
    chunks, cur = [], []
    for l in lines[first:]:
        if l.startswith(b"period ") and cur:
            chunks.append(b"".join(cur))
            cur = []
        cur.append(l)
    chunks.append(b"".join(cur))
    return b"".join(lines[:first]), chunks


def open_loop(inp, work, tally):
    """Stage 1: the benchmark appends each vehicle's periods to a live
    spool on a fixed schedule (slot j: vehicle j mod N writes its next
    period at t0 + j/rate) while `serve` follows it. A period is closed
    by the next `period` line (the last one by the drain request), so
    its latency is the daemon's engine.period timestamp minus the time
    that closing write was due. Both are CLOCK_REALTIME nanoseconds."""
    ids = sorted(f[:-len(".trace")] for f in os.listdir(inp["live"]))
    split = {v: split_periods(os.path.join(inp["live"], v + ".trace")) for v in ids}
    spool = os.path.join(work, "spool")
    os.makedirs(spool)
    fds = {}
    for v in ids:
        path = os.path.join(spool, v + ".trace")
        with open(path, "wb") as f:
            f.write(split[v][0])
        fds[v] = os.open(path, os.O_WRONLY | os.O_APPEND)
    nper = len(split[ids[0]][1])
    slots = nper * len(ids)
    events = 4 * slots + 1024
    serve = Serve(os.path.join(work, "daemon"), spool,
                  ["--flight", "flight.json", "--flight-capacity", str(events)])
    try:
        serve.wait_ready()
        step = 1e9 / FLEET_RATE
        t0 = time.time_ns() + 50_000_000
        due = lambda j: t0 + int(j * step)
        late = []
        j = 0
        while j <= slots:
            now = time.time_ns()
            if now < due(j):
                time.sleep(min(due(j) - now, 1_000_000) / 1e9)
                continue
            if j == slots:
                control(serve.sock, "drain")
                late.append(time.time_ns() - due(j))
                break
            while j < slots and due(j) <= time.time_ns():
                v = ids[j % len(ids)]
                os.write(fds[v], split[v][1][j // len(ids)])
                late.append(time.time_ns() - due(j))
                j += 1
        rc = serve.p.wait(timeout=120)
    except BaseException:
        serve.kill()
        raise
    finally:
        for fd in fds.values():
            os.close(fd)
    tally.check(rc == 0, f"serve exited {rc}")
    with open(os.path.join(serve.work, "flight.json")) as f:
        flight = json.load(f)
    tally.check(flight.get("dropped", 0) == 0, "flight ring wrapped")
    fed = {}
    for e in flight["events"]:
        if e["kind"] == "engine.period":
            n = int(e["detail"].split()[0].split("=")[1])
            fed[(e["stream"], n - 1)] = e["ts_ns"]
    lat = []
    for i, v in enumerate(ids):
        for k in range(nper):
            closing = due((k + 1) * len(ids) + i) if k + 1 < nper else due(slots)
            ts = fed.get((v, k))
            tally.check(ts is not None, f"{v} period {k} never fed")
            lat.append((ts - closing) / 1e6 if ts is not None else float("inf"))
    tally.add_probe(probe("verify-fleet", inp["live"], os.path.join(serve.work, "out"),
                          os.path.join(serve.work, "store")))
    return lat, late, os.path.join(serve.work, "out")


def drains(inp, work, seconds, tally):
    """Stage 2: unthrottled drains of a pre-written spool, each with a
    fresh store, until the time is up (at least three), calibrated."""
    total = FLEET * inp["drain_periods"]
    outs = []

    def one(i):
        d = os.path.join(work, f"drain{i}")
        os.makedirs(d)
        cmd = [os.path.relpath(RTGEN, d), "serve", "--spool", os.path.relpath(inp["drain"], d),
               "--out", "out", "--store", "store", *SERVE_FLAGS,
               "--drain-after-total", str(total - FLEET)]
        wall, cpu, kb, rc = spawn_wait(cmd, cwd=d)
        tally.check(rc == 0, f"drain serve exited {rc}")
        outs.extend([os.path.join(d, "out"), os.path.join(d, "store")])
        return wall, cpu, kb

    walls, cpus, rss, raw = calibrated_samples(seconds, tally, one)
    tally.add_probe(probe("verify-fleet", inp["drain"], *outs))
    return walls, cpus, rss, total, raw


def fleet(inp, work, seconds, tally):
    setup = serve_setup(work, tally)
    t = time.perf_counter()
    lat, late, _ = open_loop(inp, work, tally)
    walls, cpus, rss, total, raw = drains(inp, work, seconds - (time.perf_counter() - t),
                                          tally)
    tail = p99(lat)
    if tail > LATENCY_P99_LIMIT_MS:
        log(f"latency p99 {tail:.1f} ms is over the {LATENCY_P99_LIMIT_MS} ms limit "
            f"at {FLEET_RATE} periods/s")
    return {
        "learn_s": statistics.median(walls),
        "periods_per_s": statistics.median(total / w for w in walls),
        "latency_p50_ms": nearest_rank(lat, 0.50),
        "latency_p99_ms": tail,
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
    }, {"drains": len(walls), "periods_per_drain": total, "latency_samples": len(lat),
        "setup_samples": len(setup), "rate_periods_per_s": FLEET_RATE,
        "latency_p99_limit_ms": LATENCY_P99_LIMIT_MS,
        "generator_late_p99_ms": nearest_rank(late, 0.99) / 1e6, **raw}


# ---- traced run ----------------------------------------------------------------

def traced(workload, inp, work, tally):
    os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
    spans = os.path.join(STATE, "spans", workload + ".txt")
    if workload == "fleet-serve":
        _, late, out = open_loop(inp, work, tally)
        res = probe("trace-fleet", inp["live"], FLEET_RATE, out, work, spans)
        late_ms = nearest_rank(late, 0.99) / 1e6
    else:
        shards = SHARDS if workload == "table1-shard8" else 1
        jobs = SHARD_JOBS if shards > 1 else 1
        res = probe("trace-table1", inp["table1"], inp["bound"], shards, jobs, spans)
        late_ms = 0.0
    tally.add_probe(res)
    m = dict(res["metrics"])
    m["bench.generator_late_ms"] = late_ms
    return m, {"spans": sum(1 for _ in open(spans)) - 1}


WORKLOADS = {
    "table1-b150": lambda inp, work, s, t: table1(inp, work, s, False, t),
    "table1-shard8": lambda inp, work, s, t: table1(inp, work, s, True, t),
    "fleet-serve": fleet,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    a = ap.parse_args()
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    build()
    inp = inputs(a.seed, SIZES["toy" if a.toy else "full"])
    print(json.dumps({"inputs": {"commands": inp["commands"], "md5": inp["md5"]}}))
    # Work directories are kept, not deleted: this filesystem discards
    # freed blocks synchronously, and removing a fleet run's ~14k small
    # store files slowed the next runs' store writes up to 2x.
    work = os.path.join(STATE, "work", f"{a.workload}-{a.seed}-{time.time_ns()}")
    os.makedirs(work)
    tally = Tally()
    if a.trace:
        values, info = traced(a.workload, inp, work, tally)
    else:
        values, info = WORKLOADS[a.workload](inp, work, a.seconds, tally)
    if a.trace:
        values["failed_ratio"] = len(tally.failures) / max(1, tally.attempted)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise Failed(f"metrics not measured: {missing}")
    for f in tally.failures:
        log("FAILED: " + f)
    print(json.dumps({"workload": a.workload, "seed": a.seed, **info}))
    correct = not tally.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failed as e:
        log(f"perfbench: {e}")
        sys.exit(2)
