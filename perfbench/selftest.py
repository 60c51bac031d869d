#!/usr/bin/env python3
"""Smoke self-test for perfbench.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at toy size (run.py --toy),
untraced and traced, and checks that the last line of each run is a
correct result that carries exactly the metrics BENCHMARK.json names,
each a number with its declared unit. Then checks that run.py fails,
without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files. Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    return r if isinstance(r, dict) and "correct" in r else None


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            p = run(["--workload", w["name"], "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--toy"], ROOT)
            r = result_of(p.stdout)
            if p.returncode != 0 or r is None:
                problems.append(f"{label}: exit {p.returncode}\n{p.stderr[-2000:]}")
                continue
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(r)}")
            if not (r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1):
                problems.append(f"{label}: verification failed: {r}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = r["metrics"]
            if set(got) != set(want):
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name, {})
                if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{label}: {name} is {m}, want a number in {unit}")
            print(f"ok  {label}", flush=True)
    # only BENCHMARK.json and the benchmark's own files: must fail cleanly
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for d in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, d), os.path.join(bare, d),
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or result_of(p.stdout) is not None:
        problems.append(f"bare directory: exit {p.returncode}, stdout {p.stdout[-300:]!r}")
    else:
        print("ok  bare directory fails without a result", flush=True)
    for pr in problems:
        print("FAIL " + pr, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
