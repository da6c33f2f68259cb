#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly and prints, for every
metric of every workload, the median and quartiles over the runs and
their spread (q3 - q1) / median, next to the bound BENCHMARK.json fixes.

Run from the repository root:

    python3 benchmark/steady.py                      # 10 seeds, every workload
    python3 benchmark/steady.py --runs 5 --workloads serve_mixed
    python3 benchmark/steady.py --trace 1 --runs 2   # per-layer metrics

Each run uses another seed (first-seed, first-seed + 1, ...). The
command, run length, workloads and bounds all come from BENCHMARK.json.
Exits 1 when a run fails, reports an incorrect result, or a spread
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    ok = True
    for w in workloads:
        values = {}
        units = {}
        walls = []
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            started = time.monotonic()
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=900)
            walls.append(time.monotonic() - started)
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: incorrect result {result}", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{w} seed {seed}: {walls[-1]:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)
        print(f"\n{w}: {len(walls)} runs, {max(walls, default=0):.1f} s longest")
        print(f"  {'metric':28} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            if len(vs) >= 2:
                q1, q2, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q2 = q3 = vs[0]
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread <= bound:
                flag = "  OVER"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  >1/3"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:28} {units[name]:6} {q2:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {b:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
