#!/usr/bin/env python3
"""Run the benchmark repeatedly and print each metric's median and quartiles.

Usage, from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--first-seed 1] [--trace 0]

Each run uses a different seed (first-seed, first-seed+1, ...). For every
workload and metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and,
for end-to-end metrics, the bound from BENCHMARK.json and whether the
spread is under a third of it. Raw results go to
$CARGO_TARGET_DIR/steady.json (default .bench_build/steady.json).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    raw = {}
    ok = True
    for w in workloads:
        runs = []
        for i in range(a.runs):
            seed = a.first_seed + i
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                                "--seconds", seconds, "--trace", str(a.trace)], stdout=subprocess.PIPE, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {seed}: run failed (exit {p.returncode})")
                ok = False
                continue
            res = json.loads(last)
            runs.append(res)
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
        raw[w] = runs
        if len(runs) < 2:
            continue
        print(f"\n{w}: {len(runs)} runs")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name)
            flag = ""
            if b is not None:
                flag = "ok" if spread < b / 3 else ("WIDE" if spread > b else "over-1/3")
            print(f"  {name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {b if b is not None else '':>6} {flag}")
        print(flush=True)
    out = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"), "steady.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
