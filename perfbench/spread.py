"""Run-to-run spread of the end-to-end metrics, scaled and raw.

    python3 perfbench/spread.py --workload NAME [--first-seed 1]

Runs run.py RUNS times, one run at a time, with seeds first-seed,
first-seed + 1, ... and BENCHMARK.json's run_seconds.  Prints for each
metric the median of the runs and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, beside the bound BENCHMARK.json fixes.  The same is printed for
the raw timings, which is how README.md shows that the raw figures would
not hold the bounds.  All runs go to perfbench/out/spread-NAME.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=180, check=True).stdout.splitlines()
        detail, result = json.loads(out[-2])["detail"], json.loads(out[-1])
        runs.append({"seed": seed, "detail": detail, "result": result})
        m = result["metrics"]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in m.items()), flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':16} {'median':>11} {'spread':>7} {'bound':>6}"
          f" {'raw median':>11} {'raw spread':>10}")
    for m in bench["end_to_end"]:
        name = m["name"]
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        raw = [r["detail"]["raw"].get(name) for r in runs]
        line = f"{name:16} {statistics.median(vals):11.5g} {spread(vals):7.3f} {m['bound']:6.2f}"
        if None not in raw:
            line += f" {statistics.median(raw):11.5g} {spread(raw):10.3f}"
        print(line)
    ys = [r["detail"]["yardstick_ms"] for r in runs]
    print(f"{'yardstick_ms':16} {statistics.median(ys):11.5g} {spread(ys):7.3f}")
    with open(os.path.join(HERE, "out", f"spread-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(runs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
