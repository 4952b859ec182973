"""Make the benchmark's reference figures anew.

    python3 bench/reference.py

Runs bench/run.py for every workload in BENCHMARK.json with seeds 1..10
and its run_seconds, one run at a time, and prints for each end-to-end
metric its median over the seeds, its quartiles, and the spread (distance
between the quartiles as a share of the median), with the share of failed
cases.  Then it makes one traced run per workload (seed 1).  Everything is
written to ``bench/results/reference.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        rows[name] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med,
                      "unit": results[0]["metrics"][name]["unit"]}
    return rows


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            results.append(run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}"
                for k, v in results[-1]["metrics"].items()), flush=True)
        entry = {"runs": results,
                 "all_correct": all(r["correct"] for r in results),
                 "failed_share": sorted({r["failed"] / r["attempted"]
                                         for r in results}),
                 "summary": summarize(results)}
        for name, row in entry["summary"].items():
            print(f"  {workload} {name}: median {row['median']:.4g} "
                  f"{row['unit']}, quartiles {row['q1']:.4g}.."
                  f"{row['q3']:.4g}, spread {row['spread']:.3f}")
        print(f"  {workload}: all correct {entry['all_correct']}, failed "
              f"share {entry['failed_share']}", flush=True)
        entry["trace"] = run(workload, SEEDS[0], seconds, 1)
        report["workloads"][workload] = entry
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    with open(os.path.join(BENCH, "results", "reference.json"), "w") as fh:
        json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
