"""Run one workload of the nestrix benchmark and print its metrics.

    python3 bench/run.py --workload sheaf --seed 1 --seconds 30 --trace 0

Run from the repository root; nestrix is imported from ``src/``.  The run
repeats whole passes over the workload's case list until ``--seconds``
have gone by, checks every answer outside the timed region, and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (the
median over fresh interpreters, one started after each pass and at least
nine, each importing nestrix and building the workload's inputs),
``solve_s`` (median wall time of one pass), ``case_geomean_ms`` (geometric
mean over cases of each case's median time) and ``peak_rss_mb``.  With
``--trace 1`` each case runs untraced and with every layer wrapped (see
tracing.py) in turn; the metrics are the per-layer ones, including
``trace.overhead_s``.  Metric names and units come from BENCHMARK.json.
The full record of the run is also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
MIN_SETUP_SHOTS = 9


def metric_units():
    """Name and unit of every metric, end-to-end and per-layer, as
    BENCHMARK.json at the repository root lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_nestrix():
    """Put src/ first on the path and import nestrix from there only."""
    if not os.path.isfile(os.path.join(SRC, "nestrix", "__init__.py")):
        sys.exit(f"bench: no nestrix package under {SRC}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import nestrix
    if os.path.dirname(os.path.dirname(os.path.abspath(nestrix.__file__))) \
            != SRC:
        sys.exit(f"bench: nestrix imported from {nestrix.__file__}, "
                 f"not from {SRC}")


def setup_shot(workload, seed):
    """Wall time of a fresh interpreter that imports nestrix, builds the
    workload's inputs and exits."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Outcome:
    """Attempts, failures and check problems of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []


def run_pass(cases, outcome, tracer=None):
    """One timed pass over the cases; returns each case's seconds."""
    times = []
    for case in cases:
        outcome.attempted += 1
        result, error = None, None
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = case.run()
        except Exception as exc:  # every failure is counted and reported
            error = exc
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if error is not None:
            outcome.failed += 1
            known = case.known_fault
            if known is None or not isinstance(error, known[0]) \
                    or known[1] not in str(error):
                outcome.problems.append(f"{case.name} raised {error!r}")
            continue
        try:
            found = case.check(result)
        except Exception as exc:
            found = [f"check raised {exc!r}"]
        outcome.problems += [f"{case.name}: {p}" for p in found]
    return times


def untraced_run(cases, workload, seed, seconds, outcome):
    """Whole passes until ``seconds`` have gone by, at least one, each
    followed by a set-up shot, so that the shots sample the machine over
    the whole run; then more shots up to MIN_SETUP_SHOTS."""
    passes, shots = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(cases, outcome))
        shots.append(setup_shot(workload, seed))
    while len(shots) < MIN_SETUP_SHOTS:
        shots.append(setup_shot(workload, seed))
    return passes, shots


def end_to_end(cases, passes, shots):
    solve = statistics.median(sum(p) for p in passes)
    case_medians = [statistics.median(p[i] for p in passes)
                    for i in range(len(cases))]
    geomean = math.exp(statistics.fmean(math.log(t) for t in case_medians))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": statistics.median(shots), "solve_s": solve,
               "case_geomean_ms": geomean * 1000, "peak_rss_mb": rss_mb}
    detail = {case.name: t for case, t in zip(cases, case_medians)}
    return metrics, detail


def per_layer(names, pairs, snapshots):
    """Counts from the last traced pass, times as medians over traced
    passes, and the overhead as the median traced-minus-untraced pair."""
    def median_of(field, layer):
        return statistics.median(s[field][layer] for s in snapshots)

    last = snapshots[-1]
    metrics = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name == "trace.overhead_s":
            value = statistics.median(t - u for u, t in pairs)
        elif name == "covering.attempt_yield":
            attempts = last["counts"]["covering.attempts"]
            value = last["counts"]["covering.valid_attempts"] / attempts \
                if attempts else 0.0
        elif kind == "calls":
            value = last["calls"][layer]
        elif kind == "self_s":
            value = median_of("self_s", layer)
        elif kind == "s":
            value = median_of("total_s", layer)
        else:
            value = last["counts"][name]
        metrics[name] = value
    return metrics


def traced_run(cases, seconds, names, outcome):
    """Pairs of passes until ``seconds`` have gone by; at least one pair.
    In a pair each case runs twice in a row, once untraced and once with
    the wrappers installed, the order alternating from case to case, so
    that drift of the machine's speed cancels in the paired differences.
    The wrappers are removed again after every traced run, so every
    untraced run calls the original functions."""
    from tracing import Tracer, leftover_wrappers

    tracer = Tracer()
    snapshots, pairs = [], []

    def traced(case):
        tracer.install()
        try:
            case_s = sum(run_pass([case], outcome, tracer))
        finally:
            tracer.uninstall()
        left = leftover_wrappers()
        if left:
            outcome.problems.append(f"wrappers left installed: {left}")
        return case_s

    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        tracer.reset()
        untraced_s = traced_s = 0.0
        for i, case in enumerate(cases):
            if (len(pairs) + i) % 2:
                traced_s += traced(case)
                untraced_s += sum(run_pass([case], outcome))
            else:
                untraced_s += sum(run_pass([case], outcome))
                traced_s += traced(case)
        snapshots.append({"calls": dict(tracer.calls),
                          "self_s": dict(tracer.self_s),
                          "total_s": dict(tracer.total_s),
                          "counts": dict(tracer.counts)})
        pairs.append((untraced_s, traced_s))
    return per_layer(names, pairs, snapshots), {
        "untraced_pass_s": [u for u, _ in pairs],
        "traced_pass_s": [t for _, t in pairs]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_nestrix()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    cases = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return

    outcome = Outcome()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    end_to_end_units, per_layer_units = metric_units()
    if args.trace:
        metrics, record["passes"] = traced_run(
            cases, args.seconds, per_layer_units, outcome)
        units = per_layer_units
    else:
        passes, shots = untraced_run(cases, args.workload, args.seed,
                                     args.seconds, outcome)
        metrics, record["case_median_s"] = end_to_end(cases, passes, shots)
        record["pass_s"] = [sum(p) for p in passes]
        record["setup_shots_s"] = shots
        units = end_to_end_units

    result = {"correct": not outcome.problems,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record.update(result, problems=outcome.problems)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in outcome.problems:
        print(f"problem: {problem}")
    print(f"{args.workload}: {outcome.attempted} cases attempted, "
          f"{outcome.failed} failed, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
