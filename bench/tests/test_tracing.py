"""Tracing wraps and then fully restores nestrix, a traced run reports
every per-layer metric, and a known fault counts only for its reason."""

import os
import shutil
import subprocess
import sys

import nestrix.exact
import nestrix.sheaves
from nestrix.covering import CoveringError
import run
import workloads
from tracing import LAYERS, Tracer, leftover_wrappers

ROOT = os.path.dirname(run.BENCH)


def originals():
    out = {}
    for mod_name, attr, _, _ in LAYERS:
        module = sys.modules[f"nestrix.{mod_name}"]
        owner, _, name = attr.rpartition(".")
        holder = getattr(module, owner) if owner else module
        out[(mod_name, attr)] = vars(holder)[name]
    return out


def test_traced_pass_leaves_nothing_wrapped():
    before = originals()
    cases = [c for c in workloads.build_sheaf(3)
             if c.name in ("pipelines-sierpinski", "compare-poset-0")]
    outcome = run.Outcome()
    tracer = Tracer()
    tracer.install()
    try:
        assert leftover_wrappers()
        run.run_pass(cases, outcome, tracer)
    finally:
        tracer.uninstall()
    assert outcome.problems == []
    assert tracer.calls["exact.smith"] > 0
    assert tracer.calls["sheaves.compare"] == 3
    assert tracer.counts["finite_space.opens"] == 0  # spaces built before
    assert leftover_wrappers() == []
    assert originals() == before
    assert nestrix.sheaves.smith_normal_form \
        is nestrix.exact.smith_normal_form


def test_wrappers_cover_from_imports():
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = set(leftover_wrappers())
    finally:
        tracer.uninstall()
    assert "nestrix.sheaves.smith_normal_form" in wrapped
    assert "nestrix.simplicial.solve_boundary" in wrapped
    assert "nestrix.covering.region_contains" in wrapped
    assert "nestrix.exact.IntMatrix.apply" in wrapped
    assert "nestrix.finite_space.FiniteSpace.from_basis" in wrapped


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    tracer.install()
    try:
        next(c for c in workloads.build_sheaf(1)
             if c.name == "pipelines-sierpinski").run()
    finally:
        tracer.uninstall()
    assert not any(tracer.calls.values())


def test_traced_run_reports_every_per_layer_metric():
    cases = [c for c in workloads.build_projection(1)
             if c.name in ("boundary-segment", "projection-k1-r2=2")]
    _, names = run.metric_units()
    outcome = run.Outcome()
    metrics, passes = run.traced_run(cases, 0, names, outcome)
    assert outcome.problems == []
    assert list(metrics) == list(names)
    assert len(passes["untraced_pass_s"]) == len(passes["traced_pass_s"])
    assert metrics["symbolic.chain_in_c_eta.self_s"] > 0
    assert metrics["covering.attempts"] > 0
    assert leftover_wrappers() == []


def test_known_fault_must_fail_for_its_reason():
    def raising(message):
        def run_case():
            raise CoveringError(message)
        return workloads.Case("fault", run_case, lambda r: [],
                              (CoveringError, "zero-face-pin"))

    outcome = run.Outcome()
    run.run_pass([raising("last failure: ('zero-face-pin', {})")], outcome)
    assert (outcome.failed, outcome.problems) == (1, [])
    run.run_pass([raising("no covering within subdivision cap 3")], outcome)
    assert outcome.failed == 2 and len(outcome.problems) == 1


def test_run_refuses_a_tree_without_nestrix(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sheaf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
