"""Smoke test of the benchmark at tiny size; it asserts no timing.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload builds its pool, runs its first warm-up op untraced and traced,
and passes the op's output check; a known failing op is recorded as expected;
a wrong output fails its check; the traced run yields every per-layer metric
that BENCHMARK.json names.
"""
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def pinned_environment():
    saved = dict(os.environ)
    run.pin_environment()
    run.OUT.mkdir(exist_ok=True)
    yield
    os.environ.clear()
    os.environ.update(saved)


def traced(runner, op):
    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        runner.run_op(op)
    finally:
        runner.tracer = None
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_first_warmup_op_runs_and_checks(name):
    wl = workloads.WORKLOADS[name]()
    runner = run.Runner(wl, seed=0)
    op = wl.warmup[0]
    runner.run_op(op)
    assert op.key in runner.first
    tracer = traced(runner, op)
    assert runner.failures == []
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_known_failure_is_expected_and_attributed():
    wl = workloads.series_ladder()
    runner = run.Runner(wl, seed=0)
    op = next(op for op in wl.ops if op.key == "K0-Am100.5-Ndefault")
    runner.run_op(op)
    assert [(f[1], f[3], f[4]) for f in runner.failures] == [
        ("K0-Am100.5-Ndefault", "families:DomainError", True)]


def test_wrong_output_fails_its_check():
    wl = workloads.series_ladder()
    out = wl.warmup[0].run()
    sol, f, y, res = out
    f = f.copy()
    f[3] *= 1.0 + 1e-9
    with pytest.raises(workloads.CheckFailed):
        wl.warmup[0].check((sol, f, y, res))


def test_traced_run_reports_every_per_layer_metric():
    wl = workloads.series_ladder()
    runner = run.Runner(wl, seed=0)
    phase = {"rounds": 1, "attempted": 1, "busy": 1.0}
    tracer = traced(runner, wl.warmup[0])
    metrics = run.per_layer(wl, runner, tracer, phase, phase)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert metrics["families.eval_calls"] > 0
