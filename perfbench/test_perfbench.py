"""Tests of the benchmark itself, on the smoke variants (seconds each).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json

import pytest

import run
from spans import Tracer
from workloads import SMOKE, WORKLOADS, Ledger, load_expected, run_pass

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _measure(name: str, expected: dict, tmp_path):
    return run.measure(WORKLOADS[name], seed=0, seconds=0.0, expected=expected,
                       out_path=str(tmp_path / "out.json"))


@pytest.mark.parametrize("name", SMOKE)
def test_smoke_workload_passes_every_check(name, tmp_path):
    metrics, ledger, problems, _ = _measure(name, load_expected(), tmp_path)
    assert ledger.attempted == len(WORKLOADS[name].jobs)
    assert (ledger.failed, ledger.claims_failed, problems) == (0, 0, []), ledger.errors
    assert set(metrics) == {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_tampered_digest_fails_the_job_and_the_command(monkeypatch, capsys):
    expected = load_expected()
    job_id = WORKLOADS["module-smoke"].jobs[0].id
    expected[job_id] = dict(expected[job_id], sha256="0" * 64)
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    code = run.main(["--workload", "module-smoke", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2  # jobs_failed_ratio 1/2


def test_wrong_dimension_fails_the_job(tmp_path):
    expected = load_expected()
    job = WORKLOADS["dimension-sweep-smoke"].jobs[0]
    expected[job.id] = {"dim": expected[job.id]["dim"] + 1}
    ledger = Ledger()
    run_pass([job], expected, ledger, str(tmp_path / "out.json"))
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    metrics, ledger, problems, _ = run.traced(WORKLOADS["braided-smoke"], seed=0,
                                              expected=load_expected(),
                                              out_path=str(tmp_path / "out.json"))
    assert (ledger.failed, problems) == (0, [])
    declared = {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    assert set(metrics) == declared
    # the smoke pass reaches every traced layer
    assert all(metrics[f"{name}_s"][0] > 0 for name, _, _ in run.LAYERS)


def test_tracer_self_time_and_uninstall():
    from hopfadjoint import linalg

    original = linalg.rref
    tracer = Tracer()
    tracer.install([("eliminate", linalg, "rref", None)])
    assert linalg.rref is not original
    tracer.span("outer", tracer.span, "inner", sum, [1, 2])
    tracer.uninstall()
    assert linalg.rref is original
    (_, s0, e0, p0), (_, s1, e1, p1) = tracer.spans
    assert (p0, p1) == (-1, 0)
    times = tracer.self_times()
    assert times["outer"] == pytest.approx((e0 - s0) - (e1 - s1))
    assert times["inner"] == pytest.approx(e1 - s1)
