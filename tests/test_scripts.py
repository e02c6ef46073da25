"""The scripts under scripts/ run end to end against the public API."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_dimension_table():
    proc = run_script("dimension_table.py", "4")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    # two variants at every (d, xi) with d | n and xi in {0, 1}: 2 + 4 + 4 + 6 points
    assert len(rows) == 32
    for n, d, _xi, label, dim, formula, conn, plain, _secs in rows:
        assert dim == formula
        if n == "2":
            assert dim == ("4" if label == "module" else "2")
        assert conn == "1"
        if n in ("1", "2"):
            assert plain == ("False" if (n, d, label) == ("2", "2", "module") else "True")


def test_dimension_table_exits_1_on_a_formula_mismatch(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("dimension_table", ROOT / "scripts" / "dimension_table.py")
    script = importlib.util.module_from_spec(spec)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    spec.loader.exec_module(script)
    honest = script.formula
    monkeypatch.setattr(script, "formula", lambda n, d, label: honest(n, d, label) + ((n, d) == (2, 2)))
    monkeypatch.setattr(sys, "argv", ["dimension_table.py", "2"])
    assert script.main() == 1
    assert "4 dimensions differ from the formula" in capsys.readouterr().err


def test_verify_all(tmp_path):
    out = tmp_path / "r.json"
    proc = run_script("verify_all.py", "1,2", "0", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["report"]["ok"] is True


STUB_RUN = '''import json, pathlib, sys
assert "--seconds" not in sys.argv  # the run length is the benchmark's own
seed = int(sys.argv[sys.argv.index("--seed") + 1])
tree = pathlib.Path.cwd()
scale = float((tree / "scale").read_text())
with open(tree.parent / "order.log", "a") as log:
    log.write(f"{tree.name} {seed}\\n")
print("a line before the result, which bench_pairs.py skips")
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": {
    "setup_s": {"value": 0.1 * scale, "unit": "s"},
    "run_s": {"value": (1 + seed / 100) * scale, "unit": "s"},
    "peak_rss_mb": {"value": 30.0, "unit": "MB"}}}))
'''


def test_bench_pairs_alternates_and_summarises(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, scale in (("parent", "1.0"), ("change", "0.5")):
        tree = tmp_path / name
        (tree / "perfbench" / "__pycache__").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(STUB_RUN)
        (tree / "scale").write_text(scale)
        (tree / "BENCHMARK.json").write_text(json.dumps(spec))
    out = tmp_path / "BENCH_stub.json"
    proc = run_script("bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "module-n4", "--pairs", "4", "--label", "stub", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 0", "change 0", "change 1", "parent 1",
                     "parent 2", "change 2", "change 3", "parent 3"]
    assert not list(tmp_path.rglob("__pycache__"))
    metrics = json.loads(out.read_text())["workloads"]["module-n4"]["metrics"]
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    run_s = metrics["run_s"]
    assert run_s["change_wins"] == 4 and run_s["ratio"] == 0.5
    assert run_s["parent"]["values"] == [1.0, 1.01, 1.02, 1.03]
    assert run_s["parent"]["median"] == pytest.approx(1.015)
    assert metrics["peak_rss_mb"]["change_wins"] == 0  # ties count for neither side


def test_bench_pairs_reports_a_crashed_run(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in ("parent", "change"):
        tree = tmp_path / name
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(
            'print("workload scale line")\nraise RuntimeError("stub crash")\n')
        (tree / "BENCHMARK.json").write_text(json.dumps(spec))
    proc = run_script("bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "module-n4", "--pairs", "1", "--label", "stub",
                      "--out", str(tmp_path / "BENCH_stub.json"))
    assert proc.returncode == 1
    assert "module-n4" in proc.stderr and "exit code 1" in proc.stderr
    assert "RuntimeError: stub crash" in proc.stderr
    assert not (tmp_path / "BENCH_stub.json").exists()
