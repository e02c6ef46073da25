"""The scripts under scripts/ run end to end against the public API."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_dimension_table():
    proc = run_script("dimension_table.py", "2")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 12  # n = 1: (1, 0), (1, 1); n = 2: d in {1, 2}, xi in {0, 1}; two variants
    for n, d, _xi, label, dim, conn, plain, _secs in rows:
        if n == "2":
            assert dim == ("4" if label == "module" else "2")
        assert conn == "1"
        assert plain == ("False" if (n, d, label) == ("2", "2", "module") else "True")


def test_verify_all(tmp_path):
    out = tmp_path / "r.json"
    proc = run_script("verify_all.py", "1,2", "0", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["report"]["ok"] is True
