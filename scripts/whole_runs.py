#!/usr/bin/env python3
"""Alternating whole CLI runs on two source trees.

    python3 scripts/whole_runs.py PARENT CHANGE --runs 2 -- adjoint --n 8 --d 8 --xi 0 --conditions ad1,ad3

Each tree is a source checkout.  Run i runs `python -m hopfadjoint` with
the arguments after `--` in both trees, one process per side, with the
tree's `src` as the only PYTHONPATH entry; the parent goes first in even
runs and the change in odd ones, as in `bench_pairs.py`.  Before every
run the tree's `__pycache__` directories are removed, so that both sides
pay the same bytecode compilation.  The script adds `--out` itself: a
file in a temporary directory, hashed and removed after each run.

One JSON line is printed per run: the side and tree, the wall time of
the child process, its peak resident set from `os.wait4`, its exit code,
and the sha256 and byte size of its `--out` file (null when it wrote
none).  The exit code is 1 when the runs wrote different sha256s, or
when one wrote no output, and 2 on a usage error.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import clear_bytecode, positive_int


def file_digest(path: Path) -> tuple[str | None, int | None]:
    """The sha256 and byte size of the file at path, or (None, None)."""
    if not path.exists():
        return None, None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest(), path.stat().st_size


def run_once(tree: Path, cli_args: list[str], out: Path) -> dict:
    """Wall time, peak RSS, exit code and output digest of one CLI run in tree."""
    clear_bytecode(tree)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "hopfadjoint", *cli_args, "--out", str(out)],
                            cwd=tree, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    sha256, size = file_digest(out)
    out.unlink(missing_ok=True)
    # ru_maxrss is in KiB on Linux
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "exit_code": os.waitstatus_to_exitcode(status), "sha256": sha256, "bytes": size}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--runs", type=positive_int, default=2, help="runs per side")
    parser.usage = "%(prog)s PARENT CHANGE [--runs N] -- COMMAND [ARGS ...]"
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv or argv[-1] == "--":
        parser.error("expected -- and the arguments of one hopfadjoint command")
    cut = argv.index("--")
    args = parser.parse_args(argv[:cut])
    cli_args = argv[cut + 1:]
    if "--out" in cli_args or any(a.startswith("--out=") for a in cli_args):
        parser.error("--out is added by the script; leave it out of the command")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    digests: dict[str, set] = {"parent": set(), "change": set()}
    with tempfile.TemporaryDirectory(prefix="whole-runs-") as tmp:
        for run in range(args.runs):
            for side in ("parent", "change") if run % 2 == 0 else ("change", "parent"):
                got = run_once(trees[side], cli_args, Path(tmp) / f"{side}.json")
                digests[side].add(got["sha256"])
                print(json.dumps({"run": run, "side": side, "tree": str(trees[side]), **got}), flush=True)
    seen = digests["parent"] | digests["change"]
    if len(seen) > 1 or None in seen:
        print(f"sha256 differs or a run wrote no output: parent {sorted(map(str, digests['parent']))}, "
              f"change {sorted(map(str, digests['change']))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
