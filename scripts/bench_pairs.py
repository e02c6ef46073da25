#!/usr/bin/env python3
"""Alternating paired runs of the benchmark on two source trees.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload taft-relative-n5 \
        --pairs 10 --label pr12 [--workload module-n4 ...]

Each tree is a source checkout with its own `perfbench/run.py`, which runs
unchanged, one process per run, with `--trace 0` and its own default run
length.  Pair i runs both trees with seed i; the parent goes first in even
pairs and the change in odd ones, so that drift of the host falls on both
sides alike.  Before every
run the tree's `__pycache__` directories are removed, so that both sides
pay the same bytecode compilation.

For every end-to-end metric that the change's BENCHMARK.json names, the
medians and quartiles of both sides, the change/parent ratio of the
medians, whether that ratio is within the metric's `bound` (a relative
worsening of at most `bound`) and the number of pairs the change won
are written to `BENCH_<label>.json` in the current directory (or
`--out`).  Two verdicts go with them:

  * `gain_shown`: the change won at least 9 of every 10 pairs, ties
    counting for neither side, and its median is better than the
    parent's by more than the distance between the parent's quartiles;
  * `unresolved`: the parent's quartile distance, relative to its median,
    is wider than `bound`, and not every run of the change is better than
    every run of the parent, so a difference within the bound cannot be
    told from the spread.

The last line printed names every workload and metric outside its bound,
every one with a gain shown and every unresolved one.  The exit code is 1
when any run reported a wrong result.  The script only runs the
benchmark's command line; it imports nothing from `perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def end_to_end_metrics(tree: Path) -> dict[str, dict]:
    """Name -> the spec entry ("better", "bound", ...) of each end-to-end
    metric of tree's benchmark."""
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def clear_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The benchmark's final JSON line for one run of workload in tree.

    A run that reports a wrong result still exits 1 after its JSON line, so
    only a missing or unparsable last line ends the pairs."""
    clear_bytecode(tree)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{workload} in {tree} (seed {seed}) wrote no result, exit code "
                         f"{proc.returncode}:\n{proc.stderr}") from None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def within_bound(ratio: float | None, better: str, bound: float | None) -> bool | None:
    """Whether the change/parent ratio of the medians is worse by at most
    bound; None when there is no ratio or no bound."""
    if ratio is None or bound is None:
        return None
    return ratio <= 1 + bound if better == "lower" else ratio >= 1 - bound


def summarise(runs: list[tuple[dict, dict]], metrics: dict[str, dict]) -> dict:
    """Per-metric statistics of (parent, change) result pairs."""
    out = {}
    for name, spec in metrics.items():
        better, bound = spec["better"], spec.get("bound")
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        ratio = cmed / pmed if pmed else None
        gap = pmed - cmed if better == "lower" else cmed - pmed
        separated = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
        out[name] = {
            "better": better,
            "parent": {"median": pmed, "q1": pq1, "q3": pq3, "values": parent},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": change},
            "ratio": ratio,
            "bound": bound,
            "within_bound": within_bound(ratio, better, bound),
            "median_difference": cmed - pmed,
            "parent_quartile_distance": pq3 - pq1,
            "change_wins": wins,
            "gain_shown": 10 * wins >= 9 * len(runs) and gap > pq3 - pq1,
            "unresolved": (None if bound is None or not pmed
                           else (pq3 - pq1) / abs(pmed) > bound and not separated),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload (repeat for several)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end_metrics(trees["change"])
    result = {"label": args.label, "pairs": args.pairs,
              "order": "parent first in even pairs, change first in odd pairs",
              "python": platform.python_version(), "cpus": os.cpu_count(), "workloads": {}}
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            got = {side: run_once(trees[side], workload, pair) for side in sides}
            runs.append((got["parent"], got["change"]))
            print(f"{workload} pair {pair}: " + ", ".join(
                f"{name} {got['parent']['metrics'][name]['value']:.4g} -> "
                f"{got['change']['metrics'][name]['value']:.4g}" for name in metrics), flush=True)
        result["workloads"][workload] = {
            "incorrect_runs": sum(not r["correct"] for pair in runs for r in pair),
            "failed_jobs": {"parent": sum(p["failed"] for p, _ in runs),
                            "change": sum(c["failed"] for _, c in runs)},
            "metrics": summarise(runs, metrics),
        }
    out = args.out or Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    named = [(workload, name, m) for workload, w in result["workloads"].items()
             for name, m in w["metrics"].items()]
    outside = [f"{workload} {name} (ratio {m['ratio']:.3f}, bound {m['bound']})"
               for workload, name, m in named if m["within_bound"] is False]
    gains = [f"{workload} {name}" for workload, name, m in named if m["gain_shown"]]
    spread = [f"{workload} {name}" for workload, name, m in named if m["unresolved"]]
    print(" | ".join(["outside its bound: " + "; ".join(outside) if outside else "every metric within its bound",
                      "gain shown: " + (", ".join(gains) or "none"),
                      "unresolved: " + (", ".join(spread) or "none")]))
    return 1 if any(w["incorrect_runs"] for w in result["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
