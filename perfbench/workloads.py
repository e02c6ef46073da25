"""Workloads of the benchmark: which jobs run, how each job calls the
package's public entry points, and how its output is checked.

CLI-shaped jobs call `cli_main([...], --out <file>)`, as a user's
script would; sweep jobs call `problem_for` + `solve_adjoint(...,
with_structure=False)`.  Names are looked up on the package modules at
call time, so the traced run's rebinding (see spans.py) sees them.

Each job is checked against `expected.json`: a CLI job against its exit
code and the SHA-256 of its canonical JSON, and every claim of its
report must pass; a sweep job against its recorded dimension.

README.md says why each workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hopfadjoint import adjoint, cli, constructions

from hostspeed import WallTimer

WALL = WallTimer()
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# The lru_caches a cold model build starts from, as in the acceptance
# fixture.  Held here so that clearing still reaches the caches while the
# traced run has rebound the module names.
CACHED_BUILDERS = (
    constructions.group_algebra_cn,
    constructions.r_matrix_cn,
    constructions.braided_line,
    constructions.taft_model,
)


@dataclass(frozen=True)
class Job:
    """One call a user would make: a CLI command line, or one solve of
    the sweep (`solve` = (n, d, xi, conditions))."""

    argv: tuple[str, ...] = ()
    solve: tuple | None = None

    @property
    def id(self) -> str:
        if self.solve is None:
            return " ".join(self.argv)
        n, d, xi, conditions = self.solve
        return f"solve --n {n} --d {d} --xi {xi} --conditions {conditions}"


@dataclass(frozen=True)
class Workload:
    models: tuple[int, ...]  # the n of every taft_model the jobs use, built in set-up
    jobs: tuple[Job, ...]


@dataclass
class Ledger:
    """Outcome counts of the jobs run so far."""

    attempted: int = 0
    failed: int = 0
    claims_checked: int = 0
    claims_failed: int = 0
    json_bytes: int = 0
    errors: list[str] = field(default_factory=list)


def cli_job(command: str) -> Job:
    return Job(argv=tuple(command.split()))


def sweep_jobs(n: int, points) -> tuple[Job, ...]:
    """Both condition sets at every (d, xi) of points."""
    return tuple(Job(solve=(n, d, xi, conditions)) for d, xi in points
                 for conditions in ("ad1,ad3", "ad1,ad2,ad3"))


WORKLOADS: dict[str, Workload] = {
    # (4,4,0) is left out: alone it takes longer than a whole run should.
    "module-n4": Workload((4,), (
        cli_job("adjoint --n 4 --d 1 --xi 0 --conditions ad1,ad3"),
        cli_job("adjoint --n 4 --d 2 --xi 1 --conditions ad1,ad3"),
    )),
    "taft-relative-n5": Workload((5,), (
        cli_job("taft --n 5"),
        cli_job("adjoint --n 5 --d 1 --xi 1 --conditions ad1,ad2,ad3"),
    )),
    # (d, xi) = (4, 1) is left out: its two solves take as long as the other eight.
    "dimension-sweep-n4": Workload((4,), sweep_jobs(4, ((1, 0), (1, 1), (2, 0), (2, 1), (4, 0)))),
    "braided-n4": Workload((4,), (
        cli_job("braided-adjoint --n 4"),
    )),
    # Smoke variants: the same code paths at n = 2-3, seconds in total.
    "module-smoke": Workload((2,), (
        cli_job("adjoint --n 2 --d 1 --xi 0 --conditions ad1,ad3"),
        cli_job("adjoint --n 2 --d 2 --xi 1 --conditions ad1,ad3"),
    )),
    "taft-relative-smoke": Workload((3,), (
        cli_job("taft --n 3"),
        cli_job("adjoint --n 3 --d 1 --xi 1 --conditions ad1,ad2,ad3"),
    )),
    "dimension-sweep-smoke": Workload((2,), sweep_jobs(2, ((1, 0), (1, 1), (2, 0), (2, 1)))),
    "braided-smoke": Workload((2,), (
        cli_job("braided-adjoint --n 2"),
    )),
}

SMOKE = ("module-smoke", "taft-relative-smoke", "dimension-sweep-smoke", "braided-smoke")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cold_setup(models, timer=WALL) -> float:
    """Clear the model caches and build every model; return the seconds
    the builds took, as timed by timer (hostspeed.py)."""
    for builder in CACHED_BUILDERS:
        builder.cache_clear()
    gc.collect()
    t0 = timer.now()
    for n in models:
        constructions.taft_model(n)
    return timer.since(t0)


def call_job(job: Job, out_path: str):
    """Run one job through the public entry points.  Returns the CLI exit
    code (also when the CLI exits through SystemExit) or the solved algebra."""
    if job.solve is None:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            try:
                return cli.cli_main([*job.argv, "--out", out_path])
            except SystemExit as exc:
                return exc.code
    n, d, xi, conditions = job.solve
    k = constructions.comodule_algebra_K(n, d, xi)
    problem = adjoint.problem_for(constructions.taft_model(n), k, set(conditions.split(",")))
    return adjoint.solve_adjoint(problem, with_structure=False)


def check_job(job: Job, result, out_path: str, expected: dict, ledger: Ledger) -> list[str]:
    """Problems with a finished job's output, as messages (empty when
    it is correct).  Adds the job's claims and output size to ledger."""
    want = expected.get(job.id)
    if want is None:
        return ["no expected output recorded"]
    if job.solve is not None:
        if result.dim != want["dim"]:
            return [f"dimension {result.dim}, expected {want['dim']}"]
        return []
    if result != want["exit"]:
        return [f"exit code {result}, expected {want['exit']}"]
    try:
        data = Path(out_path).read_bytes()
        claims = json.loads(data)["report"]["claims"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"no readable report: {exc!r}"]
    problems = []
    ledger.json_bytes += len(data)
    digest = hashlib.sha256(data).hexdigest()
    if digest != want["sha256"]:
        problems.append(f"sha256 {digest}, expected {want['sha256']}")
    failed = [c["claim_id"] for c in claims if c["status"] == "fail"]
    ledger.claims_checked += sum(c["status"] != "skipped" for c in claims)
    ledger.claims_failed += len(failed)
    if failed:
        problems.append(f"{len(failed)} failed claims, first {failed[0]}")
    return problems


def run_pass(jobs, expected: dict, ledger: Ledger, out_path: str, wrap=None,
             timer=WALL) -> float:
    """Run the jobs one after another (a closed loop with one client) and
    return the summed time of the job calls, as timed by timer
    (hostspeed.py).  The collection before each job and the output checks
    are not timed.  wrap(fn, *args), when given, makes the call (the
    traced run records a span with it)."""
    busy = 0.0
    for job in jobs:
        Path(out_path).unlink(missing_ok=True)  # a job that writes nothing must not pass on old output
        gc.collect()
        ledger.attempted += 1
        t0 = timer.now()
        try:
            result = wrap(call_job, job, out_path) if wrap else call_job(job, out_path)
        except Exception:  # a job that raises is a failed job; keep measuring
            busy += timer.since(t0)
            ledger.failed += 1
            ledger.errors.append(f"{job.id}: {traceback.format_exc()}")
            continue
        busy += timer.since(t0)
        problems = check_job(job, result, out_path, expected, ledger)
        if problems:
            ledger.failed += 1
            ledger.errors.extend(f"{job.id}: {p}" for p in problems)
    return busy
