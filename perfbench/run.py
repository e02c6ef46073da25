"""Benchmark of hopfadjoint: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload module-n4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
`src/` next to this directory, never from an installed copy.

With `--trace 0` the run measures, with nothing instrumented:
  setup_s      median over at least SETUP_REPEATS cold builds of the workload's
               models, repeated until SETUP_MIN_S is spent (the model caches
               are cleared before each build);
  run_s        median over passes of one pass's wall time: every job of the
               workload once, in a seed-shuffled order, each job starting
               when the previous one returns; a new pass starts only while
               it is expected to end within --seconds (at least one pass);
  peak_rss_mb  peak resident memory of the process.
Both times are scaled to a reference host speed measured during the run
(hostspeed.py); the wall times are printed beside them.
With `--trace 1` it records spans around the package's public functions
(spans.py) over one cold set-up, one pass of the workload and one pass of
every smoke variant (so every layer has spans on every workload), and
reports per-layer self times, exact work counts and the layer
micro-probes (probes.py).

Every job's output is checked (workloads.py).  The last line of standard
output is one JSON object: correct, attempted, failed (jobs) and metrics.
The exit code is 0 only when every job and probe was correct.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import hopfadjoint  # noqa: E402

if Path(hopfadjoint.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"hopfadjoint was imported from {hopfadjoint.__file__}, not from {SRC}")

from hopfadjoint import adjoint, braided_adjoint, constructions, hopf, linalg, reports  # noqa: E402

# the package re-exports the function `braiding` under the submodule's name
braiding = importlib.import_module("hopfadjoint.braiding")

import probes  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402
from spans import Tracer, span_cost_s  # noqa: E402
from workloads import SMOKE, WORKLOADS, Ledger, cold_setup, load_expected, run_pass  # noqa: E402

SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S has been spent
SETUP_MIN_S = 2.0

# Traced layers: (metric prefix, owner, attribute).  A metric is the summed
# self time of every span of that name.
LAYERS = (
    ("constructions.taft_model", constructions, "taft_model"),
    ("constructions.comodule_algebra_K", constructions, "comodule_algebra_K"),
    ("hopf.solve_antipode", hopf, "solve_antipode"),
    ("hopf.check_hopf", hopf, "check_hopf"),
    ("linalg.eliminate", linalg, "rref"),
    ("linalg.eliminate", linalg, "kernel_basis"),
    ("adjoint.assemble", adjoint, "condition_system_reduced"),
    ("adjoint.assemble", adjoint, "condition_system"),
    ("adjoint.inflate", adjoint, "solve_adjoint"),
    ("adjoint.structure", adjoint.AdjointAlgebra, "compute_structure"),
    ("adjoint.verify_conditions", adjoint, "verify_conditions_direct"),
    ("adjoint.verify_center", adjoint, "verify_center_algebra"),
    ("adjoint.verify_braided", adjoint, "verify_braided_commutative"),
    ("adjoint.verify_relative_center", adjoint, "verify_relative_center"),
    ("braiding.check_module", braiding, "check_module"),
    ("braiding.check_comodule", braiding, "check_comodule"),
    ("braiding.check_yd", braiding, "check_yd"),
    ("braided_adjoint.verify_h_ad", braided_adjoint, "verify_h_ad"),
    ("braided_adjoint.pi_dinatural", braided_adjoint, "pi_dinatural_check"),
    ("braided_adjoint.regular_case_iso", braided_adjoint, "regular_case_iso"),
    ("reports.emit_json", reports, "emit_json"),
)
JOB_SPAN = "job"  # root span of each job; its self time is the code between the traced layers

COUNTS = ("linalg.system_rows", "linalg.system_cols", "linalg.system_nnz", "linalg.rank",
          "adjoint.kernel_dim", "adjoint.algebra_dim", "constructions.hopf_dim",
          "constructions.K_dim", "reports.claims_checked", "reports.json_bytes")


def nnz(m) -> int:
    """Nonzero entries of a Matrix; each distinct Scalar object is tested
    once, because the condition systems share one zero object."""
    multiplicity = Counter(map(id, m.entries))
    distinct = {id(e): e for e in m.entries}
    return sum(count for key, count in multiplicity.items() if not distinct[key].is_zero())


def count_hooks(tracer: Tracer) -> dict[str, object]:
    """Per attribute, a hook that reads work counts off the returned object."""
    counts = tracer.counts
    models_seen: set[int] = set()

    def system(args, m):
        counts["linalg.system_rows"] += m.rows
        counts["linalg.system_cols"] += m.cols
        counts["linalg.system_nnz"] += nnz(m)

    def kernel(args, basis):
        # only the condition-system kernels, which solve_adjoint computes directly
        if tracer.last_parent == "adjoint.inflate":
            counts["linalg.rank"] += args[0].cols - basis.dim
            counts["adjoint.kernel_dim"] += basis.dim

    def algebra(args, alg):
        counts["adjoint.algebra_dim"] += alg.dim

    def model(args, m):
        if id(m) not in models_seen:  # cached models are kept alive, so ids stay unique
            models_seen.add(id(m))
            counts["constructions.hopf_dim"] += m.taft.dim

    def k_algebra(args, k):
        counts["constructions.K_dim"] += k.dim

    return {"condition_system_reduced": system, "condition_system": system,
            "kernel_basis": kernel, "solve_adjoint": algebra, "taft_model": model,
            "comodule_algebra_K": k_algebra}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def shuffled(jobs, rng: random.Random) -> list:
    order = list(jobs)
    rng.shuffle(order)
    return order


def measure(workload, seed: int, seconds: float, expected: dict, out_path: str):
    """Untraced run: end-to-end metrics, scaled to the reference host speed."""
    ledger = Ledger()
    rng = random.Random(seed)
    passes: list[float] = []
    with SpeedSampler() as sampler:
        setups: list[float] = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            setups.append(cold_setup(workload.models, sampler))
        start = sampler.now()
        while True:
            passes.append(run_pass(shuffled(workload.jobs, rng), expected, ledger, out_path,
                                   timer=sampler))
            if (sampler.now() - start) * (1 + 1 / len(passes)) > seconds:
                break
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    note = (f"{len(setups)} set-ups; {len(passes)} passes of {len(workload.jobs)} jobs; "
            f"host-speed scale {sampler.mean_scale():.4f} (mean of {len(sampler.speeds)} "
            f"calibration chunks; wall time = reported time / scale)")
    return metrics, ledger, [], note


def traced(workload, seed: int, expected: dict, out_path: str):
    """Traced run: per-layer self times, work counts and micro-probes.
    Span times leave out the host-speed chunks but are not scaled; the
    pass time `trace.run_s` is scaled, so that it compares with run_s."""
    sampler = SpeedSampler()
    tracer = Tracer(clock=sampler.now)
    hooks = count_hooks(tracer)
    tracer.install([(name, owner, attr, hooks.get(attr)) for name, owner, attr in LAYERS])
    ledger = Ledger()

    def job_span(fn, *args):
        return tracer.span(JOB_SPAN, fn, *args)

    try:
        with sampler:
            tracer.span("setup", cold_setup, workload.models)
            first_span, hook_s = len(tracer.spans), tracer.hook_s
            run_s = run_pass(shuffled(workload.jobs, random.Random(seed)), expected, ledger,
                             out_path, wrap=job_span, timer=sampler)
            pass_spans, pass_hook_s = len(tracer.spans) - first_span, tracer.hook_s - hook_s
            for name in SMOKE:
                run_pass(WORKLOADS[name].jobs, expected, ledger, out_path, wrap=job_span)
    finally:
        tracer.uninstall()

    self_s = tracer.self_times()
    metrics = {f"{name}_s": (self_s.get(name, 0.0), "s") for name, _, _ in LAYERS}
    metrics["job.other_s"] = (self_s[JOB_SPAN], "s")
    tracer.counts["reports.claims_checked"] = ledger.claims_checked
    tracer.counts["reports.json_bytes"] = ledger.json_bytes
    metrics.update({name: (tracer.counts[name], "count") for name in COUNTS})

    scalar_ns, problems = probes.scalar_probes(seed)
    metrics.update({name: (value, "ns") for name, value in scalar_ns.items()})
    kernel_s, kernel_problems = probes.kernel_probe()
    problems += kernel_problems
    metrics["linalg.kernel_basis_s.sys440"] = (kernel_s, "s")

    metrics["trace.run_s"] = (run_s, "s")
    metrics["trace.spans"] = (pass_spans, "count")
    metrics["trace.overhead_s"] = (pass_spans * span_cost_s() + pass_hook_s, "s")
    note = ("per-layer figures cover one traced set-up, one pass and the smoke pass; "
            "trace.* cover the pass only")
    return metrics, ledger, problems, note


def ratio(part: int, base: int) -> str:
    return f"{part}/{base} = {part / base:.4f}" if base else f"{part}/0 (none checked)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hopfadjoint benchmark (one workload per process)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    expected = load_expected()
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    out_path = str(Path(out_dir) / "out.json")
    try:
        if args.trace:
            metrics, ledger, problems, note = traced(workload, args.seed, expected, out_path)
        else:
            metrics, ledger, problems, note = measure(workload, args.seed, args.seconds,
                                                      expected, out_path)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for message in ledger.errors + problems:
        print(f"FAILED {message}", file=sys.stderr)
    correct = ledger.failed == 0 and ledger.claims_failed == 0 and not problems
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {note}")
    print(f"  jobs_failed_ratio    {ratio(ledger.failed, ledger.attempted)}")
    print(f"  claims_failed_ratio  {ratio(ledger.claims_failed, ledger.claims_checked)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
