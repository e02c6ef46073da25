"""Layer micro-probes, reported by the traced run as per-layer metrics.

- `Scalar` add, mul, inv and is_zero over Q(zeta_4) (degree 2) and
  Q(zeta_5) (degree 4), on operands drawn from the benchmark's seed;
  each is the median of several batches, in nanoseconds per operation.
- `kernel_basis` on the pinned reduced condition system of the (4,4,0)
  module variant, in seconds.

Each probe also checks its results, so a wrong fast path shows as a
failure here and not only as a faster number.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

from hopfadjoint import adjoint, constructions, linalg
from hopfadjoint.cyclotomic import make_field

CONDUCTORS = (4, 5)
OPERANDS = 400
BATCHES = 7


def _random_scalars(ctx, rng: random.Random, count: int):
    out = []
    while len(out) < count:
        s = ctx.scalar([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ctx.degree)])
        if not s.is_zero():
            out.append(s)
    return out


def _ns_per_op(op, pairs) -> float:
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for a, b in pairs:
            op(a, b)
        samples.append((time.perf_counter() - t0) / len(pairs) * 1e9)
    return statistics.median(samples)


def scalar_probes(seed: int) -> tuple[dict[str, float], list[str]]:
    """Per-operation times by metric name, and any wrong results."""
    metrics: dict[str, float] = {}
    problems: list[str] = []
    ops = {
        "add": lambda a, b: a + b,
        "mul": lambda a, b: a * b,
        "inv": lambda a, b: a.inv(),
        "is_zero": lambda a, b: a.is_zero(),
    }
    for conductor in CONDUCTORS:
        ctx = make_field(conductor)
        rng = random.Random(seed * 1000 + conductor)
        xs = _random_scalars(ctx, rng, OPERANDS)
        ys = _random_scalars(ctx, rng, OPERANDS)
        pairs = list(zip(xs, ys))
        for a, b in pairs:
            if not ((a + b) - b == a and a * b == b * a and (a * a.inv()).is_one()
                    and not a.is_zero()):
                problems.append(f"zeta{conductor}: field identities fail at {a!r}, {b!r}")
                break
        gc.collect()
        for name, op in ops.items():
            metrics[f"cyclotomic.{name}_ns.zeta{conductor}"] = _ns_per_op(op, pairs)
    return metrics, problems


def kernel_probe() -> tuple[float, list[str]]:
    """Seconds for kernel_basis on the (4,4,0) module-variant reduced
    system, and any wrong results (its kernel has dimension 16)."""
    k = constructions.comodule_algebra_K(4, 4, 0)
    problem = adjoint.problem_for(constructions.taft_model(4), k, {"ad1", "ad3"})
    system = adjoint.condition_system_reduced(problem)
    gc.collect()
    t0 = time.perf_counter()
    kernel = linalg.kernel_basis(system)
    seconds = time.perf_counter() - t0
    problems = [] if kernel.dim == 16 else [f"sys440 kernel dimension {kernel.dim}, expected 16"]
    return seconds, problems
