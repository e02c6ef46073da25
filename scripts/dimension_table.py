#!/usr/bin/env python3
"""Print the solution-space dimension grid over (n, d, xi) for both
condition sets, together with connectedness, the plain-commutativity
flag and the dimension the formula predicts: n^2 for the module variant
(ad1, ad3) and n * gcd(d, n/d) for the fully-constrained one (ad1, ad2,
ad3).  Everything is exact; n <= 4 takes a few seconds, n = 6 about 20.

Usage: python scripts/dimension_table.py [max_n]

Exits 1 when any solved dimension differs from the formula.
"""

import sys
import time
from math import gcd

from hopfadjoint import (
    comodule_algebra_K,
    connectedness,
    problem_for,
    solve_adjoint,
    taft_model,
    verify_braided_commutative,
)


def formula(n: int, d: int, label: str) -> int:
    """The conjectured dimension of the solution space at K(d, xi) over T(n)."""
    return n * n if label == "module" else n * gcd(d, n // d)


def main() -> int:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    mismatches = 0
    print(f"{'n':>2} {'d':>2} {'xi':>3} {'conditions':<14} {'dim':>4} {'formula':>7} "
          f"{'conn':>4} {'plain':>6} {'secs':>7}")
    for n in range(1, max_n + 1):
        model = taft_model(n)
        for d in (d for d in range(1, n + 1) if n % d == 0):
            for xi in (0, 1):
                k = comodule_algebra_K(n, d, xi)
                for conds, label in (({"ad1", "ad3"}, "module"),
                                     ({"ad1", "ad2", "ad3"}, "fully-constr")):
                    t0 = time.perf_counter()
                    alg = solve_adjoint(problem_for(model, k, conds))
                    secs = time.perf_counter() - t0
                    rep = verify_braided_commutative(alg)
                    assert rep.ok, (n, d, xi, label)
                    plain = [c for c in rep.claims if "plain" in c.claim_id][0]
                    expected = formula(n, d, label)
                    mismatches += alg.dim != expected
                    print(f"{n:>2} {d:>2} {xi:>3} {label:<14} {alg.dim:>4} {expected:>7} "
                          f"{connectedness(alg):>4} "
                          f"{str(plain.witness['plain_commutative']):>6} {secs:>7.2f}")
    if mismatches:
        print(f"{mismatches} dimensions differ from the formula", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
