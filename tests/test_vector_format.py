"""Inside the package a vector is a term list: (index, coefficient)
pairs, strictly ascending in index, with no zero coefficient.  The unit
of every model algebra and the product and unit coordinates of every
solved algebra are such lists; a dense list is built only where the JSON
writes one, which `test_reachability` pins."""

import pytest

from hopfadjoint.adjoint import VARIANTS, problem_for, solve_adjoint
from hopfadjoint.constructions import (braided_line, comodule_algebra_K, group_algebra_cn, regular_comodule_algebra,
                                       taft_model)
from hopfadjoint.cyclotomic import Scalar
from hopfadjoint.hopf import tensor_algebra


def is_term_list(v, dim: int) -> bool:
    """v lists (index, Scalar) pairs with indices strictly ascending in
    range(dim) and no zero coefficient."""
    if not isinstance(v, list) or not all(isinstance(t, tuple) and len(t) == 2 for t in v):
        return False
    indices = [i for i, _ in v]
    return (all(isinstance(i, int) and 0 <= i < dim for i in indices)
            and all(a < b for a, b in zip(indices, indices[1:]))
            and all(isinstance(c, Scalar) and not c.is_zero() for _, c in v))


def test_the_predicate_rejects_dense_unsorted_and_zero_entries():
    ctx = group_algebra_cn(2).ctx
    one, zero = ctx.one(), ctx.zero()
    assert is_term_list([(0, one), (2, one)], 3) and is_term_list([], 3)
    assert not is_term_list([one, zero, zero], 3)
    assert not is_term_list([(2, one), (0, one)], 3)
    assert not is_term_list([(0, one), (0, one)], 3)
    assert not is_term_list([(0, one), (1, zero)], 3)
    assert not is_term_list([(3, one)], 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_model_units_are_term_lists(n):
    t = group_algebra_cn(n).algebra
    algebras = {"kC_n": t, "braided line": braided_line(n).algebra, "Taft": taft_model(n).taft.algebra,
                "regular comodule algebra": regular_comodule_algebra(n).algebra,
                "kC_n x kC_n": tensor_algebra(t, t)}
    algebras |= {f"K({d}, 0)": comodule_algebra_K(n, d, 0).algebra for d in range(1, n + 1) if n % d == 0}
    assert {name for name, alg in algebras.items() if not is_term_list(alg.unit, alg.dim)} == set()


@pytest.mark.parametrize("n", range(1, 4))
@pytest.mark.parametrize("conditions", VARIANTS, ids=["module", "fully-constrained"])
def test_solved_products_and_unit_coordinates_are_term_lists(n, conditions):
    model = taft_model(n)
    comodule_algebras = [comodule_algebra_K(n, d, 0) for d in range(1, n + 1) if n % d == 0]
    for k in comodule_algebras + [regular_comodule_algebra(n)]:
        alg = solve_adjoint(problem_for(model, k, conditions))
        assert is_term_list(alg.algebra.unit, alg.dim), k.name
        assert all(is_term_list(v, alg.dim) for row in alg.algebra.mult for v in row), k.name
