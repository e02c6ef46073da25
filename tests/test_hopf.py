import pytest

from hopfadjoint import hopf
from hopfadjoint.cyclotomic import make_field
from hopfadjoint.hopf import (
    FinDimAlgebra,
    FinDimCoalgebra,
    NoAntipodeError,
    _antipode_by_elimination,
    _triangular_order,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_hopf,
    solve_antipode,
    tensor_algebra,
)
from hopfadjoint.constructions import braided_line, group_algebra_cn, taft_model
from hopfadjoint.linalg import Matrix, dense, nonzero
from support import change_basis, dual_algebra


@pytest.fixture
def rref_calls(monkeypatch):
    """The matrices that the hopf module eliminates, in call order."""
    calls, rref = [], hopf.rref
    monkeypatch.setattr(hopf, "rref", lambda m: calls.append(m) or rref(m))
    return calls


def test_group_algebra_c3_passes_all_axioms():
    t = group_algebra_cn(3)
    assert check_hopf(t).ok


def test_taft_n2_is_a_bialgebra():
    m = taft_model(2)
    assert check_bialgebra(m.taft.algebra, m.taft.coalgebra).ok


def test_perturbed_multiplication_fails_with_witness():
    # any single-generator perturbation of kC_2 stays associative, so
    # perturb one structure constant of kC_3 asymmetrically
    t = group_algebra_cn(3)
    mult = [list(row) for row in t.algebra.mult]
    mult[1][2] = mult[1][2] + [(1, t.ctx.one())]  # e_1 e_2 = e_0 + e_1
    broken = FinDimAlgebra(t.ctx, 3, mult, list(t.algebra.unit))
    rep = check_algebra(broken)
    fails = rep.failures()
    assert fails and fails[0].claim_id.endswith("associativity")
    assert fails[0].witness["triple"] == [1, 1, 1]
    assert any(not e.is_zero() for e in fails[0].witness["residual"])


def test_group_algebra_antipode_is_inverse():
    for n in (2, 3, 4):
        t = group_algebra_cn(n)
        for i in range(n):
            assert t.antipode.col_terms(i) == [((n - i) % n, t.ctx.one())]


def test_taft_antipode_solved_values():
    # S(x#1) = -g^{-1} x = x # g at n = 2; S^2(x#1) = q^{-1} x#1
    m = taft_model(2)
    s = m.taft.antipode
    one = m.ctx.one()
    assert s.col_terms(m.x_index(1, 0)) == [(m.x_index(1, 1), one)]
    assert (s * s).col_terms(m.x_index(1, 0)) == [(m.x_index(1, 0), one.scale(-1))]


def test_primitive_element_convolution_solves():
    # Q[t]/(t^2) with t primitive: the coproduct is not multiplicative
    # in characteristic zero (Delta(t)^2 = 2 t x t), but the antipode
    # convolution system is still consistent and pins S(t) = -t
    ctx = make_field(1)
    z, o = ctx.zero(), ctx.one()
    mult = [[[(0, o)], [(1, o)]], [[(1, o)], []]]
    alg = FinDimAlgebra(ctx, 2, mult, [(0, o)])
    com0 = [(0, 0, o)]
    com1 = [(0, 1, o), (1, 0, o)]
    coa = FinDimCoalgebra(ctx, 2, [com0, com1], [o, z])
    assert check_algebra(alg).ok and check_coalgebra(coa).ok
    rep = check_bialgebra(alg, coa)
    assert {c.claim_id for c in rep.failures()} == {"bialgebra/comult-multiplicative"}
    assert _triangular_order(alg, coa) is not None
    s = solve_antipode(alg, coa)
    assert dense(ctx, 2, s.col_terms(1)) == [z, -o]


def test_no_antipode_for_idempotent_grouplike():
    # monoid algebra of {1, e} with e^2 = e and e grouplike: e has no
    # convolution inverse
    ctx = make_field(1)
    z, o = ctx.zero(), ctx.one()
    mult = [[[(0, o)], [(1, o)]], [[(1, o)], [(1, o)]]]
    alg = FinDimAlgebra(ctx, 2, mult, [(0, o)])
    coa = FinDimCoalgebra(ctx, 2, [[(0, 0, o)], [(1, 1, o)]], [o, o])
    assert _triangular_order(alg, coa) is None
    with pytest.raises(NoAntipodeError, match="inconsistent"):
        solve_antipode(alg, coa)


def test_degenerate_convolution_system_has_no_unique_antipode():
    # Delta(e1) = 0 and eps(e1) = 0 put no condition on S(e1)
    ctx = make_field(1)
    z, o = ctx.zero(), ctx.one()
    mult = [[[(0, o)], [(1, o)]], [[(1, o)], []]]
    alg = FinDimAlgebra(ctx, 2, mult, [(0, o)])
    coa = FinDimCoalgebra(ctx, 2, [[(0, 0, o)], []], [o, z])
    assert _triangular_order(alg, coa) is None
    with pytest.raises(NoAntipodeError, match="not unique"):
        solve_antipode(alg, coa)


def test_tensor_algebra_of_group_algebras():
    t = group_algebra_cn(2)
    sq = tensor_algebra(t.algebra, t.algebra)
    assert sq.dim == 4
    assert check_algebra(sq).ok
    one = t.ctx.one()
    # unit = unit x unit
    assert sq.unit == [(0, one)]
    # (g x 1)(1 x g) = g x g
    assert sq.mult_terms([(1 * 2 + 0, one)], [(0 * 2 + 1, one)]) == [(1 * 2 + 1, one)]


def test_dual_of_group_algebra_is_function_algebra():
    t = group_algebra_cn(2)
    d = dual_algebra(t.coalgebra)
    assert check_algebra(d).ok
    # the dual basis is already the idempotent basis
    for a in range(2):
        for b in range(2):
            expect = [(a, t.ctx.one())] if a == b else []
            assert d.mult[a][b] == expect
    assert d.unit == nonzero(t.coalgebra.counit)


def test_dual_of_taft_coalgebra_is_associative():
    m = taft_model(2)
    d = dual_algebra(m.taft.coalgebra)
    assert d.dim == 4
    assert check_algebra(d).ok


def test_dual_associativity_tracks_coassociativity():
    t = group_algebra_cn(3)
    comult = list(t.coalgebra.comult)
    comult[1] = comult[1] + [(1, 2, t.ctx.one())]  # breaks Delta(g) = g x g
    broken = FinDimCoalgebra(t.ctx, 3, comult, list(t.coalgebra.counit))
    assert not check_coalgebra(broken).ok
    assert not check_algebra(dual_algebra(broken)).ok


def test_every_model_hopf_passes_convolution_identities():
    for n in (1, 2, 3):
        m = taft_model(n)
        rep = check_hopf(m.taft)
        assert rep.ok, [c.claim_id for c in rep.failures()]


def model_hosts(n):
    """(name, algebra, coalgebra, antipode) of the three hosts that the
    model builds at n."""
    t, line, taft = group_algebra_cn(n), braided_line(n), taft_model(n).taft
    return [("kC", t.algebra, t.coalgebra, t.antipode),
            ("braided-line", line.algebra, line.coalgebra, line.braided_antipode),
            ("taft", taft.algebra, taft.coalgebra, taft.antipode)]


@pytest.mark.parametrize("n", range(1, 10))
def test_substituted_antipodes_match_elimination(n):
    for name, alg, coa, s in model_hosts(n):
        assert _triangular_order(alg, coa) is not None, name
        assert s == _antipode_by_elimination(alg, coa), name


def shifted(h):
    """h in the basis e_0, e_i + e_0 (i > 0), which is not monomial: a
    grouplike e_i gives Delta(e_i + e_0) two terms with left leg e_i + e_0."""
    ctx, dim = h.ctx, h.dim
    return change_basis(h, Matrix(ctx, dim, dim, [(i, i, ctx.one()) for i in range(dim)]
                                  + [(0, i, ctx.one()) for i in range(1, dim)]))


def reversed_basis(h):
    """h with its basis in reverse order, where the x-degree falls with the
    index."""
    ctx, dim = h.ctx, h.dim
    return change_basis(h, Matrix(ctx, dim, dim, [(dim - 1 - i, i, ctx.one()) for i in range(dim)]))


# hosts outside the rule, and hosts that qualify only along an order that
# is not the index order
SHIFTED_HOSTS = {"kC2-in-1,1+g": lambda: shifted(group_algebra_cn(2)),
                 "taft2-shifted": lambda: shifted(taft_model(2).taft),
                 "taft3-shifted": lambda: shifted(taft_model(3).taft)}
REVERSED_HOSTS = {f"taft{n}-reversed": (lambda n=n: reversed_basis(taft_model(n).taft)) for n in (2, 3, 4)}


@pytest.mark.parametrize("name", list(SHIFTED_HOSTS))
def test_host_outside_the_rule_eliminates_to_the_conjugated_antipode(name, rref_calls):
    h = SHIFTED_HOSTS[name]()
    assert check_hopf(h).ok
    assert _triangular_order(h.algebra, h.coalgebra) is None
    assert solve_antipode(h.algebra, h.coalgebra) == h.antipode
    assert rref_calls


@pytest.mark.parametrize("name", list(REVERSED_HOSTS))
def test_reversed_basis_substitutes_to_the_conjugated_antipode(name, rref_calls):
    h = REVERSED_HOSTS[name]()
    assert check_hopf(h).ok
    assert solve_antipode(h.algebra, h.coalgebra) == h.antipode
    assert not rref_calls
    order = [i for i, _, _ in _triangular_order(h.algebra, h.coalgebra)]
    assert order != sorted(order)


def test_substitution_divides_by_the_left_leg_coefficient():
    # Q[t]/(t^2) with Delta(t) = 2 (1 x t + t x 1): not counital, so the
    # term with left leg t has coefficient 2, yet the convolution system
    # still pins S(t) = -t on both sides
    ctx = make_field(1)
    z, o = ctx.zero(), ctx.one()
    two = o + o
    alg = FinDimAlgebra(ctx, 2, [[[(0, o)], [(1, o)]], [[(1, o)], []]], [(0, o)])
    coa = FinDimCoalgebra(ctx, 2, [[(0, 0, o)], [(0, 1, two), (1, 0, two)]], [o, z])
    assert _triangular_order(alg, coa) == [(0, o, 0), (1, two, 0)]
    s = solve_antipode(alg, coa)
    assert s == _antipode_by_elimination(alg, coa)
    assert dense(ctx, 2, s.col_terms(1)) == [z, -o]


def test_cold_models_call_no_elimination(rref_calls):
    """A silent fallback to elimination fails here.  Each model is built
    afresh, past its cache."""
    for n in range(1, 9):
        group_algebra_cn.__wrapped__(n)
        braided_line.__wrapped__(n)
        taft_model.__wrapped__(n)
    assert not rref_calls
