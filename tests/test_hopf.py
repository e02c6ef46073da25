import pytest

from hopfadjoint.cyclotomic import make_field
from hopfadjoint.hopf import (
    FinDimAlgebra,
    FinDimCoalgebra,
    NoAntipodeError,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_hopf,
    solve_antipode,
    tensor_algebra,
)
from hopfadjoint.constructions import group_algebra_cn, taft_model
from hopfadjoint.linalg import dense
from support import dual_algebra


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
    alg = FinDimAlgebra(ctx, 2, mult, [o, z])
    com0 = [(0, 0, o)]
    com1 = [(0, 1, o), (1, 0, o)]
    coa = FinDimCoalgebra(ctx, 2, [com0, com1], [o, z])
    assert check_algebra(alg).ok and check_coalgebra(coa).ok
    rep = check_bialgebra(alg, coa)
    assert {c.claim_id for c in rep.failures()} == {"bialgebra/comult-multiplicative"}
    s = solve_antipode(alg, coa)
    assert dense(ctx, 2, s.col_terms(1)) == [z, -o]


def test_no_antipode_for_idempotent_grouplike():
    # monoid algebra of {1, e} with e^2 = e and e grouplike: e has no
    # convolution inverse
    ctx = make_field(1)
    z, o = ctx.zero(), ctx.one()
    mult = [[[(0, o)], [(1, o)]], [[(1, o)], [(1, o)]]]
    alg = FinDimAlgebra(ctx, 2, mult, [o, z])
    coa = FinDimCoalgebra(ctx, 2, [[(0, 0, o)], [(1, 1, o)]], [o, o])
    with pytest.raises(NoAntipodeError, match="inconsistent"):
        solve_antipode(alg, coa)


def test_degenerate_convolution_system_has_no_unique_antipode():
    # Delta(e1) = 0 and eps(e1) = 0 put no condition on S(e1)
    ctx = make_field(1)
    z, o = ctx.zero(), ctx.one()
    mult = [[[(0, o)], [(1, o)]], [[(1, o)], []]]
    alg = FinDimAlgebra(ctx, 2, mult, [o, z])
    coa = FinDimCoalgebra(ctx, 2, [[(0, 0, o)], []], [o, z])
    with pytest.raises(NoAntipodeError, match="not unique"):
        solve_antipode(alg, coa)


def test_tensor_algebra_of_group_algebras():
    t = group_algebra_cn(2)
    sq = tensor_algebra(t.algebra, t.algebra)
    assert sq.dim == 4
    assert check_algebra(sq).ok
    one = t.ctx.one()
    # unit = unit x unit
    assert sq.unit == dense(t.ctx, 4, [(0, one)])
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
    assert d.unit == list(t.coalgebra.counit)


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
