from fractions import Fraction

import pytest

from hopfadjoint.cyclotomic import make_field, zeta_power
from hopfadjoint.hopf import check_bialgebra, check_hopf, tensor_image
from hopfadjoint.braiding import check_comodule_algebra, check_rmatrix
from hopfadjoint.linalg import dense, nonzero
from hopfadjoint.constructions import (
    bosonization,
    braided_line,
    check_braided_hopf,
    check_hopf_morphism,
    comodule_algebra_K,
    group_algebra_cn,
    q_binomial,
    r_matrix_cn,
    regular_comodule_algebra,
    taft_model,
    taft_presentation_check,
)
from support import coideal_comodule_algebra, trivial_comodule_algebra, trivial_r_matrix


def gauss_binomial_oracle(ctx, q, a, i):
    """Independent oracle: the other Pascal recursion
    C(a, i) = q^(a-i) C(a-1, i-1) + C(a-1, i)."""
    if i < 0 or i > a:
        return ctx.zero()
    if i == 0 or i == a:
        return ctx.one()
    qpow = ctx.one()
    for _ in range(a - i):
        qpow = qpow * q
    return qpow * gauss_binomial_oracle(ctx, q, a - 1, i - 1) + \
        gauss_binomial_oracle(ctx, q, a - 1, i)


def test_r_matrix_n1_is_trivial():
    r = r_matrix_cn(1)
    assert r.element == [r.host.ctx.one()]


def test_r_matrix_n2_expansion():
    r = r_matrix_cn(2)
    ctx = r.host.ctx
    h = Fraction(1, 2)
    assert r.element == [ctx.from_rational(h)] * 3 + [ctx.from_rational(-h)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_r_matrix_checker_passes(n):
    assert check_rmatrix(r_matrix_cn(n)).ok


def test_braided_line_coproducts():
    h3 = braided_line(3)
    ctx = h3.ctx
    q = zeta_power(ctx, 1)
    o = ctx.one()
    # Delta(x) = 1 x x + x x 1
    assert h3.coalgebra.comult[1] == [(0, 1, o), (1, 0, o)]
    # Delta(x^2): coefficient of x x x is the Gaussian binomial (2 1)_q = 1 + q
    assert h3.coalgebra.comult[2] == [(0, 2, o), (1, 1, o + q), (2, 0, o)]
    assert o + q == gauss_binomial_oracle(ctx, q, 2, 1)
    # Delta(x^0) = 1 x 1
    assert h3.coalgebra.comult[0] == [(0, 0, o)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_braided_line_coefficients_match_oracle(n):
    h = braided_line(n)
    ctx = h.ctx
    q = zeta_power(ctx, 1)
    for a in range(n):
        # Delta(x^a) has exactly the terms x^i x x^(a-i), in ascending order
        expect = [(i, a - i, gauss_binomial_oracle(ctx, q, a, i)) for i in range(a + 1)]
        assert h.coalgebra.comult[a] == expect


def test_gaussian_binomials_vanish_at_the_order():
    for n in (2, 3, 4):
        ctx = make_field(n)
        q = zeta_power(ctx, 1)
        for k in range(1, n):
            assert q_binomial(ctx, q, n, k).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_braided_line_checker(n):
    assert check_braided_hopf(braided_line(n)).ok


def test_bosonization_coproduct_of_x():
    m = taft_model(2)
    # Delta(x#1) = x#1 x 1#1 + 1#g x x#1
    terms = m.taft.coalgebra.comult[m.x_index(1, 0)]
    expect = {(m.x_index(1, 0), m.x_index(0, 0)), (m.x_index(0, 1), m.x_index(1, 0))}
    assert {(i, j) for i, j, _ in terms} == expect
    assert all(c.is_one() for _, _, c in terms)


def test_bosonization_products():
    m = taft_model(3)
    ctx = m.ctx
    q = zeta_power(ctx, 1)
    alg = m.taft.algebra
    x, g = m.x_index(1, 0), m.x_index(0, 1)
    assert alg.mult[x][g] == [(m.x_index(1, 1), ctx.one())]
    assert alg.mult[g][x] == [(m.x_index(1, 1), q)]


def test_bosonization_unit_counit():
    m = taft_model(3)
    assert nonzero(m.taft.algebra.unit) == [(m.x_index(0, 0), m.ctx.one())]
    for a in range(3):
        for b in range(3):
            eps = m.taft.coalgebra.counit[m.x_index(a, b)]
            assert eps == (m.ctx.one() if a == 0 else m.ctx.zero())


@pytest.mark.parametrize("n", [2, 3])
def test_bosonization_antipode_matches_composite_formula(n):
    # S(h # t) = (1 # S_T(h_(-1) t)) (S_H(h_(0)) # 1) with the
    # R-matrix coaction h -> R2 x R1.h; the solver never used this
    m = taft_model(n)
    ctx = m.ctx
    taft = m.taft
    line = m.line
    t = m.t_hopf
    for a in range(n):
        for b in range(n):
            acc = [ctx.zero()] * taft.dim
            for ri, rj, cr in m.rmatrix.terms:
                h0 = dense(ctx, n, line.tmodule.action[ri].col_terms(a))
                # S_T(g^rj g^b)
                tprod = t.algebra.mult[rj][b]
                for tt, mt in tprod:
                    st = dense(ctx, n, t.antipode.col_terms(tt))
                    for bb, cb in enumerate(st):
                        if cb.is_zero():
                            continue
                        first = m.x_index(0, bb)
                        for aa, ca in enumerate(h0):
                            if ca.is_zero():
                                continue
                            sh = dense(ctx, n, line.braided_antipode.col_terms(aa))
                            for a2, ca2 in enumerate(sh):
                                if ca2.is_zero():
                                    continue
                                second = m.x_index(a2, 0)
                                prod = dense(ctx, taft.dim, taft.algebra.mult[first][second])
                                for r in range(taft.dim):
                                    if not prod[r].is_zero():
                                        acc[r] = acc[r] + cr * mt * cb * ca * ca2 * prod[r]
            solved = dense(ctx, taft.dim, taft.antipode.col_terms(m.x_index(a, b)))
            assert acc == solved


@pytest.mark.parametrize("n", [2, 3])
def test_taft_presentation(n):
    m = taft_model(n)
    rep = taft_presentation_check(m.taft, n)
    assert rep.ok, [c.claim_id for c in rep.failures()]


def test_bosonization_with_trivial_r_breaks_the_coproduct():
    # the smash product still multiplies like the Taft algebra, but the
    # coproduct loses the g x x term, which the presentation check and
    # the bialgebra axiom both catch
    line = braided_line(2)
    t = group_algebra_cn(2)
    b = bosonization(line, t, trivial_r_matrix(t))
    rep = taft_presentation_check(b, 2)
    assert {c.claim_id for c in rep.failures()} == {"taft/coproduct-skew-primitive"}
    rep2 = check_bialgebra(b.algebra, b.coalgebra)
    assert any(c.claim_id.endswith("comult-multiplicative") for c in rep2.failures())


def test_k_coaction_square_consistency():
    # expand lambda(w)^2 by hand in the tensor algebra and compare with
    # the coaction of w^2 = xi
    k = comodule_algebra_K(2, 2, 1)
    m = taft_model(2)
    ctx = m.ctx
    halg = m.taft.algebra
    w = k.index(0, 1)
    lam_w = {(y, p): c for y, p, c in k.coaction[w]}
    sq = {}
    for (y1, p1), c1 in lam_w.items():
        for (y2, p2), c2 in lam_w.items():
            for y, m1 in halg.mult[y1][y2]:
                for p, m2 in k.algebra.mult[p1][p2]:
                    key = (y, p)
                    sq[key] = sq.get(key, ctx.zero()) + c1 * c2 * m1 * m2
    sq = {kk: v for kk, v in sq.items() if not v.is_zero()}
    w2 = k.algebra.mult[w][w]
    assert w2 == nonzero(k.algebra.unit)  # w^2 = xi = 1
    expect = tensor_image(k.coaction, w2)
    assert sq == expect


def test_k_unit_coaction():
    k = comodule_algebra_K(3, 3, 0)
    cv = tensor_image(k.coaction, nonzero(k.algebra.unit))
    assert cv == {(0, 0): k.algebra.ctx.one()}


def test_k_group_free_case():
    k = comodule_algebra_K(2, 1, 0)
    assert k.dim == 2
    assert check_comodule_algebra(k).ok


def test_k_dimension_contract():
    for (n, d) in [(2, 1), (2, 2), (3, 1), (3, 3), (4, 2)]:
        for xi in (0, 1):
            k = comodule_algebra_K(n, d, xi)
            assert k.dim == d * n


def test_rejects_non_divisor():
    with pytest.raises(ValueError):
        comodule_algebra_K(4, 3, 0)
    with pytest.raises(ValueError):
        coideal_comodule_algebra(4, 3)


def test_auxiliary_comodule_algebras():
    aux = {"trivial": trivial_comodule_algebra(4), "regular": regular_comodule_algebra(4),
           "coideal": coideal_comodule_algebra(4, 2)}
    assert aux["trivial"].dim == 1
    assert aux["regular"].dim == 16
    assert aux["coideal"].dim == 2
    for k in aux.values():
        assert check_comodule_algebra(k).ok


def test_trivial_comodule_unit_coaction():
    k = trivial_comodule_algebra(2)
    assert tensor_image(k.coaction, nonzero(k.algebra.unit)) == {(0, 0): k.algebra.ctx.one()}


def test_projection_values_and_morphism():
    m = taft_model(2)
    pi = m.pi
    # pi(1 # g) = g, pi(x # 1) = 0
    assert pi.col_terms(m.x_index(0, 1)) == [(1, m.ctx.one())]
    assert pi.col_terms(m.x_index(1, 0)) == []
    rep = check_hopf_morphism(m.taft, m.t_hopf, pi)
    assert rep.ok, [c.claim_id for c in rep.failures()]


def test_projection_multiplicative_all_pairs():
    m = taft_model(3)
    pi = m.pi
    taft, t = m.taft, m.t_hopf
    for i in range(taft.dim):
        for j in range(taft.dim):
            lhs = pi.apply_terms(taft.algebra.mult[i][j])
            rhs = t.algebra.mult_terms(pi.col_terms(i), pi.col_terms(j))
            assert lhs == rhs


def test_constructor_grid_passes_axioms():
    for n in (1, 2, 3, 4):
        m = taft_model(n)
        assert check_hopf(m.taft).ok
        assert check_rmatrix(m.rmatrix).ok
        for d in [d for d in range(1, n + 1) if n % d == 0]:
            for xi in (0, 1):
                assert check_comodule_algebra(comodule_algebra_K(n, d, xi)).ok
            assert check_comodule_algebra(coideal_comodule_algebra(n, d)).ok
        assert check_comodule_algebra(regular_comodule_algebra(n)).ok
        assert check_comodule_algebra(trivial_comodule_algebra(n)).ok


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structure_constants_are_sorted_zero_free_term_lists(n):
    # every product, coproduct and coaction is stored once, as a term
    # list strictly ascending in its indices and free of zero coefficients
    m = taft_model(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    comodule_algebras = [comodule_algebra_K(n, d, xi) for d in divisors for xi in (0, 1)]
    comodule_algebras += [coideal_comodule_algebra(n, d) for d in divisors]
    comodule_algebras += [regular_comodule_algebra(n), trivial_comodule_algebra(n)]
    algebras = [m.taft.algebra, m.t_hopf.algebra, m.line.algebra]
    algebras += [k.algebra for k in comodule_algebras]
    term_lists = [terms for alg in algebras for row in alg.mult for terms in row]
    for coalgebra in (m.taft.coalgebra, m.t_hopf.coalgebra, m.line.coalgebra):
        term_lists += coalgebra.comult
    for k in comodule_algebras:
        term_lists += k.coaction
    for terms in term_lists:
        indices = [t[:-1] for t in terms]
        assert all(a < b for a, b in zip(indices, indices[1:]))
        assert not any(t[-1].is_zero() for t in terms)
