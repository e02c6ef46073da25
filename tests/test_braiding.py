from fractions import Fraction

import pytest

from hopfadjoint.cyclotomic import zeta_power
from hopfadjoint.braiding import (
    ComoduleAlgebra,
    ComoduleRep,
    ModuleRep,
    RMatrix,
    braiding,
    check_comodule,
    check_comodule_algebra,
    check_module,
    check_rmatrix,
    check_yd,
    dual_module,
    regular_module,
    tensor_module,
    trivial_module,
)
from hopfadjoint.constructions import (
    comodule_algebra_K,
    group_algebra_cn,
    r_matrix_cn,
    taft_model,
)
from hopfadjoint.linalg import Matrix, kernel_basis, kron
from support import YDModule, braiding_inverse, from_rows, trivial_r_matrix, yd_braiding


def flip_matrix(ctx, dv, dw):
    return Matrix(ctx, dw * dv, dv * dw,
                  [(j * dv + i, i * dw + j, ctx.one()) for i in range(dv) for j in range(dw)])


def test_trivial_rmatrix_passes():
    for n in (1, 2, 3):
        t = group_algebra_cn(n)
        assert check_rmatrix(trivial_r_matrix(t)).ok


def test_rmatrix_n2_matches_expansion_and_passes():
    r = r_matrix_cn(2)
    ctx = r.host.ctx
    half = Fraction(1, 2)
    expect = [ctx.from_rational(half), ctx.from_rational(half),
              ctx.from_rational(half), ctx.from_rational(-half)]
    assert r.element == expect
    assert check_rmatrix(r).ok


def test_rmatrix_n3_passes():
    assert check_rmatrix(r_matrix_cn(3)).ok


def test_rmatrix_sign_flip_caught_at_inversion():
    # flipping one sign of the n = 2 element kills a Fourier component,
    # so the failure already shows up as non-invertibility
    t = group_algebra_cn(2)
    el = list(r_matrix_cn(2).element)
    el[3] = -el[3]
    with pytest.raises(ValueError):
        RMatrix(t, el)


def test_rmatrix_mutations_fail_checker():
    # a scaled coefficient stays invertible and breaks the coproduct and
    # counit axioms; over a commutative base the conjugation axiom can
    # never fail, so those are the claims a mutation must trip
    t2 = group_algebra_cn(2)
    el = list(r_matrix_cn(2).element)
    el[1] = el[1].scale(Fraction(3, 2))
    rep = check_rmatrix(RMatrix(t2, el))
    failing = {c.claim_id for c in rep.failures()}
    assert "rmatrix/comult-left" in failing and "rmatrix/counit" in failing
    assert "rmatrix/almost-cocommutative" not in failing

    t3 = group_algebra_cn(3)
    el3 = list(r_matrix_cn(3).element)
    el3[4] = -el3[4]
    rep3 = check_rmatrix(RMatrix(t3, el3))
    failing3 = {c.claim_id for c in rep3.failures()}
    assert "rmatrix/comult-left" in failing3
    assert "rmatrix/antipode-left" in failing3


def test_braiding_of_trivial_r_is_flip():
    t = group_algebra_cn(2)
    r = trivial_r_matrix(t)
    v = regular_module(t.algebra)
    sigma = braiding(r, v, v)
    assert sigma == flip_matrix(t.ctx, 2, 2)


def test_braiding_on_characters_is_scaled_flip():
    # 1-dim module where g acts by q at n = 2: sigma = q * flip = -1
    r = r_matrix_cn(2)
    ctx = r.host.ctx
    q = zeta_power(ctx, 1)
    chi = ModuleRep(r.host.algebra, 1, [Matrix.identity(ctx, 1),
                                        Matrix(ctx, 1, 1, [(0, 0, q)])])
    sigma = braiding(r, chi, chi)
    assert sigma.entries == [ctx.from_rational(-1)]


def test_braiding_inverse_composes_to_identity():
    r = r_matrix_cn(3)
    v = regular_module(r.host.algebra)
    sigma = braiding(r, v, v)
    inv = braiding_inverse(r, v, v)
    assert sigma * inv == Matrix.identity(r.host.ctx, 9)
    assert inv * sigma == Matrix.identity(r.host.ctx, 9)


def test_braiding_hexagons_on_module_corpus():
    r = r_matrix_cn(3)
    t = r.host
    reps = [trivial_module(t), regular_module(t.algebra)]
    for v in reps:
        for u in reps:
            for w in reps:
                uw = tensor_module(t, u, w)
                lhs = braiding(r, v, uw)
                s1 = kron(braiding(r, v, u), Matrix.identity(t.ctx, w.dim))
                s2 = kron(Matrix.identity(t.ctx, u.dim), braiding(r, v, w))
                assert s2 * s1 == lhs
                vu = tensor_module(t, v, u)
                lhs2 = braiding(r, vu, w)
                s3 = kron(Matrix.identity(t.ctx, v.dim), braiding(r, u, w))
                s4 = kron(braiding(r, v, w), Matrix.identity(t.ctx, u.dim))
                assert s4 * s3 == lhs2


def test_regular_taft_module_is_a_module():
    m = taft_model(2)
    assert check_module(regular_module(m.taft.algebra)).ok


def test_comodule_algebra_k21_passes():
    k = comodule_algebra_K(2, 2, 1)
    assert check_comodule_algebra(k).ok


def test_comodule_algebra_with_dropped_term_fails():
    k = comodule_algebra_K(2, 2, 1)
    m = taft_model(2)
    w = k.index(0, 1)
    g_w = (m.x_index(0, 1), w)  # the g x w term of lambda(w)
    assert g_w in [(y, v0) for y, v0, _ in k.coaction[w]]
    coaction = list(k.coaction)
    coaction[w] = [t for t in coaction[w] if t[:2] != g_w]
    broken = ComoduleAlgebra(m.taft, k.algebra, coaction, name="broken")
    rep = check_comodule_algebra(broken)
    assert not rep.ok
    assert any("multiplicative" in c.claim_id or "counit" in c.claim_id
               for c in rep.failures())


def line_yd_module(n):
    """The braided line as a Yetter-Drinfeld module over kC_n: action
    g.x^a = q^a x^a, coaction x^a -> g^a x x^a."""
    m = taft_model(n)
    t = m.t_hopf
    ctx = m.ctx
    coaction = [[(a, a, ctx.one())] for a in range(n)]
    return YDModule(t, m.line.tmodule, ComoduleRep(t.coalgebra, n, coaction))


def test_line_is_yetter_drinfeld_over_group_algebra():
    for n in (2, 3):
        yd = line_yd_module(n)
        assert check_module(yd.module).ok
        assert check_comodule(yd.comodule).ok
        assert check_yd(yd.hopf, yd.module, yd.comodule).ok


def test_yd_braiding_with_trivial_coaction_is_flip():
    m = taft_model(2)
    t = m.t_hopf
    ctx = m.ctx
    dim = 2
    triv_act = ModuleRep(t.algebra, dim, [Matrix.identity(ctx, dim)] * t.dim)
    coaction = [[(0, v, ctx.one())] for v in range(dim)]
    a = YDModule(t, triv_act, ComoduleRep(t.coalgebra, dim, coaction))
    c = yd_braiding(t, a, a)
    assert c == flip_matrix(ctx, dim, dim)


def test_yd_braiding_grades_by_character():
    n = 3
    yd = line_yd_module(n)
    c = yd_braiding(yd.hopf, yd, yd)
    ctx = yd.hopf.ctx
    # c(x^a x x^b) = (g^a . x^b) x x^a = q^{ab} x^b x x^a
    for a in range(n):
        for b in range(n):
            col = a * n + b
            row = b * n + a
            assert c.entries[row * c.cols + col] == zeta_power(ctx, a * b)
    assert kernel_basis(c).dim == 0


def test_yd_braiding_naturality_with_solved_morphisms():
    n = 2
    yd = line_yd_module(n)
    t = yd.hopf
    ctx = t.ctx
    # solve for YD endomorphisms f: action- and coaction-equivariant
    rows = []
    dim = yd.module.dim
    for h in range(t.dim):
        act = yd.module.action[h].entries
        for r in range(dim):
            for c_ in range(dim):
                row = [ctx.zero()] * (dim * dim)
                for k in range(dim):
                    row[r * dim + k] = row[r * dim + k] + act[k * dim + c_]
                    row[k * dim + c_] = row[k * dim + c_] - act[r * dim + k]
                rows.append(row)
    comm = kernel_basis(from_rows(ctx, rows))
    assert comm.dim >= 1
    cmat = yd_braiding(t, yd, yd)
    for vec in comm.rows:
        f = Matrix(ctx, dim, dim, [(u // dim, u % dim, e) for u, e in vec.items()])
        # check f is also comodule map before using it
        lhs = {}
        ok = True
        for v in range(dim):
            acc = {}
            for w, cw in f.col_terms(v):
                for y, w0, cc in yd.comodule.coaction[w]:
                    acc[(y, w0)] = acc.get((y, w0), ctx.zero()) + cw * cc
            acc2 = {}
            for y, v0, cc in yd.comodule.coaction[v]:
                for w, cw in f.col_terms(v0):
                    acc2[(y, w)] = acc2.get((y, w), ctx.zero()) + cc * cw
            for key in set(acc) | set(acc2):
                if not (acc.get(key, ctx.zero()) - acc2.get(key, ctx.zero())).is_zero():
                    ok = False
        if not ok:
            continue
        lhs_m = cmat * kron(f, Matrix.identity(ctx, dim))
        rhs_m = kron(Matrix.identity(ctx, dim), f) * cmat
        assert lhs_m == rhs_m


def test_dual_module_properties():
    m = taft_model(2)
    taft = m.taft
    reg = regular_module(taft.algebra)
    dual, ev, coev = dual_module(taft, reg)
    assert check_module(dual).ok
    d = reg.dim
    ctx = taft.ctx

    # ev and coev are module morphisms into / out of the trivial module
    dv = tensor_module(taft, dual, reg)
    vd = tensor_module(taft, reg, dual)
    eps = taft.coalgebra.counit
    for h in range(taft.dim):
        lhs = ev * dv.action[h]
        rhs = Matrix(ctx, 1, d * d, [(i, j, eps[h] * e) for i, j, e in ev.terms()])
        assert lhs == rhs
        lhs2 = vd.action[h] * coev
        rhs2 = Matrix(ctx, d * d, 1, [(i, j, eps[h] * e) for i, j, e in coev.terms()])
        assert lhs2 == rhs2

    # rigidity zig-zags as matrix identities
    idv = Matrix.identity(ctx, d)
    left = kron(idv, ev) * kron(coev, idv)
    assert left == idv
    right = kron(ev, idv) * kron(idv, coev)
    assert right == idv

    # trivial module is self-dual
    triv = trivial_module(taft)
    dual_t, _, _ = dual_module(taft, triv)
    for h in range(taft.dim):
        assert dual_t.action[h] == Matrix(ctx, 1, 1, [(0, 0, eps[h])])

    # double dual action = conjugation by S^2
    ddual, _, _ = dual_module(taft, dual)
    s2 = taft.antipode * taft.antipode
    for h in range(taft.dim):
        assert ddual.action[h] == reg.act_terms(s2.col_terms(h))
