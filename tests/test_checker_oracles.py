"""Slow oracles of the exhaustive checkers that read precomputed term
lists: the ad1 residuals of `verify_conditions_direct`, the
Yetter-Drinfeld compatibility of `check_yd` and the product-module-
morphism claim of `verify_center_algebra`.

Each oracle is the dense loop the checker used to run: it recomputes
every value per basis tuple from dense vectors, with its own dense
product on the structure constants.  Every fast checker must report the
same first witness as its oracle (or pass with it) on the solved
algebras at n = 2, 3 and on seeded single-entry corruptions of the
Hom-space maps, the actions, the coactions and the product.  The
Hom-space maps are sparse {(x*NK + k)*NK + pp: Scalar} dicts; the ad1
oracle reads each one as a dense vector.
"""

import random

import pytest

from hopfadjoint.adjoint import problem_for, solve_adjoint, verify_center_algebra, verify_conditions_direct
from hopfadjoint.braiding import check_yd
from hopfadjoint.constructions import comodule_algebra_K, regular_comodule_algebra, taft_model
from hopfadjoint.linalg import Matrix, dense, sorted_terms, sparse_diff
from hopfadjoint.reports import VerificationReport

# (n, K, conditions): module variants over K(d, xi) and the relative regular case
CASES = {
    "n2-K(1,0)": (2, (1, 0), {"ad1", "ad3"}),
    "n2-K(2,1)": (2, (2, 1), {"ad1", "ad3"}),
    "n2-regular": (2, None, {"ad1", "ad2", "ad3"}),
    "n3-K(3,0)": (3, (3, 0), {"ad1", "ad3"}),
    "n3-K(1,1)": (3, (1, 1), {"ad1", "ad3"}),
    "n3-regular": (3, None, {"ad1", "ad2", "ad3"}),
}
SEEDS = range(6)


def solved(case):
    n, dxi, conditions = CASES[case]
    k = regular_comodule_algebra(n) if dxi is None else comodule_algebra_K(n, *dxi)
    return solve_adjoint(problem_for(taft_model(n), k, conditions))


def first_witness(rep: VerificationReport, claim_id: str):
    (claim,) = [c for c in rep.claims if c.claim_id == claim_id]
    return claim.witness


# -- the dense oracles -------------------------------------------------------


def dense_mult(alg, u, v):
    """u * v for dense vectors, straight from the structure constants."""
    out = [alg.ctx.zero()] * alg.dim
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui.is_zero() or vj.is_zero():
                continue
            for k, m in alg.mult[i][j]:
                out[k] = out[k] + ui * vj * m
    return out


def hom_eval(p, flat, x, kterms):
    """alpha(e_x, k) for the element k of K with these terms, dense."""
    NK = p.comod_alg.dim
    out = [p.ctx.zero()] * NK
    for k, ck in kterms:
        base = (x * NK + k) * NK
        for i in range(NK):
            e = flat[base + i]
            if not e.is_zero():
                out[i] = out[i] + ck * e
    return out


def oracle_ad1(p, maps):
    K = p.comod_alg
    kalg = K.algebra
    NH, NK = p.hopf.dim, K.dim
    z = p.ctx.zero()
    for idx, alpha in enumerate(maps):
        flat = dense(p.ctx, NH * NK * NK, alpha.items())
        for k in range(NK):
            for x in range(NH):
                for l in range(NK):
                    lhs = [z] * NK
                    for y, k0, c in K.coaction[k]:
                        for zz, m1 in p.hopf.algebra.mult[y][x]:
                            v = hom_eval(p, flat, zz, kalg.mult[k0][l])
                            for r in range(NK):
                                if not v[r].is_zero():
                                    lhs[r] = lhs[r] + c * m1 * v[r]
                    col = flat[(x * NK + l) * NK : (x * NK + l + 1) * NK]
                    if lhs != dense_mult(kalg, dense(p.ctx, NK, [(k, p.ctx.one())]), col):
                        yield {"basis": idx, "tuple": [k, x, l]}


def oracle_yd(hopf, module, comodule):
    alg = hopf.algebra
    ctx = hopf.ctx
    z, one = ctx.zero(), ctx.one()
    for h in range(hopf.dim):
        for v in range(module.dim):
            lhs = {}
            for w, wc in module.action[h].col_terms(v):
                for y, w0, c in comodule.coaction[w]:
                    lhs[(y, w0)] = lhs.get((y, w0), z) + wc * c
            rhs = {}
            for h1, h2, h3, c in hopf.coalgebra.delta2_terms(h):
                s3 = dense(ctx, hopf.dim, hopf.antipode.col_terms(h3))
                for y, v0, d in comodule.coaction[v]:
                    first = dense_mult(alg, dense_mult(alg, dense(ctx, hopf.dim, [(h1, one)]),
                                                       dense(ctx, hopf.dim, [(y, one)])), s3)
                    h2v0 = dense(ctx, module.dim, module.action[h2].col_terms(v0))
                    for yy, fy in enumerate(first):
                        for w, wv in enumerate(h2v0):
                            if not fy.is_zero() and not wv.is_zero():
                                rhs[(yy, w)] = rhs.get((yy, w), z) + c * d * fy * wv
            if sparse_diff(lhs, rhs, hopf.ctx) is not None:
                yield {"pair": [h, v]}


def oracle_product_module_morphism(a):
    n = a.dim
    z = a.ctx.zero()
    hopf = a.problem.hopf

    def product(u, v):
        out = [z] * n
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                if x.is_zero() or y.is_zero():
                    continue
                for k, e in enumerate(a.product[i][j]):
                    out[k] = out[k] + x * y * e
        return out

    def column(h, i):
        return dense(a.ctx, n, a.action[h].col_terms(i))

    for h in range(hopf.dim):
        for i in range(n):
            for j in range(n):
                lhs = [z] * n
                for k, x in enumerate(a.product[i][j]):
                    lhs = [r + x * e for r, e in zip(lhs, column(h, k))]
                rhs = [z] * n
                for h1, h2, c in hopf.coalgebra.comult[h]:
                    w = product(column(h1, i), column(h2, j))
                    rhs = [r + c * x for r, x in zip(rhs, w)]
                if lhs != rhs:
                    yield {"h": h, "pair": [i, j]}


# -- seeded single-entry corruptions -----------------------------------------


def corrupt_maps(alg, rng):
    maps = alg.hom_maps()
    alpha = maps[rng.randrange(len(maps))]
    u = rng.randrange(alg.NH * alg.NK * alg.NK)
    alpha[u] = alpha.get(u, alg.ctx.zero()) + alg.ctx.one()
    return maps


def corrupt_action(alg, rng):
    h = rng.randrange(len(alg.action))
    r, c = rng.randrange(alg.dim), rng.randrange(alg.dim)
    alg.action[h] = alg.action[h] + Matrix(alg.ctx, alg.dim, alg.dim, [(r, c, alg.ctx.one())])


def corrupt_coaction(alg, rng):
    j = rng.randrange(alg.dim)
    key = (rng.randrange(alg.NH), rng.randrange(alg.dim))
    acc = {(y, i): c for y, i, c in alg.coaction[j]}
    acc[key] = acc.get(key, alg.ctx.zero()) + alg.ctx.one()
    alg.coaction[j] = [(y, i, c) for (y, i), c in sorted_terms(acc)]


def corrupt_product(alg, rng):
    i, j, k = (rng.randrange(alg.dim) for _ in range(3))
    alg.product[i][j] = list(alg.product[i][j])
    alg.product[i][j][k] = alg.product[i][j][k] + alg.ctx.one()


# -- the comparisons ---------------------------------------------------------


def assert_ad1_agrees(alg, maps):
    rep = verify_conditions_direct(alg.problem, maps)
    assert first_witness(rep, "conditions/ad1-residual-zero") == next(oracle_ad1(alg.problem, maps), None)


def assert_yd_agrees(alg):
    hopf, mod, com = alg.problem.hopf, alg.module_rep(), alg.comodule_rep()
    rep = check_yd(hopf, mod, com)
    assert first_witness(rep, "yd/compatibility") == next(oracle_yd(hopf, mod, com), None)


def assert_center_agrees(alg):
    rep = verify_center_algebra(alg)
    assert (first_witness(rep, "adjoint-center/product-module-morphism")
            == next(oracle_product_module_morphism(alg), None))


@pytest.mark.parametrize("case", sorted(CASES))
def test_checkers_match_oracles_on_solved_algebras(case):
    alg = solved(case)
    assert_ad1_agrees(alg, alg.hom_maps())
    assert_yd_agrees(alg)
    assert_center_agrees(alg)


@pytest.mark.parametrize("case", ["n2-K(2,1)", "n3-K(3,0)", "n3-regular"])
@pytest.mark.parametrize("seed", SEEDS)
def test_checkers_match_oracles_on_corrupted_inputs(case, seed):
    rng = random.Random(f"{case}/{seed}")
    alg = solved(case)
    assert_ad1_agrees(alg, corrupt_maps(alg, rng))
    corrupt_action(alg, rng)
    assert_yd_agrees(alg)
    assert_center_agrees(alg)
    alg = solved(case)
    corrupt_coaction(alg, rng)
    assert_yd_agrees(alg)
    corrupt_product(alg, rng)
    assert_center_agrees(alg)


@pytest.mark.parametrize("case", ["n2-K(2,1)", "n3-regular"])
def test_condition_checker_treats_a_stored_zero_as_absent(case):
    # a corruption that cancels an entry leaves a stored zero: the checker
    # must report what it reports with the entry deleted, as the oracle does
    alg = solved(case)
    maps = alg.hom_maps()
    u, c = max(maps[-1].items())
    maps[-1][u] = c + (-c)
    # and a zero stored where the first map has no entry
    maps[0][next(v for v in range(alg.NH * alg.NK * alg.NK) if v not in maps[0])] = alg.ctx.zero()
    stored = verify_conditions_direct(alg.problem, maps)
    assert not stored.ok
    assert_ad1_agrees(alg, maps)
    absent = [{v: e for v, e in alpha.items() if not e.is_zero()} for alpha in maps]
    assert ([(c.claim_id, c.status, c.witness) for c in stored.claims]
            == [(c.claim_id, c.status, c.witness) for c in verify_conditions_direct(alg.problem, absent).claims])
