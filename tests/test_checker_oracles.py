"""Slow oracles of the exhaustive checkers that read precomputed term
lists: the ad1 residuals of `verify_conditions_direct`, the
Yetter-Drinfeld compatibility of `check_yd`, and the module-algebra scan
`hopf.module_algebra_failures` that both the product-module-morphism
claim of `verify_center_algebra` and the product-t-equivariant claim of
`check_braided_hopf` run.

Each oracle is the dense loop the checker used to run: it recomputes
every value per basis tuple from dense vectors, with its own dense
product on the structure constants.  Every fast checker must report the
same first witness as its oracle (or pass with it) on the solved
algebras at n = 2, 3 and on seeded single-entry corruptions of the
Hom-space maps, the actions, the coactions and the product.  The
Hom-space maps are sparse {(x*NK + k)*NK + pp: Scalar} dicts; the ad1
oracle reads each one as a dense vector.

The other axiom scans of `hopf` each serve two checkers, and those must
report the same first index on one corrupted input: coassociativity for
`check_coalgebra` and `check_comodule`, multiplicativity of the coaction
for `check_bialgebra` and `check_comodule_algebra`, and associativity
and the unit laws for `check_algebra` and `verify_center_algebra`.
"""

import random

import pytest

from hopfadjoint.adjoint import (_coordinate_algebra, problem_for, solve_adjoint, verify_center_algebra,
                                 verify_conditions_direct)
from hopfadjoint.braiding import (ComoduleAlgebra, ComoduleRep, ModuleRep, check_comodule, check_comodule_algebra,
                                  check_yd)
from hopfadjoint.constructions import (BraidedHopf, braided_line, check_braided_hopf, comodule_algebra_K,
                                       regular_comodule_algebra, taft_model)
from hopfadjoint.cyclotomic import zeta_power
from hopfadjoint.hopf import check_algebra, check_bialgebra, check_coalgebra
from hopfadjoint.linalg import Matrix, dense, sorted_terms, sparse_diff
from hopfadjoint.reports import VerificationReport
from support import perturbed_taft

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


def scan_witness(rep: VerificationReport, claim_id: str, *keys):
    """The values of keys in the witness of claim_id, or None when it passes."""
    witness = first_witness(rep, claim_id)
    return None if witness is None else tuple(witness[k] for k in keys)


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


def oracle_product_module_morphism(coalgebra, product, action):
    """(h, [i, j]) at each tuple where h.(a_i a_j) and (h1.a_i)(h2.a_j)
    differ, for the dense product table product[i][j] and the action
    matrix action[h] of each basis element h of coalgebra's host."""
    n = len(product)
    ctx = coalgebra.ctx
    z = ctx.zero()

    def mult(u, v):
        out = [z] * n
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                if x.is_zero() or y.is_zero():
                    continue
                for k, e in enumerate(product[i][j]):
                    out[k] = out[k] + x * y * e
        return out

    def column(h, i):
        return dense(ctx, n, action[h].col_terms(i))

    for h, terms in enumerate(coalgebra.comult):
        for i in range(n):
            for j in range(n):
                lhs = [z] * n
                for k, x in enumerate(product[i][j]):
                    lhs = [r + x * e for r, e in zip(lhs, column(h, k))]
                rhs = [z] * n
                for h1, h2, c in terms:
                    w = mult(column(h1, i), column(h2, j))
                    rhs = [r + c * x for r, x in zip(rhs, w)]
                if lhs != rhs:
                    yield h, [i, j]


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
    assert (scan_witness(rep, "adjoint-center/product-module-morphism", "h", "pair")
            == next(oracle_product_module_morphism(alg.problem.hopf.coalgebra, alg.product, alg.action), None))
    # check_algebra runs the same associativity and unit scans on the coordinate algebra
    plain = check_algebra(_coordinate_algebra(alg))
    assert (scan_witness(plain, "algebra/associativity", "triple")
            == scan_witness(rep, "adjoint-center/associative", "triple"))
    assert scan_witness(plain, "algebra/unit-laws", "index") == scan_witness(rep, "adjoint-center/unit-two-sided", "basis")


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


# -- the callers of one shared scan ------------------------------------------


def test_coassociativity_of_a_coalgebra_and_of_its_regular_comodule_agree():
    c = perturbed_taft().coalgebra
    first = scan_witness(check_coalgebra(c), "coalgebra/coassociativity", "index")
    assert first is not None
    assert scan_witness(check_comodule(ComoduleRep(c, c.dim, c.comult)), "comodule/coassociativity", "index") == first


def test_multiplicativity_of_a_bialgebra_and_of_its_regular_comodule_algebra_agree():
    h = perturbed_taft()
    first = scan_witness(check_bialgebra(h.algebra, h.coalgebra), "bialgebra/comult-multiplicative", "pair")
    assert first is not None
    regular = ComoduleAlgebra(h, h.algebra, h.coalgebra.comult)
    assert scan_witness(check_comodule_algebra(regular), "comodule-algebra/coaction-multiplicative", "pair") == first


def test_product_t_equivariance_matches_oracle():
    # the braided line at n = 3 with g^b acting on every x^a, a >= 1, by q^b
    line = braided_line(3)
    ctx = line.ctx
    action = [Matrix(ctx, 3, 3, [(a, a, zeta_power(ctx, b if a else 0)) for a in range(3)]) for b in range(3)]
    product = [[dense(ctx, 3, terms) for terms in row] for row in line.algebra.mult]
    for tmodule in (line.tmodule, ModuleRep(line.t_hopf.algebra, 3, action)):
        rep = check_braided_hopf(BraidedHopf(line.algebra, line.coalgebra, tmodule, line.braided_antipode,
                                             line.t_hopf, line.rmatrix))
        assert (scan_witness(rep, "braided-hopf/product-t-equivariant", "t_index", "pair")
                == next(oracle_product_module_morphism(line.t_hopf.coalgebra, product, tmodule.action), None))
