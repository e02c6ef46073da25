"""Slow oracles of the exhaustive checkers that read precomputed term
lists: the ad1 residuals of `support.hom_conditions_direct` (itself the
oracle of `adjoint.verify_conditions_direct`), the
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
Hom-space maps are corrupted as sparse {(x*NK + k)*NK + pp: Scalar}
dicts, which `support._hom_columns` turns into the column views that
`hom_conditions_direct` reads; the ad1 oracle reads each dict as a dense
vector.

Three more scans have oracles of their own: associativity, checked with
`check_algebra`'s dense residual; the multiplicativity of a coaction,
whose oracle is the dict loop the scan used to run, so that the tensor
index `sparse_diff` picks among several differing keys is compared too;
and `check_module`'s action-multiplicative scan, whose oracle forms
action[i] * action[j] and the action of e_i e_j as matrices per pair.
They are compared on the Taft algebras at n = 3 and 4, on K(4, 2, 1), on
the regular comodule algebra at n = 3, on the solved algebras and on
seeded single-entry corruptions of each, and on tables that hold a
stored zero, which every scan must read as absent.

The other axiom scans of `hopf` each serve two checkers, and those must
report the same first index on one corrupted input: coassociativity for
`check_coalgebra` and `check_comodule`, multiplicativity of the coaction
for `check_bialgebra` and `check_comodule_algebra`, and associativity
and the unit laws for `check_algebra` and `verify_center_algebra`.

The re-check of the conditions on abar, `adjoint.verify_conditions_direct`,
has the re-check over Hom-space views, `support.hom_conditions_direct`, as
its oracle: for every K(d, xi) with xi in {0, 1} and the regular K at
n <= 3, the two agree claim for claim, id, status and witness, on the
inflated views of the solved maps of both variants, of the module
variant's maps against the fully-constrained conditions, and of those
maps with one abar entry shifted, the last one included, or with one
term cancelled to a stored zero.

The half-braiding hexagon of `braided_adjoint.gamma_tensor_hexagon`,
summed column by column, has its Kronecker form `support.hexagon_by_kron`
as its oracle, at n = 2, 3 and 4, on the true half-braidings, on each with
one entry shifted, on one with an entry cancelled to a stored zero and
on one with a zero stored where it holds none.
The wedge identity of `adjoint.dinaturality_failures`, which forms each
right side as one action matrix, has its per-column `lincomb` form
`support.dinaturality_by_lincomb` as its oracle, for the cases of the
re-check above, on the solved maps of both variants and on
fully-constrained maps with one abar entry shifted.  Both pairs must
yield the same witnesses in the same order.
"""

import random
from collections import Counter

import pytest

from hopfadjoint.adjoint import (dinaturality_failures, problem_for, solve_adjoint, verify_center_algebra,
                                 verify_conditions_direct)
from hopfadjoint.braided_adjoint import build_h_ad, gamma_tensor_hexagon
from hopfadjoint.braiding import (ComoduleAlgebra, ComoduleRep, ModuleRep, check_comodule, check_comodule_algebra,
                                  check_module, check_yd, regular_module, trivial_module, yd_braiding)
from hopfadjoint.constructions import (BraidedHopf, braided_line, check_braided_hopf, comodule_algebra_K,
                                       regular_comodule_algebra, taft_model)
from hopfadjoint.cyclotomic import zeta_power
from hopfadjoint.hopf import (FinDimAlgebra, FinDimCoalgebra, check_algebra, check_bialgebra, check_coalgebra,
                             tensor_image)
from hopfadjoint.linalg import Matrix, dense, sorted_terms, sparse_diff
from hopfadjoint.reports import VerificationReport
from support import (_hom_columns, bar_views, dinaturality_by_lincomb, hexagon_by_kron, hom_conditions_direct,
                     perturbed_taft, sparse_maps)

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


def claims(rep: VerificationReport) -> list:
    return [(c.claim_id, c.status, c.witness) for c in rep.claims]


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
    v_nonzero = [(j, vj) for j, vj in enumerate(v) if not vj.is_zero()]
    for i, ui in enumerate(u):
        if ui.is_zero():
            continue
        for j, vj in v_nonzero:
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
            for h1, h2, h3, c in hopf.coalgebra.delta2_terms[h]:
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
    differ, for the product table product[i][j] of term lists, read as
    dense vectors, and the action matrix action[h] of each basis element
    h of coalgebra's host."""
    n = len(product)
    ctx = coalgebra.ctx
    z = ctx.zero()
    product = [[dense(ctx, n, terms) for terms in row] for row in product]

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


def oracle_associativity(alg):
    """check_algebra's witness at each triple where (e_i e_j) e_k and
    e_i (e_j e_k) differ, with the dense residual lhs - rhs."""
    basis = [dense(alg.ctx, alg.dim, [(i, alg.ctx.one())]) for i in range(alg.dim)]
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            for k, ek in enumerate(basis):
                lhs = dense_mult(alg, dense_mult(alg, ei, ej), ek)
                rhs = dense_mult(alg, ei, dense_mult(alg, ej, ek))
                if lhs != rhs:
                    yield {"triple": [i, j, k], "residual": [a - b for a, b in zip(lhs, rhs)]}


def oracle_coaction_multiplicative(h_alg, alg, coaction):
    """([i, j], key) at each pair where lambda(e_i e_j) and lambda(e_i)
    lambda(e_j) differ, key the first (y, p) at which they do: the loop
    the scan ran before, whose two dicts fix which differing key
    `sparse_diff` picks."""
    z = alg.ctx.zero()
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = tensor_image(coaction, alg.mult[i][j])
            rhs = {}
            for y1, a, c1 in coaction[i]:
                for y2, b, c2 in coaction[j]:
                    for y, m1 in h_alg.mult[y1][y2]:
                        for p, m2 in alg.mult[a][b]:
                            rhs[(y, p)] = rhs.get((y, p), z) + c1 * c2 * m1 * m2
            key = sparse_diff(lhs, rhs, alg.ctx)
            if key is not None:
                yield [i, j], list(key)


def oracle_action_multiplicative(v):
    """{"pair": [i, j]} wherever action[i] * action[j] is not the action
    of e_i e_j, both formed as matrices."""
    alg = v.host
    for i in range(alg.dim):
        for j in range(alg.dim):
            if v.action[i] * v.action[j] != v.act_terms(alg.mult[i][j]):
                yield {"pair": [i, j]}


# -- seeded single-entry corruptions -----------------------------------------


def corrupt_maps(alg, rng):
    maps = sparse_maps(alg)
    alpha = maps[rng.randrange(len(maps))]
    u = rng.randrange(alg.NH * alg.NK * alg.NK)
    alpha[u] = alpha.get(u, alg.ctx.zero()) + alg.ctx.one()
    return maps


def corrupt_action(alg, rng):
    action = alg.module.action
    h = rng.randrange(len(action))
    r, c = rng.randrange(alg.dim), rng.randrange(alg.dim)
    action[h] = action[h] + Matrix(alg.ctx, alg.dim, alg.dim, [(r, c, alg.ctx.one())])


def corrupt_coaction(alg, rng):
    j = rng.randrange(alg.dim)
    key = (rng.randrange(alg.NH), rng.randrange(alg.dim))
    acc = {(y, i): c for y, i, c in alg.comodule.coaction[j]}
    acc[key] = acc.get(key, alg.ctx.zero()) + alg.ctx.one()
    alg.comodule.coaction[j] = [(y, i, c) for (y, i), c in sorted_terms(acc)]


def corrupt_product(alg, rng):
    i, j, k = (rng.randrange(alg.dim) for _ in range(3))
    acc = dict(alg.algebra.mult[i][j])
    acc[k] = acc.get(k, alg.ctx.zero()) + alg.ctx.one()
    alg.algebra.mult[i][j] = sorted_terms(acc)


def shifted_product(alg, rng):
    """alg with one coefficient of its product table shifted by one."""
    i, j, k = (rng.randrange(alg.dim) for _ in range(3))
    mult = [list(row) for row in alg.mult]
    acc = dict(mult[i][j])
    acc[k] = acc.get(k, alg.ctx.zero()) + alg.ctx.one()
    mult[i][j] = sorted_terms(acc)
    return FinDimAlgebra(alg.ctx, alg.dim, mult, alg.unit)


def shifted_coaction(ctx, coaction, nh, rng):
    """coaction, into a host of dimension nh, with one coefficient shifted
    by one."""
    n = len(coaction)
    v, key = rng.randrange(n), (rng.randrange(nh), rng.randrange(n))
    acc = {(y, w): c for y, w, c in coaction[v]}
    acc[key] = acc.get(key, ctx.zero()) + ctx.one()
    return coaction[:v] + [[(y, w, c) for (y, w), c in sorted_terms(acc)]] + coaction[v + 1:]


def shifted_action(v, rng):
    """v with one entry of one action matrix shifted by one."""
    h, r, c = rng.randrange(len(v.action)), rng.randrange(v.dim), rng.randrange(v.dim)
    action = list(v.action)
    action[h] = action[h] + Matrix(v.host.ctx, v.dim, v.dim, [(r, c, v.host.ctx.one())])
    return ModuleRep(v.host, v.dim, action)


def with_stored_zeros(alg, rng):
    """alg with a zero coefficient stored in one product term list at an
    index it does not hold, and one of its coefficients cancelled to a
    stored zero: the second is a different algebra, the first is not."""
    zero = alg.ctx.zero()
    mult = [list(row) for row in alg.mult]
    i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
    held = {k for k, _ in mult[i][j]}
    mult[i][j] = sorted(mult[i][j] + [(next(k for k in range(alg.dim) if k not in held), zero)])
    same = FinDimAlgebra(alg.ctx, alg.dim, mult, alg.unit)
    i, j = rng.choice([(i, j) for i in range(alg.dim) for j in range(alg.dim) if alg.mult[i][j]])
    cut = [list(row) for row in alg.mult]
    (k, c), *rest = cut[i][j]
    cut[i][j] = [(k, c - c)] + rest
    return same, FinDimAlgebra(alg.ctx, alg.dim, cut, alg.unit)


# -- the comparisons ---------------------------------------------------------


def assert_ad1_agrees(alg, maps):
    rep = hom_conditions_direct(alg.problem, [_hom_columns(alg.problem, alpha) for alpha in maps])
    assert first_witness(rep, "conditions/ad1-residual-zero") == next(oracle_ad1(alg.problem, maps), None)


def assert_yd_agrees(alg):
    hopf, mod, com = alg.problem.hopf, alg.module, alg.comodule
    rep = check_yd(hopf, mod, com)
    assert first_witness(rep, "yd/compatibility") == next(oracle_yd(hopf, mod, com), None)
    assert_module_agrees(mod)


def assert_center_agrees(alg):
    rep = verify_center_algebra(alg)
    assert (scan_witness(rep, "adjoint-center/product-module-morphism", "h", "pair")
            == next(oracle_product_module_morphism(alg.problem.hopf.coalgebra, alg.algebra.mult, alg.module.action),
                    None))
    coords = alg.algebra
    expect = next(oracle_coaction_multiplicative(alg.problem.hopf.algebra, coords, alg.comodule.coaction), None)
    assert (scan_witness(rep, "adjoint-center/product-comodule-morphism", "pair")
            == (None if expect is None else (expect[0],)))
    assert_associativity_agrees(coords)
    # check_algebra runs the same associativity and unit scans on the coordinate algebra
    plain = check_algebra(coords)
    assert (scan_witness(plain, "algebra/associativity", "triple")
            == scan_witness(rep, "adjoint-center/associative", "triple"))
    assert scan_witness(plain, "algebra/unit-laws", "index") == scan_witness(rep, "adjoint-center/unit-two-sided", "basis")


def assert_associativity_agrees(alg):
    assert first_witness(check_algebra(alg), "algebra/associativity") == next(oracle_associativity(alg), None)


def assert_coaction_agrees(hopf, alg, coaction):
    """check_comodule_algebra's first pair for this coaction of alg into
    hopf against the oracle's."""
    expect = next(oracle_coaction_multiplicative(hopf.algebra, alg, coaction), None)
    rep = check_comodule_algebra(ComoduleAlgebra(hopf, alg, coaction))
    assert (scan_witness(rep, "comodule-algebra/coaction-multiplicative", "pair")
            == (None if expect is None else (expect[0],)))


def assert_comult_agrees(alg, coalgebra):
    """check_bialgebra's first pair and tensor index against the oracle's."""
    expect = next(oracle_coaction_multiplicative(alg, alg, coalgebra.comult), None)
    assert (scan_witness(check_bialgebra(alg, coalgebra), "bialgebra/comult-multiplicative", "pair", "tensor_index")
            == (None if expect is None else tuple(expect)))


def assert_module_agrees(v):
    assert first_witness(check_module(v), "module/action-multiplicative") == next(oracle_action_multiplicative(v), None)


@pytest.mark.parametrize("case", sorted(CASES))
def test_checkers_match_oracles_on_solved_algebras(case):
    alg = solved(case)
    assert_ad1_agrees(alg, sparse_maps(alg))
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


MODEL_CASES = ("taft-3", "taft-4", "K(4,2,1)", "regular-3")


def model_case(case):
    """(hopf, algebra, coaction of the algebra into hopf) for a case."""
    if case.startswith("taft"):
        h = taft_model(int(case[-1])).taft
        return h, h.algebra, h.coalgebra.comult
    k = regular_comodule_algebra(3) if case == "regular-3" else comodule_algebra_K(4, 2, 1)
    return k.hopf, k.algebra, k.coaction


def assert_model_scans_agree(hopf, alg, coaction):
    assert_associativity_agrees(alg)
    assert_coaction_agrees(hopf, alg, coaction)
    if alg.dim == hopf.dim:  # a (perturbed) Taft algebra whose coaction is its Delta
        assert_comult_agrees(alg, FinDimCoalgebra(alg.ctx, alg.dim, coaction, hopf.coalgebra.counit))
    assert_module_agrees(regular_module(alg))


@pytest.mark.parametrize("case", MODEL_CASES)
def test_scans_match_oracles_on_model_algebras(case):
    assert_model_scans_agree(*model_case(case))


@pytest.mark.parametrize("case", MODEL_CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_scans_match_oracles_on_corrupted_model_algebras(case, seed):
    rng = random.Random(f"{case}/{seed}")
    hopf, alg, coaction = model_case(case)
    shifted = shifted_product(alg, rng)
    assert_model_scans_agree(hopf, shifted, coaction)
    assert_module_agrees(ModuleRep(shifted, alg.dim, regular_module(alg).action))
    assert_model_scans_agree(hopf, alg, shifted_coaction(alg.ctx, coaction, hopf.dim, rng))
    assert_module_agrees(shifted_action(regular_module(alg), rng))


@pytest.mark.parametrize("case", MODEL_CASES)
def test_scans_treat_a_stored_zero_as_absent(case):
    rng = random.Random(case)
    hopf, alg, coaction = model_case(case)
    same, cut = with_stored_zeros(alg, rng)
    for table in (same, cut):
        assert_model_scans_agree(hopf, table, coaction)
        assert_module_agrees(ModuleRep(table, alg.dim, regular_module(alg).action))
    # the same algebra with a stored zero passes every scan its oracle passes
    assert check_algebra(same).ok
    assert check_module(ModuleRep(same, alg.dim, regular_module(alg).action)).ok


@pytest.mark.parametrize("case", ["n2-K(2,1)", "n3-regular"])
def test_condition_checker_treats_a_stored_zero_as_absent(case):
    # a corruption that cancels an entry leaves a stored zero: the converter
    # to column views, the one place a stored zero can arise, must read it
    # as absent, so the checker reports what it reports with the entry
    # deleted, as the oracle does
    alg = solved(case)
    maps = sparse_maps(alg)
    u, c = max(maps[-1].items())
    maps[-1][u] = c + (-c)
    # and a zero stored where the first map has no entry
    maps[0][next(v for v in range(alg.NH * alg.NK * alg.NK) if v not in maps[0])] = alg.ctx.zero()
    stored = hom_conditions_direct(alg.problem, [_hom_columns(alg.problem, alpha) for alpha in maps])
    assert not stored.ok
    assert_ad1_agrees(alg, maps)
    absent = [{v: e for v, e in alpha.items() if not e.is_zero()} for alpha in maps]
    assert claims(stored) == claims(hom_conditions_direct(alg.problem, [_hom_columns(alg.problem, a) for a in absent]))


# -- the abar re-check against the Hom-space one -----------------------------

# every K(d, xi) with xi in {0, 1} and the regular K, for n <= 3
RECHECK_CASES = [(n, (d, xi)) for n in (1, 2, 3) for d in range(1, n + 1) if n % d == 0 for xi in (0, 1)]
RECHECK_CASES += [(n, None) for n in (1, 2, 3)]


def assert_recheck_agrees(p, bars) -> list:
    """verify_conditions_direct on the abar term lists bars[i][x] and
    hom_conditions_direct on their inflated views agree claim for claim;
    the claims are returned."""
    got = claims(verify_conditions_direct(p, bars))
    assert got == claims(hom_conditions_direct(p, [bar_views(p, b) for b in bars]))
    return got


def shifted_bar(bars, i, x, pp, one):
    """bars with one added to the e_pp coefficient of abar_i(x)."""
    acc = dict(bars[i][x])
    acc[pp] = acc[pp] + one if pp in acc else one
    row = list(bars[i])
    row[x] = sorted_terms(acc)
    return bars[:i] + [row] + bars[i + 1:]


@pytest.mark.parametrize("n, dxi", RECHECK_CASES, ids=[f"n{n}-{'regular' if dxi is None else 'K(%d,%d)' % dxi}"
                                                      for n, dxi in RECHECK_CASES])
def test_abar_recheck_agrees_with_the_hom_space_recheck(n, dxi):
    model = taft_model(n)
    k = regular_comodule_algebra(n) if dxi is None else comodule_algebra_K(n, *dxi)
    module_p, full_p = (problem_for(model, k, conds) for conds in ({"ad1", "ad3"}, {"ad1", "ad2", "ad3"}))
    module, full = (solve_adjoint(p, with_structure=False) for p in (module_p, full_p))
    # the inflation is the package's own view
    assert [bar_views(module_p, b) for b in module.bar_terms] == [module.hom_columns(i) for i in range(module.dim)]
    # solved maps of both variants pass, and the module variant's maps are
    # checked against the fully-constrained conditions too
    assert all(status == "pass" for _, status, _ in assert_recheck_agrees(module_p, module.bar_terms))
    assert all(status == "pass" for _, status, _ in assert_recheck_agrees(full_p, full.bar_terms))
    assert_recheck_agrees(full_p, module.bar_terms)
    # one abar entry shifted: eight seeded ones and the last one
    rng = random.Random(f"{n}-{dxi}")
    spots = [(rng.randrange(module.dim), rng.randrange(module.NH), rng.randrange(module.NK)) for _ in range(8)]
    failing = Counter()
    for i, x, pp in spots + [(module.dim - 1, module.NH - 1, module.NK - 1)]:
        bars = shifted_bar(module.bar_terms, i, x, pp, model.ctx.one())
        for p in (module_p, full_p):
            failing.update(claim_id for claim_id, status, _ in assert_recheck_agrees(p, bars) if status == "fail")
    if n > 1:  # at n = 1 every map passes: H and K are the field
        assert failing["conditions/ad1-residual-zero"] and failing["conditions/ad2-residual-zero"]
    # the last term of the last abar entry cancelled to a stored zero, which
    # both read as absent; ad3 then compares at every k
    i, x = max((i, x) for i in range(module.dim) for x in range(module.NH) if module.bar_terms[i][x])
    cut = [list(row) for row in module.bar_terms]
    *head, (r, c) = cut[i][x]
    cut[i][x] = head + [(r, c - c)]
    for p in (module_p, full_p):
        assert_recheck_agrees(p, cut)


# -- the hexagon and the wedge identity against their old forms -------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hexagon_agrees_with_the_kronecker_form(n):
    m = taft_model(n)
    had = build_h_ad(m)
    ctx, one = m.ctx, m.ctx.one()
    mods = {"regular": regular_module(m.taft.algebra), "trivial": trivial_module(m.taft)}
    gammas = {name: yd_braiding(had.comodule, x) for name, x in mods.items()}
    rng = random.Random(n)
    cases = [gammas]
    for name, g in gammas.items():
        spot = (rng.randrange(g.rows), rng.randrange(g.cols), one)
        cases.append({**gammas, name: g + Matrix(ctx, g.rows, g.cols, [spot])})
    # gamma_regular with its last entry cancelled to a zero that it
    # stores, a different map, and with a zero stored where it holds none,
    # the same map
    g = gammas["regular"]
    rows = [dict(g.row_terms(i)) for i in range(g.rows)]
    r = max(i for i, row in enumerate(rows) if row)
    c = max(rows[r])
    padded = [dict(row) for row in rows]
    padded[r][next(j for j in range(g.cols) if j not in rows[r])] = ctx.zero()
    rows[r][c] = rows[r][c] - rows[r][c]
    cases += [{**gammas, "regular": Matrix._of_rows(ctx, g.cols, rows)},
              {**gammas, "regular": Matrix._of_rows(ctx, g.cols, padded)}]
    got = [list(gamma_tensor_hexagon(had, mods, gs)) for gs in cases]
    assert got == [list(hexagon_by_kron(had, mods, gs)) for gs in cases]
    with_regular = [{"pair": ["regular", "regular"]}, {"pair": ["regular", "trivial"]},
                    {"pair": ["trivial", "regular"]}]
    assert got[0] == got[4] == [] and got[1] == got[3] == with_regular
    assert got[2] == [{"pair": ["regular", "trivial"]}, {"pair": ["trivial", "regular"]},
                      {"pair": ["trivial", "trivial"]}]


@pytest.mark.parametrize("n, dxi", RECHECK_CASES, ids=[f"n{n}-{'regular' if dxi is None else 'K(%d,%d)' % dxi}"
                                                      for n, dxi in RECHECK_CASES])
def test_wedge_identity_agrees_with_the_lincomb_form(n, dxi):
    model = taft_model(n)
    k = regular_comodule_algebra(n) if dxi is None else comodule_algebra_K(n, *dxi)
    full_p = problem_for(model, k, {"ad1", "ad2", "ad3"})
    full = solve_adjoint(full_p, with_structure=False)
    module = solve_adjoint(problem_for(model, k, {"ad1", "ad3"}), with_structure=False)
    rng = random.Random(f"wedge-{n}-{dxi}")
    spots = [(rng.randrange(full.dim), rng.randrange(full.NH), rng.randrange(full.NK)) for _ in range(4)]
    shifted = [shifted_bar(full.bar_terms, i, x, pp, model.ctx.one())[i] for i, x, pp in spots]
    mreg = regular_module(k.algebra)
    for v in (regular_module(model.t_hopf.algebra), trivial_module(model.t_hopf)):
        failing = []
        for bars in full.bar_terms + module.bar_terms + shifted:
            got = list(dinaturality_failures(full_p, bars, mreg, v))
            assert got == list(dinaturality_by_lincomb(full_p, bars, mreg, v))
            failing.append(bool(got))
        # the solved fully-constrained maps pass; against the regular kC_n
        # module a shifted one fails when n > 1, and against the trivial
        # module, the unit object, every map passes
        assert not any(failing[:full.dim]) and any(failing[-len(shifted):]) == (n > 1 and v.dim > 1)


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
    for tmodule in (line.tmodule, ModuleRep(line.t_hopf.algebra, 3, action)):
        rep = check_braided_hopf(BraidedHopf(line.algebra, line.coalgebra, tmodule, line.braided_antipode,
                                             line.t_hopf, line.rmatrix))
        assert (scan_witness(rep, "braided-hopf/product-t-equivariant", "t_index", "pair")
                == next(oracle_product_module_morphism(line.t_hopf.coalgebra, line.algebra.mult, tmodule.action), None))


def _with_extra_comult_term(h, i, term):
    """The coalgebra of h with the term (j, k, c) added to Delta(e_i)."""
    comult = list(h.coalgebra.comult)
    comult[i] = sorted(comult[i] + [term])
    return FinDimCoalgebra(h.ctx, h.dim, comult, h.coalgebra.counit)


def test_counit_law_of_a_coalgebra_and_of_its_regular_comodule_agree():
    c = perturbed_taft().coalgebra
    first = scan_witness(check_coalgebra(c), "coalgebra/counit-laws", "index")
    assert first is not None
    assert scan_witness(check_comodule(ComoduleRep(c, c.dim, c.comult)), "comodule/counit", "index") == first


def test_right_counit_law_is_checked_on_the_opposite_comultiplication():
    # Delta(g) = g x g + x x 1 at n = 2: eps(x) = 0 keeps the left law, the right one fails
    h = taft_model(2).taft
    c = _with_extra_comult_term(h, 1, (2, 0, h.ctx.one()))
    assert scan_witness(check_coalgebra(c), "coalgebra/counit-laws", "index") == (1,)
    assert scan_witness(check_comodule(ComoduleRep(c, c.dim, c.comult)), "comodule/counit", "index") is None


def test_unit_coaction_of_a_bialgebra_and_of_its_regular_comodule_algebra_agree():
    # Delta(1) = 1 x 1 + x x x at n = 2
    h = taft_model(2).taft
    c = _with_extra_comult_term(h, 0, (2, 2, h.ctx.one()))
    assert scan_witness(check_bialgebra(h.algebra, c), "bialgebra/comult-unit", "tensor_index") == ([2, 2],)
    regular = ComoduleAlgebra(h, h.algebra, c.comult)
    assert first_witness(check_comodule_algebra(regular), "comodule-algebra/coaction-unit") == {
        "axiom": "lambda(1) = 1 x 1"}
