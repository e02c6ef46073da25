"""Constructors for the concrete objects of the computation: the
quasitriangular cyclic group algebra, the truncated polynomial braided
Hopf algebra ("braided line"), its bosonization (a Taft algebra
presentation), and the comodule algebras over it.

Basis orders are contractual and shared with the JSON output:
  * kC_n:        g^b at index b
  * bosonization x^a # g^b at index a*n + b
  * K(d, xi):    h^a w^b at index a*n + b   (0 <= a < d, 0 <= b < n)
Coactions are extended multiplicatively from generators and then
verified; antipodes are solved from the convolution identity, never
transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import FieldContext, Scalar, make_field, zeta_power
from .hopf import (
    FinDimAlgebra,
    FinDimCoalgebra,
    FinDimHopf,
    convolution_failures,
    leg_map,
    module_algebra_failures,
    solve_antipode,
    tensor_image,
    tensor_mult,
)
from .braiding import (
    ComoduleAlgebra,
    ModuleRep,
    RMatrix,
    braiding,
    check_comodule_algebra,
    tensor_module,
)
from .linalg import Matrix, lincomb, rank, sorted_terms, sparse_diff
from .reports import VerificationReport


class ConstructionError(Exception):
    """A constructed object failed its own verification."""


def q_binomial(ctx: FieldContext, q: Scalar, a: int, i: int) -> Scalar:
    """Gaussian binomial coefficient by the Pascal recursion
    C(a, i) = C(a-1, i-1) + q^i C(a-1, i)."""
    if i < 0 or i > a:
        return ctx.zero()
    row = [ctx.one()]
    for m in range(1, a + 1):
        new = [ctx.one()]
        qpow = ctx.one()
        for s in range(1, m):
            qpow = qpow * q
            new.append(row[s - 1] + qpow * row[s])
        new.append(ctx.one())
        row = new
    return row[i]


@lru_cache(maxsize=None)
def group_algebra_cn(n: int) -> FinDimHopf:
    """Group algebra of the cyclic group of order n; grouplike basis."""
    ctx = make_field(n)
    o = ctx.one()
    alg = FinDimAlgebra(ctx, n, [[[((i + j) % n, o)] for j in range(n)] for i in range(n)], [(0, o)])
    coa = FinDimCoalgebra(ctx, n, [[(i, i, o)] for i in range(n)], [o] * n)
    antipode = solve_antipode(alg, coa)
    return FinDimHopf(alg, coa, antipode)


@lru_cache(maxsize=None)
def r_matrix_cn(n: int) -> RMatrix:
    """R = (1/n) sum_{i,j} q^{-ij} g^i x g^j with q = zeta_n."""
    t = group_algebra_cn(n)
    ctx = t.ctx
    inv_n = Fraction(1, n)
    element = []
    for i in range(n):
        for j in range(n):
            element.append(zeta_power(ctx, (-i * j) % n).scale(inv_n))
    return RMatrix(t, element)


@dataclass
class BraidedHopf:
    """Hopf algebra inside the braided module category of (T, R):
    carrier algebra/coalgebra plus the T-action and a solved antipode."""

    algebra: FinDimAlgebra
    coalgebra: FinDimCoalgebra
    tmodule: ModuleRep
    braided_antipode: Matrix
    t_hopf: FinDimHopf
    rmatrix: RMatrix

    @property
    def ctx(self) -> FieldContext:
        return self.algebra.ctx

    @property
    def dim(self) -> int:
        return self.algebra.dim


def _braided_square_product(h_alg: FinDimAlgebra, sigma: Matrix,
                            x: dict, y: dict) -> dict:
    """(u1 x u2)(v1 x v2) = u1 sigma(u2 x v1) v2 on sparse tensors."""
    n = h_alg.dim
    out: dict = {}
    for (i, j), cx in x.items():
        for (k, l), cy in y.items():
            c0 = cx * cy
            for row, s in sigma.col_terms(j * n + k):
                left, right = h_alg.mult[i][row // n], h_alg.mult[row % n][l]
                if left and right:
                    cs = c0 * s
                    for p, m1 in left:
                        c1 = cs * m1
                        for q, m2 in right:
                            key, add = (p, q), c1 * m2
                            out[key] = out[key] + add if key in out else add
    return {k: v for k, v in out.items() if not v.is_zero()}


@lru_cache(maxsize=None)
def braided_line(n: int) -> BraidedHopf:
    """k[x]/(x^n) with g.x = q x, x primitive; the coproduct on powers
    is extended multiplicatively inside the braided tensor square and
    its coefficients are verified against Gaussian binomials."""
    t = group_algebra_cn(n)
    r = r_matrix_cn(n)
    ctx = t.ctx
    z, o = ctx.zero(), ctx.one()
    q = zeta_power(ctx, 1)

    mult = [[[(a + c, o)] if a + c < n else [] for c in range(n)] for a in range(n)]
    alg = FinDimAlgebra(ctx, n, mult, [(0, o)])

    action = [Matrix(ctx, n, n, [(a, a, zeta_power(ctx, (a * b) % n)) for a in range(n)])
              for b in range(n)]
    tmod = ModuleRep(t.algebra, n, action)

    sigma = braiding(r, tmod, tmod)
    delta_x = {(1, 0): o, (0, 1): o} if n > 1 else {(0, 0): o}
    deltas: list[dict] = [{(0, 0): o}]
    for a in range(1, n):
        deltas.append(_braided_square_product(alg, sigma, deltas[a - 1], delta_x))
    if n > 1:
        # x^n = 0 must be compatible with the extension
        top = _braided_square_product(alg, sigma, deltas[n - 1], delta_x)
        if top:
            raise ConstructionError("braided coproduct does not kill x^n")

    comult = []
    for a in range(n):
        expect = {(i, a - i): q_binomial(ctx, q, a, i) for i in range(a + 1)}
        key = sparse_diff(deltas[a], expect, ctx)
        if key is not None:
            raise ConstructionError(
                f"coproduct coefficient at x^{a} -> x^{key[0]} x x^{key[1]} "
                "does not match the Gaussian binomial"
            )
        comult.append([(i, j, c) for (i, j), c in sorted_terms(deltas[a])])
    counit = [o if a == 0 else z for a in range(n)]
    coa = FinDimCoalgebra(ctx, n, comult, counit)
    antipode = solve_antipode(alg, coa)
    return BraidedHopf(alg, coa, tmod, antipode, t, r)


def check_braided_hopf(h: BraidedHopf, report: VerificationReport | None = None,
                       prefix: str = "braided-hopf") -> VerificationReport:
    """T-equivariance of product and coproduct, braided multiplicativity
    of the coproduct, and the antipode convolution identities."""
    rep = report if report is not None else VerificationReport()
    ctx = h.ctx
    t = h.t_hopf
    n = h.dim

    def coproduct_t_equivariant():
        # T acts on H x H at the kron index p * n + q
        square = tensor_module(t, h.tmodule, h.tmodule)
        flat = [[(p * n + q, d) for p, q, d in terms] for terms in h.coalgebra.comult]
        for b in range(t.dim):
            act = h.tmodule.action[b]
            for i in range(n):
                lhs = tensor_image(h.coalgebra.comult, act.col_terms(i))
                rhs = {divmod(u, n): c for u, c in square.action[b].apply_terms(flat[i])}
                if sparse_diff(lhs, rhs, ctx) is not None:
                    yield {"t_index": b, "index": i}

    def coproduct_braided_multiplicative():
        sigma = braiding(h.rmatrix, h.tmodule, h.tmodule)
        for i in range(n):
            for j in range(n):
                lhs = tensor_image(h.coalgebra.comult, h.algebra.mult[i][j])
                di = {(a, b2): c for a, b2, c in h.coalgebra.comult[i]}
                dj = {(a, b2): c for a, b2, c in h.coalgebra.comult[j]}
                rhs = _braided_square_product(h.algebra, sigma, di, dj)
                if sparse_diff(lhs, rhs, ctx) is not None:
                    yield {"pair": [i, j]}

    rep.check(f"{prefix}/product-t-equivariant", (
        {"t_index": b, "pair": [i, j]}
        for b, i, j in module_algebra_failures(t.coalgebra, h.algebra, h.tmodule.action)))
    rep.check(f"{prefix}/coproduct-t-equivariant", coproduct_t_equivariant())
    rep.check(f"{prefix}/coproduct-braided-multiplicative", coproduct_braided_multiplicative())
    for side in ("left", "right"):
        rep.check(f"{prefix}/antipode-{side}",
                  convolution_failures(h.algebra, h.coalgebra, h.braided_antipode, side))
    return rep


def bosonization(h: BraidedHopf, t: FinDimHopf, r: RMatrix) -> FinDimHopf:
    """Smash product algebra and smash coproduct coalgebra on basis
    x^a # g^b at index a*dim(T) + b; the coproduct
    h1 # R2 t1 x R1.h2 # t2 reads R leg by leg, and the antipode is
    solved afresh."""
    ctx = h.ctx
    nh, nt = h.dim, t.dim
    dim = nh * nt
    one = ctx.one()

    # each T-action column read once; x^a (t1.x^c) formed once per (a, t1, c)
    cols = [[act.col_terms(c) for c in range(nh)] for act in h.tmodule.action]
    mult = [[None] * dim for _ in range(dim)]
    for a in range(nh):
        for c in range(nh):
            moved = [h.algebra.mult_terms([(a, one)], t1_cols[c]) for t1_cols in cols]
            for b in range(nt):
                for d in range(nt):
                    acc: dict[int, Scalar] = {}
                    for t1, t2, cc in t.coalgebra.comult[b]:
                        right = t.algebra.mult[t2][d]
                        if right:
                            for p, hp in moved[t1]:
                                c1 = cc * hp
                                for qq, mq in right:
                                    key, add = p * nt + qq, c1 * mq
                                    acc[key] = acc[key] + add if key in acc else add
                    mult[a * nt + b][c * nt + d] = sorted_terms(acc)
    unit = [(p * nt + qq, cp * cq) for p, cp in h.algebra.unit for qq, cq in t.algebra.unit]
    alg = FinDimAlgebra(ctx, dim, mult, unit)

    comult = []
    # per leg of R: its right index j and the columns of its summed left
    # leg acting on H
    legs = []
    for j, leg in r.legs:
        act = h.tmodule.act_terms(leg)
        legs.append((j, [act.col_terms(h2) for h2 in range(nh)]))
    for a in range(nh):
        for b in range(nt):
            delta: dict[tuple[int, int], Scalar] = {}
            for h1, h2, c1 in h.coalgebra.comult[a]:
                for t1, t2, c2 in t.coalgebra.comult[b]:
                    coeff = c1 * c2
                    for rj, cols in legs:
                        left_t, right_h = t.algebra.mult[rj][t1], cols[h2]
                        if left_t and right_h:
                            for tt1, m1 in left_t:
                                c1 = coeff * m1
                                for hh2, m2 in right_h:
                                    key, add = (h1 * nt + tt1, hh2 * nt + t2), c1 * m2
                                    delta[key] = delta[key] + add if key in delta else add
            comult.append([(row, col, c) for (row, col), c in sorted_terms(delta)])
    counit = []
    for a in range(nh):
        for b in range(nt):
            counit.append(h.coalgebra.counit[a] * t.coalgebra.counit[b])
    coa = FinDimCoalgebra(ctx, dim, comult, counit)
    antipode = solve_antipode(alg, coa)
    return FinDimHopf(alg, coa, antipode)


@lru_cache(maxsize=None)
def taft_model(n: int):
    """Everything for one n: field, kC_n, R, braided line, bosonization,
    the projection onto the group algebra and the embedding of it."""
    t = group_algebra_cn(n)
    r = r_matrix_cn(n)
    h = braided_line(n)
    taft = bosonization(h, t, r)
    pi = projection_pi(n)
    # g^b -> x^0 # g^b, at index 0 * n + b
    embed = Matrix(t.ctx, taft.dim, n, [(0 * n + b, b, t.ctx.one()) for b in range(n)])
    return TaftModel(n, t.ctx, t, r, h, taft, pi, embed)


@dataclass(frozen=True)
class TaftModel:
    n: int
    ctx: FieldContext
    t_hopf: FinDimHopf
    rmatrix: RMatrix
    line: BraidedHopf
    taft: FinDimHopf
    pi: Matrix
    embed: Matrix  # columns = images 1 # g^b of the group algebra's basis

    def x_index(self, a: int, b: int) -> int:
        """Index of x^a # g^b."""
        return a * self.n + b


def projection_pi(n: int) -> Matrix:
    """pi(x^a # g^b) = eps(x^a) g^b as an n x n^2 matrix."""
    ctx = make_field(n)
    return Matrix(ctx, n, n * n, [(b, 0 * n + b, ctx.one()) for b in range(n)])


def check_hopf_morphism(source: FinDimHopf, target: FinDimHopf, phi: Matrix,
                        report: VerificationReport | None = None,
                        prefix: str = "hopf-morphism") -> VerificationReport:
    """phi respects product, unit, coproduct, counit and antipode."""
    rep = report if report is not None else VerificationReport()
    ctx = source.ctx
    image = [phi.col_terms(i) for i in range(source.dim)]  # phi(e_i)

    def comultiplicative():
        for i in range(source.dim):
            lhs = leg_map((image, image), {(j, k): c for j, k, c in source.coalgebra.comult[i]})
            if sparse_diff(lhs, tensor_image(target.coalgebra.comult, image[i]), ctx) is not None:
                yield {"index": i}

    rep.check(f"{prefix}/multiplicative", (
        {"pair": [i, j]} for i in range(source.dim) for j in range(source.dim)
        if phi.apply_terms(source.algebra.mult[i][j]) != target.algebra.mult_terms(image[i], image[j])))
    ok = phi.apply_terms(source.algebra.unit) == target.algebra.unit
    rep.add(f"{prefix}/unit", ok, None if ok else {})
    rep.check(f"{prefix}/comultiplicative", comultiplicative())
    rep.check(f"{prefix}/counit", (
        {"index": i} for i in range(source.dim)
        if source.coalgebra.counit[i] != target.coalgebra.counit_vec(image[i])))
    rep.check(f"{prefix}/antipode", (
        {"index": i} for i in range(source.dim)
        if phi.apply_terms(source.antipode.col_terms(i)) != target.antipode.apply_terms(image[i])))
    return rep


def taft_presentation_check(b: FinDimHopf, n: int,
                            report: VerificationReport | None = None,
                            prefix: str = "taft") -> VerificationReport:
    """The generator images X = x#1, G = 1#g satisfy g^n = 1, x^n = 0,
    gx = q xg, the pointed coproducts, and the n^2 monomials x^a g^b are
    linearly independent."""
    rep = report if report is not None else VerificationReport()
    if b.dim != n * n:
        rep.add(f"{prefix}/dimension", False, {"dim": b.dim, "expected": n * n})
        return rep
    rep.add(f"{prefix}/dimension", True)
    ctx = b.ctx
    alg = b.algebra
    q = zeta_power(ctx, 1)
    one = ctx.one()
    unit = alg.unit
    x = [(n, one)] if n > 1 else []
    g = [(1 % (n * n), one)]

    def power(v, k):
        out = unit
        for _ in range(k):
            out = alg.mult_terms(out, v)
        return out

    ok = power(g, n) == unit
    rep.add(f"{prefix}/relation-g-order", ok, None if ok else {"relation": "g^n = 1"})

    ok = not power(x, n)
    rep.add(f"{prefix}/relation-x-nilpotent", ok, None if ok else {"relation": "x^n = 0"})

    ok = alg.mult_terms(g, x) == [(k, q * c) for k, c in alg.mult_terms(x, g)]
    rep.add(f"{prefix}/relation-commutation", ok, None if ok else {"relation": "gx = q xg"})

    dg = tensor_image(b.coalgebra.comult, g)
    expect = {(i, j): gi * gj for i, gi in g for j, gj in g}
    ok = sparse_diff(dg, expect, ctx) is None
    rep.add(f"{prefix}/coproduct-grouplike", ok, None if ok else {"element": "g"})

    if n > 1:
        dx = tensor_image(b.coalgebra.comult, x)
        # x x 1 + g x x
        expect = dict(lincomb([(xi, [((i, j), uj) for j, uj in unit]) for i, xi in x]
                              + [(gi, [((i, j), xj) for j, xj in x]) for i, gi in g]))
        ok = sparse_diff(dx, expect, ctx) is None
        rep.add(f"{prefix}/coproduct-skew-primitive", ok, None if ok else {"element": "x"})
    else:
        rep.add_skipped(f"{prefix}/coproduct-skew-primitive", "no x generator at n = 1")

    def monomials_independent():
        monomials = [alg.mult_terms(power(x, a), power(g, bb)) for a in range(n) for bb in range(n)]
        r = rank(Matrix(ctx, n * n, n * n, [(row, k, c) for row, v in enumerate(monomials) for k, c in v]))
        if r != n * n:
            yield {"rank": r}

    rep.check(f"{prefix}/monomials-independent", monomials_independent())
    return rep


# ---------------------------------------------------------------------------
# comodule algebras over the bosonization


class ComoduleAlgebraK(ComoduleAlgebra):
    """K(d, xi): generators h, w with h^d = 1, hw = q^m wh, w^n = xi."""

    def __init__(self, hopf: FinDimHopf, algebra: FinDimAlgebra, coaction,
                 n: int, d: int, xi: Fraction):
        generators = []
        if d > 1:
            generators.append(1 * n + 0)
        if n > 1:
            generators.append(0 * n + 1)
        super().__init__(hopf, algebra, coaction, name=f"K({d},{xi})",
                         generators=generators)
        self.n = n
        self.d = d
        self.m = n // d
        self.xi = xi

    def index(self, a: int, b: int) -> int:
        return (a % self.d) * self.n + (b % self.n)


def comodule_algebra_K(n: int, d: int, xi) -> ComoduleAlgebraK:
    """Build K(d, xi) with its coaction into the bosonization, extending
    lambda(h) = g^m x h, lambda(w) = x x 1 + g x w multiplicatively and
    verifying the result."""
    if n % d != 0:
        raise ValueError(f"d = {d} does not divide n = {n}")
    xi = Fraction(xi)
    model = taft_model(n)
    ctx = model.ctx
    taft = model.taft
    m = n // d
    dim = d * n
    o = ctx.one()

    def idx(a: int, b: int) -> int:
        return (a % d) * n + (b % n)

    xi_s = ctx.from_rational(xi)
    mult = [[None] * dim for _ in range(dim)]
    for a in range(d):
        for b in range(n):
            for c in range(d):
                for e in range(n):
                    coeff = zeta_power(ctx, (-m * b * c) % n)
                    if b + e >= n:
                        coeff = coeff * xi_s
                    mult[idx(a, b)][idx(c, e)] = [] if coeff.is_zero() else [(idx(a + c, b + e), coeff)]
    alg = FinDimAlgebra(ctx, dim, mult, [(0, o)])

    # generator coactions inside Taft x K
    lam_h = {(model.x_index(0, m % n), idx(1, 0)): o}
    lam_w = {(model.x_index(1, 0), idx(0, 0)): o, (model.x_index(0, 1), idx(0, 1)): o}
    if n == 1:
        lam_w = {(model.x_index(0, 0), idx(0, 0)): xi_s}

    legs = (taft.algebra, alg)
    h_pows = [{(model.x_index(0, 0), idx(0, 0)): o}]
    for a in range(1, d):
        h_pows.append(tensor_mult(legs, h_pows[a - 1], lam_h))
    w_pows = [{(model.x_index(0, 0), idx(0, 0)): o}]
    for b in range(1, n):
        w_pows.append(tensor_mult(legs, w_pows[b - 1], lam_w))

    coaction = [[(y, p, c) for (y, p), c in
                 sorted_terms(tensor_mult(legs, h_pows[a], w_pows[b]))]
                for a in range(d) for b in range(n)]

    k = ComoduleAlgebraK(taft, alg, coaction, n, d, xi)
    rep = check_comodule_algebra(k)
    if not rep.ok:
        raise ConstructionError(f"K({d},{xi}) coaction failed verification: "
                                f"{[c.claim_id for c in rep.failures()]}")
    return k


def regular_comodule_algebra(n: int) -> ComoduleAlgebra:
    """K = the bosonization itself with lambda = Delta."""
    model = taft_model(n)
    taft = model.taft
    gens = [model.x_index(1, 0), model.x_index(0, 1)] if n > 1 else []
    k = ComoduleAlgebra(taft, taft.algebra, taft.coalgebra.comult, name="regular",
                        generators=gens)
    rep = check_comodule_algebra(k)
    if not rep.ok:
        raise ConstructionError("regular comodule algebra failed verification")
    return k
