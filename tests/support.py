"""Objects that only the tests build: extra comodule algebras, the
trivial R-matrix, Yetter-Drinfeld braidings, the inverse braiding, the
dual algebra of a coalgebra, and matrices from dense rows.  Each is
checked against the package's own checkers before a test relies on it.
It also keeps the slow oracles of the R-matrix consumers, which read R
term by term where the package reads it leg by leg."""

from hopfadjoint.braiding import ComoduleAlgebra, ComoduleRep, ModuleRep, RMatrix, check_comodule_algebra
from hopfadjoint.constructions import BraidedHopf, ConstructionError, taft_model
from hopfadjoint.hopf import FinDimAlgebra, FinDimCoalgebra, FinDimHopf, tensor_algebra
from hopfadjoint.linalg import Matrix, dense, flip_legs, invert, kron_sum, nonzero, sorted_terms


def from_rows(ctx, rows) -> Matrix:
    """The matrix with these dense rows."""
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    return Matrix(ctx, len(rows), ncols, [(i, j, c) for i, r in enumerate(rows) for j, c in nonzero(r)])


def trivial_r_matrix(t: FinDimHopf) -> RMatrix:
    """R = 1 x 1 over any Hopf algebra with grouplike-enough unit."""
    unit = nonzero(t.algebra.unit)
    return RMatrix(t, dense(t.ctx, t.dim * t.dim, [(i * t.dim + j, ci * cj) for i, ci in unit for j, cj in unit]))


def dual_algebra(c: FinDimCoalgebra) -> FinDimAlgebra:
    """Convolution algebra on the dual basis; the unit is the counit."""
    mult = [[[] for _ in range(c.dim)] for _ in range(c.dim)]
    for k, terms in enumerate(c.comult):
        for i, j, coeff in terms:
            mult[i][j].append((k, coeff))
    return FinDimAlgebra(c.ctx, c.dim, mult, list(c.counit))


def braiding_inverse(r: RMatrix, v: ModuleRep, w: ModuleRep) -> Matrix:
    """Matrix of sigma^{-1}_{V,W}(w x v) = S(R1).v x R2.w from W x V to V x W."""
    s = r.host.antipode
    return flip_legs(kron_sum([(c, v.act_terms(s.col_terms(i)), w.action[j])
                               for i, j, c in r.terms]), w.dim, v.dim)


def braiding_per_term(r: RMatrix, v: ModuleRep, w: ModuleRep) -> Matrix:
    """Oracle of `braiding`: sigma_{V,W} with one Kronecker term per
    (i, j, c) term of R, n^2 of them for kC_n."""
    return flip_legs(kron_sum([(c, w.action[j], v.action[i]) for i, j, c in r.terms]),
                     v.dim, w.dim)


def bosonization_comult_per_term(h: BraidedHopf, t: FinDimHopf, r: RMatrix) -> list:
    """Oracle of the coproduct of `bosonization`:
    Delta(a # b) = h1 # R2 t1 x R1.h2 # t2, summed over every term of R."""
    z = h.ctx.zero()
    nt = t.dim
    comult = []
    for a in range(h.dim):
        for b in range(nt):
            delta: dict = {}
            for h1, h2, c1 in h.coalgebra.comult[a]:
                for t1, t2, c2 in t.coalgebra.comult[b]:
                    for ri, rj, cr in r.terms:
                        coeff = c1 * c2 * cr
                        right_h = h.tmodule.action[ri].col_terms(h2)
                        for tt1, m1 in t.algebra.mult[rj][t1]:
                            for hh2, m2 in right_h:
                                key = (h1 * nt + tt1, hh2 * nt + t2)
                                delta[key] = delta.get(key, z) + coeff * m1 * m2
            comult.append([(row, col, c) for (row, col), c in sorted_terms(delta)])
    return comult


def r_inverse_by_inversion(r: RMatrix) -> list:
    """Oracle of `RMatrix.inverse_terms`: the whole inverse of left
    multiplication by R in the tensor-square algebra, applied to 1, as
    (i, j, c) terms."""
    n = r.host.dim
    square = tensor_algebra(r.host.algebra, r.host.algebra)
    inverse = invert(square.left_mult_matrix(nonzero(r.element)))
    return [(u // n, u % n, c) for u, c in inverse.apply_terms(nonzero(square.unit))]


class YDModule:
    """Module + comodule over one Hopf algebra; compatibility is checked
    by check_yd, not assumed."""

    def __init__(self, hopf: FinDimHopf, module: ModuleRep, comodule: ComoduleRep):
        self.hopf = hopf
        self.module = module
        self.comodule = comodule


def yd_braiding(hopf: FinDimHopf, a: YDModule, b: YDModule) -> Matrix:
    """Matrix of c_{A,B}(v x x) = v(-1).x x v0 from A x B to B x A: the
    sum over y of (action of y on B) kron (the y-component of lambda_A)."""
    ctx = hopf.ctx
    da, db = a.module.dim, b.module.dim
    components: dict[int, list] = {}
    for v in range(da):
        for y, v0, c in a.comodule.coaction[v]:
            components.setdefault(y, []).append((v0, v, c))
    return flip_legs(kron_sum([(ctx.one(), b.module.action[y], Matrix(ctx, da, da, t))
                               for y, t in sorted(components.items())]), da, db)


def _verified(k: ComoduleAlgebra) -> ComoduleAlgebra:
    if not check_comodule_algebra(k).ok:
        raise ConstructionError(f"comodule algebra {k.name} failed verification")
    return k


def trivial_comodule_algebra(n: int) -> ComoduleAlgebra:
    """K = k with lambda(1) = 1 x 1."""
    model = taft_model(n)
    ctx = model.ctx
    alg = FinDimAlgebra(ctx, 1, [[[(0, ctx.one())]]], [ctx.one()])
    coaction = [[(y, 0, cy) for y, cy in nonzero(model.taft.algebra.unit)]]
    return _verified(ComoduleAlgebra(model.taft, alg, coaction, name="k1"))


def coideal_comodule_algebra(n: int, d: int) -> ComoduleAlgebra:
    """K = kC_d inside the bosonization: lambda(g_d^a) = g^{ma} x g_d^a."""
    if n % d != 0:
        raise ValueError(f"d = {d} does not divide n = {n}")
    model = taft_model(n)
    ctx = model.ctx
    m = n // d
    o = ctx.one()
    alg = FinDimAlgebra(ctx, d, [[[((i + j) % d, o)] for j in range(d)] for i in range(d)],
                        dense(ctx, d, [(0, o)]))
    coaction = [[(model.x_index(0, (m * a) % n), a, o)] for a in range(d)]
    return _verified(ComoduleAlgebra(model.taft, alg, coaction, name=f"kC_{d}",
                                     generators=[1] if d > 1 else []))
