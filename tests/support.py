"""Objects that only the tests build: extra comodule algebras, the
trivial R-matrix, the inverse braiding, the restriction of a
bosonization module to the group algebra, the dual algebra of a
coalgebra, a perturbed Taft algebra, a Hopf algebra in another basis,
and matrices from dense rows.  Each is checked against the
package's own checkers before a test relies on it.  It also keeps the
slow oracles of the R-matrix consumers, which read R term by term where
the package reads it leg by leg, the per-basis-tuple double
braiding that `braiding.double_braiding` replaced, the solve over
the whole Hom-space that is the oracle of `adjoint.solve_adjoint`, the
sparse Hom-space maps that the tests corrupt, with their converter to
column views and the inflation of abar to one, the re-check of the
conditions on those views, `hom_conditions_direct`, that is the oracle of
`adjoint.verify_conditions_direct` (which reads abar, not views), the
dense coordinates that are the oracle of `linalg.coords_of_terms`, and
`emit_bytes`, the canonical JSON as one bytes object."""

import io

from hopfadjoint.adjoint import AdjointAlgebra, AdjointProblem, ClosureFailure, condition_system
from hopfadjoint.braiding import (ComoduleAlgebra, ComoduleRep, ModuleRep, RMatrix, check_comodule_algebra,
                                  lift_via_pi)
from hopfadjoint.constructions import BraidedHopf, ConstructionError, TaftModel, taft_model
from hopfadjoint.cyclotomic import Scalar
from hopfadjoint.hopf import FinDimAlgebra, FinDimCoalgebra, FinDimHopf, leg_map, tensor_algebra, tensor_image
from hopfadjoint.linalg import (Matrix, SubspaceBasis, _eliminate, _zero_free, dense, flip_legs, invert,
                                kernel_basis, kron_sum, lincomb, nonzero, sorted_terms, sparse_diff)
from hopfadjoint.reports import VerificationReport, emit_json


def emit_bytes(obj) -> bytes:
    """The bytes that `emit_json` writes for obj."""
    fh = io.BytesIO()
    emit_json(obj, fh)
    return fh.getvalue()


def from_rows(ctx, rows) -> Matrix:
    """The matrix with these dense rows."""
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    return Matrix(ctx, len(rows), ncols, [(i, j, c) for i, r in enumerate(rows) for j, c in nonzero(r)])


def from_spanning(ctx, ambient_dim: int, rows) -> SubspaceBasis:
    """The echelon basis of the span of these {index: Scalar} rows,
    which may hold zeros and are left as they are."""
    red, pivots = _eliminate(ctx, [_zero_free(row) for row in rows])
    return SubspaceBasis(ctx, ambient_dim, red, pivots)


def dense_coords_in_basis(v, b: SubspaceBasis):
    """Oracle of `linalg.coords_of_terms`: the dense coordinates of the
    dense vector v in the echelon basis b, read at the pivots, or None
    when the residual v - sum c_i b_i, formed entry by entry over the
    dense basis vectors, is not zero."""
    coords = [v[pc] for pc in b.pivots]
    residual = list(v)
    for c, row in zip(coords, b.rows):
        if c.is_zero():
            continue
        for i, e in enumerate(dense(b.ctx, b.ambient_dim, row.items())):
            if not e.is_zero():
                residual[i] = residual[i] - c * e
    if any(not e.is_zero() for e in residual):
        return None
    return coords


def _hom_columns(p: AdjointProblem, alpha: dict) -> list:
    """The column view of the sparse Hom-space map alpha, a
    {(x*NK + k)*NK + pp: Scalar} dict: the term lists of alpha(e_x, e_k),
    at x*NK + k, as `AdjointAlgebra.hom_columns` lays them out; a stored
    zero counts as absent."""
    NK = p.comod_alg.dim
    cols: list = [[] for _ in range(p.hopf.dim * NK)]
    for u, c in sorted(alpha.items()):
        if not c.is_zero():
            cols[u // NK].append((u % NK, c))
    return cols


def bar_views(p: AdjointProblem, bars: list) -> list:
    """The column view of the right-K-linear map alpha(x, k) = abar(x) k,
    given by the term lists bars[x] of abar(x): entry x*NK + k is
    abar(x) e_k, as `AdjointAlgebra.hom_columns` lays it out."""
    kalg = p.comod_alg.algebra
    one = p.ctx.one()
    return [kalg.mult_terms(bar, [(k, one)]) for bar in bars for k in range(kalg.dim)]


def _ad3_residuals(p: AdjointProblem, views):
    """Basis tuples (x, k) at which a Hom-space map, given by its column
    view, is not right-K-linear: alpha(x, k) != alpha(x, 1) k."""
    kalg = p.comod_alg.algebra
    NK = kalg.dim
    unit = kalg.unit
    one = p.ctx.one()
    for idx, cols in enumerate(views):
        for x in range(p.hopf.dim):
            vbar = lincomb((ck, cols[x * NK + k]) for k, ck in unit)
            for k in range(NK):
                if cols[x * NK + k] != kalg.mult_terms(vbar, [(k, one)]):
                    yield {"basis": idx, "tuple": [x, k]}


def hom_conditions_direct(p: AdjointProblem, views: list[list[list[tuple[int, Scalar]]]],
                          report: VerificationReport | None = None,
                          prefix: str = "conditions") -> VerificationReport:
    """Oracle of `adjoint.verify_conditions_direct`, which reads abar:
    substitute each Hom-space map, given by its column view in views,
    into the active conditions of p: ad1 over every (k, x, l), ad2 and
    ad3.  It reads every alpha(e_x, e_k), so it also checks maps that are
    not right-K-linear, such as the tests' corrupted ones."""
    rep = report if report is not None else VerificationReport()
    ctx = p.ctx
    K = p.comod_alg
    kalg = K.algebra
    NH, NK = p.hopf.dim, K.dim
    z = ctx.zero()
    unit = kalg.unit

    def ad1_residuals():
        # Per (k, x) one identity of NK x NK matrices whose column l is
        # the condition at (k, x, l): sum w A_zz L_k0 = L_k A_x, with
        # A_z(l) = alpha(z, l), L_k left multiplication by e_k in K and
        # the (zz, k0, w) of spread[k][x] the terms of k(-1) x (x) k(0).
        spread = [[[(zz, k0, c * m1) for y, k0, c in K.coaction[k] for zz, m1 in p.hopf.algebra.mult[y][x]]
                   for x in range(NH)] for k in range(NK)]
        for idx, cols in enumerate(views):
            # (zz, k0) -> the (l, r, e) of A_zz L_k0, read from the column
            # table; an (l, r) that comes twice is summed where it is read
            shifted: dict[tuple[int, int], list] = {}
            for k in range(NK):
                left = kalg.mult[k]
                for x in range(NH):
                    lhs: dict[tuple[int, int], Scalar] = {}
                    for zz, k0, w in spread[k][x]:
                        block = shifted.get((zz, k0))
                        if block is None:
                            block = shifted[zz, k0] = [(l, r, ck * e) for l, terms in enumerate(kalg.mult[k0])
                                                       for k1, ck in terms for r, e in cols[zz * NK + k1]]
                        for l, r, e in block:
                            key, add = (l, r), w * e
                            lhs[key] = lhs[key] + add if key in lhs else add
                    rhs: dict[tuple[int, int], Scalar] = {}
                    for l in range(NK):
                        for r, e in cols[x * NK + l]:
                            for pp, m in left[r]:
                                key, add = (l, pp), e * m
                                rhs[key] = rhs[key] + add if key in rhs else add
                    # equal dicts agree in every column; unequal ones may still
                    # differ in stored zeros only
                    if lhs != rhs:
                        bad = {l for l, r in lhs.keys() | rhs.keys() if lhs.get((l, r), z) != rhs.get((l, r), z)}
                        for l in sorted(bad):
                            yield {"basis": idx, "tuple": [k, x, l]}

    def ad2_residuals():
        pi_cols = [p.pi.col_terms(y) for y in range(NH)]
        for idx, cols in enumerate(views):
            bars = [lincomb((ck, cols[x * NK + k]) for k, ck in unit) for x in range(NH)]  # alpha(e_x, 1)
            for x in range(NH):
                lhs = dict(lincomb((cm, [((t_leg, r), e) for r, e in bars[zz]]) for t_leg, zz, cm in p.ad2_terms[x]))
                rhs = leg_map((pi_cols, None), tensor_image(K.coaction, bars[x]))
                if sparse_diff(lhs, rhs, ctx) is not None:
                    yield {"basis": idx, "x": x}

    for name, residuals in (("ad1", ad1_residuals()), ("ad2", ad2_residuals()),
                            ("ad3", _ad3_residuals(p, views))):
        if name in p.conditions:
            rep.check(f"{prefix}/{name}-residual-zero", residuals)
    return rep


def sparse_maps(a: AdjointAlgebra) -> list[dict]:
    """The basis of a as sparse Hom-space maps, one
    {(x*NK + k)*NK + pp: Scalar} dict per element, read from its column
    views: the form the tests corrupt entry by entry."""
    NK = a.NK
    return [{u * NK + pp: c for u, col in enumerate(a.hom_columns(i)) for pp, c in col} for i in range(a.dim)]


def full_pipeline_basis(p: AdjointProblem) -> SubspaceBasis:
    """Oracle of `solve_adjoint`'s basis: the kernel of the full system
    `condition_system` over the whole Hom-space, whose vectors must all
    be right-K-linear, each restricted to k = 1 and echelonised.  For
    the two variants it agrees with the reduced system bit for bit;
    without ad3 it raises ClosureFailure when a kernel vector is not
    right-K-linear."""
    views = [_hom_columns(p, alpha) for alpha in kernel_basis(condition_system(p)).rows]
    bad = next(_ad3_residuals(p, views), None)
    if bad is not None:
        raise ClosureFailure("a basis element is not right-K-linear", witness=bad)
    NK = p.comod_alg.dim
    unit = p.comod_alg.algebra.unit
    bars = [{x * NK + r: e for x in range(p.hopf.dim) for r, e in lincomb((ck, cols[x * NK + k]) for k, ck in unit)}
            for cols in views]
    return from_spanning(p.ctx, p.hopf.dim * NK, bars)


def trivial_r_matrix(t: FinDimHopf) -> RMatrix:
    """R = 1 x 1 over any Hopf algebra with grouplike-enough unit."""
    unit = t.algebra.unit
    return RMatrix(t, dense(t.ctx, t.dim * t.dim, [(i * t.dim + j, ci * cj) for i, ci in unit for j, cj in unit]))


def dual_algebra(c: FinDimCoalgebra) -> FinDimAlgebra:
    """Convolution algebra on the dual basis; the unit is the counit."""
    mult = [[[] for _ in range(c.dim)] for _ in range(c.dim)]
    for k, terms in enumerate(c.comult):
        for i, j, coeff in terms:
            mult[i][j].append((k, coeff))
    return FinDimAlgebra(c.ctx, c.dim, mult, nonzero(c.counit))


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


def r_inverse_by_inversion(host: FinDimHopf, element: list) -> list:
    """Oracle of `RMatrix.inverse_terms`: the whole inverse of left
    multiplication by the element in the tensor-square algebra of host,
    applied to 1, as (i, j, c) terms.  Raises RMatrix's ValueError when
    that multiplication is singular."""
    n = host.dim
    square = tensor_algebra(host.algebra, host.algebra)
    inverse = invert(square.left_mult_matrix(nonzero(element)))
    if inverse is None:
        raise ValueError("R-matrix element is not invertible")
    return [(u // n, u % n, c) for u, c in inverse.apply_terms(square.unit)]


def t_restriction(model: TaftModel, x: ModuleRep) -> ModuleRep:
    """Restrict a bosonization module to the group algebra (t acts as 1#t)."""
    mats = [x.action[model.x_index(0, b)] for b in range(model.n)]
    return ModuleRep(model.t_hopf.algebra, x.dim, mats)


def double_braiding_per_term(model: TaftModel, com: ComoduleRep, mod: ModuleRep, v: ModuleRep) -> Matrix:
    """Oracle of `double_braiding` after `yd_braiding`: for each basis
    tuple (i, vv) of A x V, the Yetter-Drinfeld half-braiding
    e_i x e_vv -> e_i(-1).e_vv x e_i(0), then the lifted inverse-R
    braiding, one term of R^-1 at a time; column i * dv + vv."""
    ctx = model.ctx
    z = ctx.zero()
    n, dv = mod.dim, v.dim
    gv = lift_via_pi(model.taft, model.pi, v)
    embed_action = [mod.action[model.x_index(0, t)] for t in range(model.n)]
    terms = []
    for i in range(n):
        for vv in range(dv):
            mid: dict = {}
            for y, i0, c in com.coaction[i]:
                for r, e in gv.action[y].col_terms(vv):
                    mid[(r, i0)] = mid.get((r, i0), z) + c * e
            out: dict = {}
            for (w, j), c in mid.items():
                for t1, t2, cr in model.rmatrix.inverse_terms:
                    wcol = v.action[t2].col_terms(w)
                    for r1, e1 in embed_action[t1].col_terms(j):
                        for r2, e2 in wcol:
                            out[(r1, r2)] = out.get((r1, r2), z) + c * cr * e1 * e2
            terms += [(r1 * dv + r2, i * dv + vv, c) for (r1, r2), c in out.items()]
    return Matrix(ctx, n * dv, n * dv, terms)


def perturbed_taft() -> FinDimHopf:
    """Taft n = 2 with one product doubled, one coproduct coefficient
    shifted and one counit value changed."""
    h = taft_model(2).taft
    ctx = h.ctx
    mult = [list(row) for row in h.algebra.mult]
    mult[1][2] = [(k, c + c) for k, c in mult[1][2]]
    comult = list(h.coalgebra.comult)
    delta = {(j, k): c for j, k, c in comult[3]}
    delta[(1, 2)] = delta.get((1, 2), ctx.zero()) + ctx.one()
    comult[3] = [(j, k, c) for (j, k), c in sorted_terms(delta)]
    counit = list(h.coalgebra.counit)
    counit[2] = ctx.one()
    return FinDimHopf(FinDimAlgebra(ctx, h.dim, mult, h.algebra.unit),
                      FinDimCoalgebra(ctx, h.dim, comult, counit), h.antipode)


def change_basis(h: FinDimHopf, p: Matrix) -> FinDimHopf:
    """h in the basis f_i = p e_i, the columns of the invertible matrix p:
    every structure constant read back through p^-1, and the antipode
    conjugated to p^-1 S p."""
    ctx, dim = h.ctx, h.dim
    p_inv = invert(p)
    f = [p.col_terms(i) for i in range(dim)]
    back = [p_inv.col_terms(j) for j in range(dim)]
    mult = [[p_inv.apply_terms(h.algebra.mult_terms(fi, fk)) for fk in f] for fi in f]
    comult = [[(j, k, c) for (j, k), c in sorted(leg_map((back, back), tensor_image(h.coalgebra.comult, fi)).items())]
              for fi in f]
    counit = [h.coalgebra.counit_vec(fi) for fi in f]
    return FinDimHopf(FinDimAlgebra(ctx, dim, mult, p_inv.apply_terms(h.algebra.unit)),
                      FinDimCoalgebra(ctx, dim, comult, counit), p_inv * h.antipode * p)


def _verified(k: ComoduleAlgebra) -> ComoduleAlgebra:
    if not check_comodule_algebra(k).ok:
        raise ConstructionError(f"comodule algebra {k.name} failed verification")
    return k


def trivial_comodule_algebra(n: int) -> ComoduleAlgebra:
    """K = k with lambda(1) = 1 x 1."""
    model = taft_model(n)
    ctx = model.ctx
    alg = FinDimAlgebra(ctx, 1, [[[(0, ctx.one())]]], [(0, ctx.one())])
    coaction = [[(y, 0, cy) for y, cy in model.taft.algebra.unit]]
    return _verified(ComoduleAlgebra(model.taft, alg, coaction, name="k1"))


def coideal_comodule_algebra(n: int, d: int) -> ComoduleAlgebra:
    """K = kC_d inside the bosonization: lambda(g_d^a) = g^{ma} x g_d^a."""
    if n % d != 0:
        raise ValueError(f"d = {d} does not divide n = {n}")
    model = taft_model(n)
    ctx = model.ctx
    m = n // d
    o = ctx.one()
    alg = FinDimAlgebra(ctx, d, [[[((i + j) % d, o)] for j in range(d)] for i in range(d)], [(0, o)])
    coaction = [[(model.x_index(0, (m * a) % n), a, o)] for a in range(d)]
    return _verified(ComoduleAlgebra(model.taft, alg, coaction, name=f"kC_{d}",
                                     generators=[1] if d > 1 else []))
