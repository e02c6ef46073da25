"""R-matrices, braidings, modules, comodules and Yetter-Drinfeld
modules, with exact axiom checkers.  A Yetter-Drinfeld object's
half-braiding is always `yd_braiding` of its coaction; the double
braiding with a lifted base module and braided commutativity are each
formed in one place.

Tensor legs are indexed with the kron convention (i tensor j) ->
i * dim_b + j.  The inverse R-matrix is always solved from R alone in
the tensor-square algebra: over the characters of C_m x C_m when the
host is kC_m with zeta_m in its field, by elimination otherwise, and
checked exactly either way.  So the antipode identity (S x id)(R) =
R^{-1} is a checkable theorem here, never a definition.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Scalar, zeta_power
from .hopf import (FinDimAlgebra, FinDimCoalgebra, FinDimHopf, check_algebra, coaction_multiplicative_failures,
                   coaction_unit_failures, coassociativity_failures, counit_failures, leg_map, tensor_algebra,
                   tensor_image, tensor_mult)
from .linalg import Matrix, dense, flip_legs, invert, kron_sum, lincomb, nonzero, rref, sparse_diff
from .reports import VerificationReport


class RMatrix:
    """Invertible element of T x T written in the kron basis: `element` is
    the dense vector given as input, `terms` and `inverse_terms` the (i,
    j, c) term lists of R and R^-1, the coefficient c of e_i x e_j,
    ascending and without zeros; the JSON writes both densely.  `legs`
    and `inverse_legs` group those terms by right index, [(j, [(i, c),
    ...]), ...] ascending in j and i, so that R = sum_j (sum_i c e_i) x
    e_j is applied through a module once per right index, with its summed
    left leg.  The inverse solves R y = 1 in the tensor-square algebra: one scalar equation per
    character of C_m x C_m when the host is kC_m (`_cyclic_order`), the
    elimination of [L_R | 1] for any other host."""

    def __init__(self, host: FinDimHopf, element: list[Scalar]):
        self.host = host
        self.element = list(element)
        n = host.dim
        if len(self.element) != n * n:
            raise ValueError("R-matrix element has wrong length")
        element_terms = nonzero(self.element)
        self.terms, self.inverse_terms = ([(u // n, u % n, c) for u, c in terms]
                                          for terms in (element_terms, self._invert(element_terms)))
        self.legs, self.inverse_legs = (_legs(terms) for terms in (self.terms, self.inverse_terms))

    def _invert(self, element_terms) -> list[tuple[int, Scalar]]:
        """y with R y = 1, by characters on a cyclic host and otherwise
        from the reduced form of [L_R | 1]: R is invertible iff the pivots
        are exactly the N unknowns, and then row u ends in y_u.  Either
        way y R = 1 is checked exactly."""
        square = tensor_algebra(self.host.algebra, self.host.algebra)
        size = square.dim
        unit = square.unit
        m = _cyclic_order(self.host.algebra)
        if m is not None:
            inverse = _inverse_by_characters(self.host.ctx, m, element_terms)
        else:
            augmented = Matrix(self.host.ctx, size, size + 1,
                               square.left_mult_matrix(element_terms).terms()
                               + [(u, size, c) for u, c in unit])
            red, pivots = rref(augmented)
            if pivots != tuple(range(size)):
                raise ValueError("R-matrix element is not invertible")
            inverse = red.col_terms(size)
        # two-sided after elimination; the solve's only check after characters
        if square.mult_terms(inverse, element_terms) != unit:
            raise ValueError("R-matrix inverse is one-sided only")
        return inverse

    def to_jsonable(self):
        n = self.host.dim
        return {"dim": n, "element": self.element,
                "inverse": dense(self.host.ctx, n * n, ((i * n + j, c) for i, j, c in self.inverse_terms))}


def _cyclic_order(alg: FinDimAlgebra) -> int | None:
    """m when alg is kC_m in its grouplike basis, every e_i e_j the single
    term e_{(i + j) mod m} with coefficient 1, and m divides the
    conductor, so that zeta_m is in the field; None otherwise."""
    m, one = alg.dim, alg.ctx.one()
    if alg.ctx.conductor % m or any(alg.mult[i][j] != [((i + j) % m, one)] for i in range(m) for j in range(m)):
        return None
    return m


def _character_sums(x: list[list[Scalar]], zetas: list[Scalar], sign: int) -> list[list[Scalar]]:
    """sum_{i,j} x[i][j] zeta^(sign (a i + b j)) at [a][b] for every
    character (a, b) of C_m x C_m, one leg and then the other: 2 m^3
    products.  Each leg sums over the first index and transposes."""
    m, z = len(x), zetas[0].ctx.zero()

    def leg(rows):
        return [[sum((c * zetas[sign * a * i % m] for i, row in enumerate(rows) if (c := row[j])), z)
                 for a in range(m)] for j in range(m)]

    return leg(leg(x))


def _inverse_by_characters(ctx, m: int, element_terms) -> list[tuple[int, Scalar]]:
    """y with R y = 1 in kC_m x kC_m, which is commutative: R y = 1 holds
    iff R^(a, b) y^(a, b) = 1 at every character (a, b), so y is the
    inverse transform of 1 / R^, scaled by 1/m^2."""
    zetas = [zeta_power(ctx, k * (ctx.conductor // m)) for k in range(m)]
    rows = [[ctx.zero()] * m for _ in range(m)]
    for u, c in element_terms:
        rows[u // m][u % m] = c
    hats = _character_sums(rows, zetas, 1)
    if any(h.is_zero() for row in hats for h in row):
        raise ValueError("R-matrix element is not invertible")
    y = _character_sums([[h.inv() for h in row] for row in hats], zetas, -1)
    scale = Fraction(1, m * m)
    return [(i * m + j, c.scale(scale)) for i, row in enumerate(y) for j, c in enumerate(row) if c]


def _legs(terms) -> list[tuple[int, list[tuple[int, Scalar]]]]:
    """The (i, j, c) terms grouped by right index j: [(j, [(i, c), ...]), ...]."""
    legs: dict[int, list[tuple[int, Scalar]]] = {}
    for i, j, c in terms:
        legs.setdefault(j, []).append((i, c))
    return sorted(legs.items())


class ModuleRep:
    """Left module over an algebra: one action matrix per basis element."""

    def __init__(self, host: FinDimAlgebra, dim: int, action: list[Matrix]):
        self.host = host
        self.dim = dim
        self.action = action

    def act_terms(self, terms) -> Matrix:
        """Action matrix of the algebra element with these (index,
        coefficient) terms."""
        return Matrix(self.host.ctx, self.dim, self.dim,
                      ((r, c, ui * e) for i, ui in terms for r, c, e in self.action[i].terms()))


class ComoduleRep:
    """Left comodule: coaction[v] is the term list [(a, v0, c), ...] of
    lambda(e_v), the coefficient c of e_a x e_v0: ascending in (a, v0),
    no zero coefficient."""

    def __init__(self, host: FinDimCoalgebra, dim: int, coaction):
        self.host = host
        self.dim = dim
        self.coaction = coaction

    def matrix(self) -> Matrix:
        """lambda as a (dim H * dim) x dim matrix: row y * dim + v0 of
        column v is the coefficient of e_y x e_v0 in lambda(e_v)."""
        d = self.dim
        return Matrix(self.host.ctx, self.host.dim * d, d,
                      [(y * d + v0, v, c) for v, terms in enumerate(self.coaction) for y, v0, c in terms])


class ComoduleAlgebra:
    """Algebra K with a left coaction into a Hopf algebra H that is an
    algebra morphism K -> H x K.  `generators` lists basis indices that
    generate K as an algebra; the reduced condition assembly imposes the
    module condition on them only.  When none are declared, the whole
    basis is the generating set, so that condition is never dropped."""

    def __init__(self, hopf: FinDimHopf, algebra: FinDimAlgebra, coaction,
                 name: str = "K", generators: list[int] | None = None):
        self.hopf = hopf
        self.algebra = algebra
        self.coaction = coaction
        self.name = name
        self.generators = list(generators) if generators is not None else list(range(algebra.dim))
        self.comodule = ComoduleRep(hopf.coalgebra, algebra.dim, coaction)

    @property
    def dim(self) -> int:
        return self.algebra.dim


def check_rmatrix(r: RMatrix, report: VerificationReport | None = None, prefix: str = "rmatrix") -> VerificationReport:
    """All quasitriangularity axioms plus the antipode identities, exactly."""
    rep = report if report is not None else VerificationReport()
    h = r.host
    ctx = h.ctx
    alg = h.algebra
    coa = h.coalgebra
    rterms = r.terms
    r_dict = {(a, b): c for a, b, c in rterms}
    rinv_dict = {(a, b): c for a, b, c in r.inverse_terms}
    unit_terms = alg.unit
    s_cols = [h.antipode.col_terms(i) for i in range(h.dim)]

    def embed(unit_leg: int) -> dict:
        """R in the two legs of T^3 other than unit_leg, the unit in that one."""
        return {(i, j)[:unit_leg] + (u,) + (i, j)[unit_leg:]: c * cu
                for i, j, c in rterms for u, cu in unit_terms}

    def axiom(lhs: dict, rhs: dict, text: str):
        if sparse_diff(lhs, rhs, ctx) is not None:
            yield {"axiom": text}

    def comult_left():
        lhs = {(a, b, j): c for j, leg in r.legs for (a, b), c in tensor_image(coa.comult, leg).items()}
        rhs = tensor_mult((alg,) * 3, embed(1), embed(0))
        yield from axiom(lhs, rhs, "(Delta x id)(R) = R13 R23")

    def comult_right():
        flipped = _legs([(j, i, c) for i, j, c in rterms])
        lhs = {(i, a, b): c for i, leg in flipped for (a, b), c in tensor_image(coa.comult, leg).items()}
        rhs = tensor_mult((alg,) * 3, embed(1), embed(2))
        yield from axiom(lhs, rhs, "(id x Delta)(R) = R13 R12")

    def counit():
        left = lincomb((coa.counit[i], [(j, c)]) for i, j, c in rterms)
        right = lincomb((coa.counit[j], [(i, c)]) for i, j, c in rterms)
        if left != unit_terms or right != unit_terms:
            yield {"axiom": "(eps x id)(R) = 1 = (id x eps)(R)"}

    def almost_cocommutative():
        for i in range(h.dim):
            delta = {(a, b): c for a, b, c in coa.comult[i]}
            cop = {(b, a): c for a, b, c in coa.comult[i]}
            rdr = tensor_mult((alg, alg), tensor_mult((alg, alg), r_dict, delta), rinv_dict)
            if sparse_diff(cop, rdr, ctx) is not None:
                yield {"index": i, "axiom": "Delta_cop(h) = R Delta(h) R^-1"}

    def antipode_right_inverse():
        s_inv = invert(h.antipode)
        if s_inv is None:
            yield {"axiom": "S invertible"}
            return
        s_inv_cols = [s_inv.col_terms(j) for j in range(h.dim)]
        yield from axiom(leg_map((None, s_inv_cols), r_dict), rinv_dict, "(id x S^-1)(R) = R^-1")

    rep.check(f"{prefix}/comult-left", comult_left())
    rep.check(f"{prefix}/comult-right", comult_right())
    rep.check(f"{prefix}/counit", counit())
    rep.check(f"{prefix}/almost-cocommutative", almost_cocommutative())
    rep.check(f"{prefix}/antipode-left", axiom(leg_map((s_cols, None), r_dict), rinv_dict, "(S x id)(R) = R^-1"))
    rep.check(f"{prefix}/antipode-right-inverse", antipode_right_inverse())
    rep.check(f"{prefix}/antipode-both", axiom(leg_map((s_cols, s_cols), r_dict), r_dict, "(S x S)(R) = R"))
    return rep


def braiding(r: RMatrix, v: ModuleRep, w: ModuleRep) -> Matrix:
    """Matrix of sigma_{V,W}(v x w) = R2.w x R1.v from V x W to W x V,
    one Kronecker term per leg of R."""
    one = r.host.ctx.one()
    return flip_legs(kron_sum([(one, w.action[j], v.act_terms(leg)) for j, leg in r.legs]),
                     v.dim, w.dim)


def yd_braiding(a: ComoduleRep, x: ModuleRep) -> Matrix:
    """Matrix of the half-braiding c_{A,X}(v x w) = v(-1).w x v0 from
    A x X to X x A that A's coaction defines: the sum over y of (y
    acting on X) kron (the y-component of lambda_A)."""
    ctx = x.host.ctx
    da = a.dim
    components: dict[int, list] = {}
    for v in range(da):
        for y, v0, c in a.coaction[v]:
            components.setdefault(y, []).append((v0, v, c))
    return flip_legs(kron_sum([(ctx.one(), x.action[y], Matrix(ctx, da, da, t))
                               for y, t in sorted(components.items())]), da, x.dim)


def double_braiding(c: Matrix, a: ModuleRep, v: ModuleRep, embed: Matrix, r: RMatrix) -> Matrix:
    """sigma_{G(V),A} c: A x V -> A x V for a half-braiding c: A x G(V) ->
    G(V) x A, where V is a module over R's host, `embed` its embedding
    into the algebra of A, and sigma_{G(V),A}(w x u) = embed(Rbar1).u x
    Rbar2.w the braiding by R^-1, one Kronecker term per leg of R^-1."""
    one = r.host.ctx.one()
    sigma = kron_sum([(one, a.act_terms(embed.apply_terms(leg)), v.action[j]) for j, leg in r.inverse_legs])
    return flip_legs(sigma, v.dim, a.dim) * c


def braided_commutativity_failures(c: Matrix, alg: FinDimAlgebra):
    """Yield {"pair": [i, j]} wherever m(c(e_i x e_j)) != e_i e_j, in
    (i, j) order, for a braiding c of A x A and A's product; c's columns
    are read from one transpose."""
    n = alg.dim
    c_cols = c.transpose()
    for i in range(n):
        for j in range(n):
            rhs = lincomb((s, alg.mult[row // n][row % n]) for row, s in c_cols.row_terms(i * n + j))
            if rhs != alg.mult[i][j]:
                yield {"pair": [i, j]}


def tensor_module(hopf: FinDimHopf, v: ModuleRep, w: ModuleRep) -> ModuleRep:
    """V x W with the coproduct action."""
    return ModuleRep(hopf.algebra, v.dim * w.dim,
                     [kron_sum([(c, v.action[j], w.action[k]) for j, k, c in terms])
                      for terms in hopf.coalgebra.comult])


def lift_via_pi(hopf: FinDimHopf, pi: Matrix, v: ModuleRep) -> ModuleRep:
    """A module over the base algebra as a module over `hopf` through
    the projection pi (column i = image of basis element i)."""
    return ModuleRep(hopf.algebra, v.dim, [v.act_terms(pi.col_terms(i)) for i in range(hopf.dim)])


def trivial_module(hopf: FinDimHopf) -> ModuleRep:
    ctx = hopf.ctx
    mats = [Matrix(ctx, 1, 1, [(0, 0, e)]) for e in hopf.coalgebra.counit]
    return ModuleRep(hopf.algebra, 1, mats)


def regular_module(alg: FinDimAlgebra) -> ModuleRep:
    one = alg.ctx.one()
    mats = [alg.left_mult_matrix([(i, one)]) for i in range(alg.dim)]
    return ModuleRep(alg, alg.dim, mats)


def dual_module(hopf: FinDimHopf, v: ModuleRep) -> ModuleRep:
    """Left dual V* with action (t.f)(x) = f(S(t) x), on the dual basis."""
    return ModuleRep(hopf.algebra, v.dim, [v.act_terms(hopf.antipode.col_terms(i)).transpose()
                                           for i in range(hopf.dim)])


def check_module(v: ModuleRep, report: VerificationReport | None = None, prefix: str = "module") -> VerificationReport:
    """The action is multiplicative on all basis pairs, and the unit acts
    as the identity."""
    rep = report if report is not None else VerificationReport()
    alg = v.host
    ctx = alg.ctx

    def action_multiplicative():
        # column col of action[i] action[j] against that of the action of e_i e_j
        cols = [[m.col_terms(col) for col in range(v.dim)] for m in v.action]
        for i in range(alg.dim):
            row_i, cols_i = alg.mult[i], cols[i]
            for j in range(alg.dim):
                ij, cols_j = row_i[j], cols[j]
                for col in range(v.dim):
                    lhs: dict[int, Scalar] = {}
                    for r, e in cols_j[col]:
                        for s, f in cols_i[r]:
                            add = e * f
                            lhs[s] = lhs[s] + add if s in lhs else add
                    rhs: dict[int, Scalar] = {}
                    for t, m in ij:
                        for s, f in cols[t][col]:
                            add = m * f
                            rhs[s] = rhs[s] + add if s in rhs else add
                    if lhs != rhs and sparse_diff(lhs, rhs, ctx) is not None:
                        yield {"pair": [i, j]}

    rep.check(f"{prefix}/action-multiplicative", action_multiplicative())

    def unit_acts_as_identity():
        if v.act_terms(alg.unit) != Matrix.identity(ctx, v.dim):
            yield {"axiom": "unit acts as identity"}

    rep.check(f"{prefix}/action-unit", unit_acts_as_identity())
    return rep


def check_comodule(c: ComoduleRep, report: VerificationReport | None = None, prefix: str = "comodule") -> VerificationReport:
    """Coassociativity and the counit law of the coaction on every basis
    element."""
    rep = report if report is not None else VerificationReport()
    rep.check(f"{prefix}/coassociativity", ({"index": v} for v, _ in coassociativity_failures(c.host, c.coaction)))
    rep.check(f"{prefix}/counit", ({"index": v} for v in counit_failures(c.host, c.coaction)))
    return rep


def check_comodule_algebra(k: ComoduleAlgebra, report: VerificationReport | None = None, prefix: str = "comodule-algebra") -> VerificationReport:
    """Comodule laws plus: the coaction is an algebra map into H x K and
    sends 1 to 1 x 1."""
    rep = report if report is not None else VerificationReport()
    check_comodule(k.comodule, rep, prefix=f"{prefix}/comodule")
    check_algebra(k.algebra, rep, prefix=f"{prefix}/algebra")
    h_alg = k.hopf.algebra
    rep.check(f"{prefix}/coaction-multiplicative", (
        {"pair": [i, j]} for i, j, _ in coaction_multiplicative_failures(h_alg, k.algebra, k.coaction)))
    rep.check(f"{prefix}/coaction-unit", (
        {"axiom": "lambda(1) = 1 x 1"} for _ in coaction_unit_failures(h_alg, k.algebra, k.coaction)))
    return rep


def check_yd(hopf: FinDimHopf, module: ModuleRep, comodule: ComoduleRep,
             report: VerificationReport | None = None, prefix: str = "yd") -> VerificationReport:
    """Compatibility lambda(h.v) = h1 v(-1) S(h3) x h2.v0 on all pairs."""
    rep = report if report is not None else VerificationReport()
    ctx = hopf.ctx
    alg = hopf.algebra
    dim_v = module.dim

    def compatibility():
        act_cols = [[m.col_terms(v) for v in range(dim_v)] for m in module.action]
        s_cols = [hopf.antipode.col_terms(h3) for h3 in range(hopf.dim)]
        coaction = comodule.coaction
        sandwiches: dict[tuple[int, int, int], list[tuple[int, Scalar]]] = {}  # h1 y S(h3)
        for h in range(hopf.dim):
            delta2, h_cols = hopf.coalgebra.delta2_terms[h], act_cols[h]
            for v in range(dim_v):
                lhs: dict = {}
                for w, wc in h_cols[v]:
                    for y, w0, c in coaction[w]:
                        key, add = (y, w0), wc * c
                        lhs[key] = lhs[key] + add if key in lhs else add
                rhs: dict = {}
                for h1, h2, h3, c in delta2:
                    h2_cols = act_cols[h2]
                    for y, v0, d in coaction[v]:
                        h2v0 = h2_cols[v0]
                        if not h2v0:
                            continue
                        first = sandwiches.get((h1, y, h3))
                        if first is None:
                            first = sandwiches[h1, y, h3] = alg.mult_terms(alg.mult[h1][y], s_cols[h3])
                        if first:
                            coeff = c * d
                            for yy, fy in first:
                                cf = coeff * fy
                                for w, wv in h2v0:
                                    key, add = (yy, w), cf * wv
                                    rhs[key] = rhs[key] + add if key in rhs else add
                if lhs != rhs and sparse_diff(lhs, rhs, ctx) is not None:
                    yield {"pair": [h, v]}

    rep.check(f"{prefix}/compatibility", compatibility())
    return rep
