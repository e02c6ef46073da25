"""R-matrices, braidings, modules, comodules and Yetter-Drinfeld
modules, with exact axiom checkers.

Tensor legs are indexed with the kron convention (i tensor j) ->
i * dim_b + j.  The inverse R-matrix is always computed by inversion in
the tensor-square algebra, so the antipode identity (S x id)(R) = R^{-1}
is a checkable theorem here, never a definition.
"""

from __future__ import annotations

from .cyclotomic import Scalar
from .hopf import (FinDimAlgebra, FinDimCoalgebra, FinDimHopf, check_algebra, tensor_algebra,
                   tensor_image, tensor_mult)
from .linalg import Matrix, dense, flip_legs, invert, kron_sum, nonzero, sparse_diff
from .reports import VerificationReport


class RMatrix:
    """Invertible element of T x T written in the kron basis: `element`
    and `inverse` are the dense vectors the JSON writes, `terms` and
    `inverse_terms` their (i, j, c) term lists, the coefficient c of
    e_i x e_j, ascending and without zeros."""

    def __init__(self, host: FinDimHopf, element: list[Scalar]):
        self.host = host
        self.element = list(element)
        n = host.dim
        if len(self.element) != n * n:
            raise ValueError("R-matrix element has wrong length")
        element_terms = nonzero(self.element)
        inverse_terms = self._invert(element_terms)
        self.inverse = dense(host.ctx, n * n, inverse_terms)
        self.terms, self.inverse_terms = ([(u // n, u % n, c) for u, c in terms]
                                          for terms in (element_terms, inverse_terms))

    def _invert(self, element_terms) -> list[tuple[int, Scalar]]:
        square = tensor_algebra(self.host.algebra, self.host.algebra)
        inv_mat = invert(square.left_mult_matrix(element_terms))
        if inv_mat is None:
            raise ValueError("R-matrix element is not invertible")
        unit = nonzero(square.unit)
        inverse = inv_mat.apply_terms(unit)
        # two-sided check
        if square.mult_terms(inverse, element_terms) != unit:
            raise ValueError("R-matrix inverse is one-sided only")
        return inverse

    def to_jsonable(self):
        return {"dim": self.host.dim, "element": self.element, "inverse": self.inverse}


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
    z = ctx.zero()
    rterms = r.terms
    rinv_terms = r.inverse_terms
    rinv_dict = {(a, b): c for a, b, c in rinv_terms}
    unit_terms = nonzero(alg.unit)

    def embed(two_terms, pos: tuple[int, int]) -> dict:
        """Place an element of T x T into legs pos of T^3, unit elsewhere."""
        out: dict = {}
        other = ({0, 1, 2} - set(pos)).pop()
        for i, j, c in two_terms:
            for u, cu in unit_terms:
                key = [0, 0, 0]
                key[pos[0]] = i
                key[pos[1]] = j
                key[other] = u
                k = tuple(key)
                add = c * cu
                out[k] = out.get(k, z) + add
        return out

    def axiom(lhs: dict, rhs: dict, text: str):
        if sparse_diff(lhs, rhs, ctx) is not None:
            yield {"axiom": text}

    def comult_left():
        lhs: dict = {}
        for i, j, c in rterms:
            for a, b, d in coa.comult[i]:
                key = (a, b, j)
                lhs[key] = lhs.get(key, z) + c * d
        rhs = tensor_mult((alg,) * 3, embed(rterms, (0, 2)), embed(rterms, (1, 2)))
        yield from axiom(lhs, rhs, "(Delta x id)(R) = R13 R23")

    def comult_right():
        lhs: dict = {}
        for i, j, c in rterms:
            for a, b, d in coa.comult[j]:
                key = (i, a, b)
                lhs[key] = lhs.get(key, z) + c * d
        rhs = tensor_mult((alg,) * 3, embed(rterms, (0, 2)), embed(rterms, (0, 1)))
        yield from axiom(lhs, rhs, "(id x Delta)(R) = R13 R12")

    def counit():
        left: dict = {}
        right: dict = {}
        for i, j, c in rterms:
            left[j] = left.get(j, z) + c * coa.counit[i]
            right[i] = right.get(i, z) + c * coa.counit[j]
        unit = dict(unit_terms)
        if sparse_diff(left, unit, ctx) is not None or sparse_diff(right, unit, ctx) is not None:
            yield {"axiom": "(eps x id)(R) = 1 = (id x eps)(R)"}

    def almost_cocommutative():
        for i in range(h.dim):
            delta = {(a, b): c for a, b, c in coa.comult[i]}
            cop = {(b, a): c for a, b, c in coa.comult[i]}
            rd = tensor_mult((alg, alg), {(a, b): c for a, b, c in rterms}, delta)
            rdr = tensor_mult((alg, alg), rd, {(a, b): c for a, b, c in rinv_terms})
            if sparse_diff(cop, rdr, ctx) is not None:
                yield {"index": i, "axiom": "Delta_cop(h) = R Delta(h) R^-1"}

    def antipode_left():
        s_r: dict = {}
        for i, j, c in rterms:
            for l, e in h.antipode.col_terms(i):
                key = (l, j)
                s_r[key] = s_r.get(key, z) + c * e
        yield from axiom(s_r, rinv_dict, "(S x id)(R) = R^-1")

    def antipode_right_inverse():
        s_inv = invert(h.antipode)
        if s_inv is None:
            yield {"axiom": "S invertible"}
            return
        sr2: dict = {}
        for i, j, c in rterms:
            for l, e in s_inv.col_terms(j):
                key = (i, l)
                sr2[key] = sr2.get(key, z) + c * e
        yield from axiom(sr2, rinv_dict, "(id x S^-1)(R) = R^-1")

    def antipode_both():
        ss: dict = {}
        for i, j, c in rterms:
            for l, el in h.antipode.col_terms(i):
                for m, em in h.antipode.col_terms(j):
                    key = (l, m)
                    ss[key] = ss.get(key, z) + c * el * em
        yield from axiom(ss, {(a, b): c for a, b, c in rterms}, "(S x S)(R) = R")

    rep.check(f"{prefix}/comult-left", comult_left())
    rep.check(f"{prefix}/comult-right", comult_right())
    rep.check(f"{prefix}/counit", counit())
    rep.check(f"{prefix}/almost-cocommutative", almost_cocommutative())
    rep.check(f"{prefix}/antipode-left", antipode_left())
    rep.check(f"{prefix}/antipode-right-inverse", antipode_right_inverse())
    rep.check(f"{prefix}/antipode-both", antipode_both())
    return rep


def braiding(r: RMatrix, v: ModuleRep, w: ModuleRep) -> Matrix:
    """Matrix of sigma_{V,W}(v x w) = R2.w x R1.v from V x W to W x V."""
    return flip_legs(kron_sum([(c, w.action[j], v.action[i]) for i, j, c in r.terms]),
                     v.dim, w.dim)


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


def dual_module(hopf: FinDimHopf, v: ModuleRep) -> tuple[ModuleRep, Matrix, Matrix]:
    """Left dual with action (t.f)(x) = f(S(t) x); returns (V*, ev, coev)
    where ev: V* x V -> k and coev: k -> V x V*."""
    ctx = hopf.ctx
    d = v.dim
    dual = ModuleRep(hopf.algebra, d, [v.act_terms(hopf.antipode.col_terms(i)).transpose()
                                       for i in range(hopf.dim)])
    ev = Matrix(ctx, 1, d * d, [(0, i * d + i, ctx.one()) for i in range(d)])
    coev = Matrix(ctx, d * d, 1, [(i * d + i, 0, ctx.one()) for i in range(d)])
    return dual, ev, coev


def check_module(v: ModuleRep, report: VerificationReport | None = None, prefix: str = "module") -> VerificationReport:
    rep = report if report is not None else VerificationReport()
    alg = v.host
    rep.check(f"{prefix}/action-multiplicative", (
        {"pair": [i, j]} for i in range(alg.dim) for j in range(alg.dim)
        if v.action[i] * v.action[j] != v.act_terms(alg.mult[i][j])))

    def unit_acts_as_identity():
        if v.act_terms(nonzero(alg.unit)) != Matrix.identity(alg.ctx, v.dim):
            yield {"axiom": "unit acts as identity"}

    rep.check(f"{prefix}/action-unit", unit_acts_as_identity())
    return rep


def check_comodule(c: ComoduleRep, report: VerificationReport | None = None, prefix: str = "comodule") -> VerificationReport:
    rep = report if report is not None else VerificationReport()
    host = c.host
    ctx = host.ctx
    z = ctx.zero()

    def coassociativity():
        for v in range(c.dim):
            lhs: dict = {}
            for a, v0, x in c.coaction[v]:
                for p, q, d in host.comult[a]:
                    key = (p, q, v0)
                    lhs[key] = lhs.get(key, z) + x * d
            rhs: dict = {}
            for a, v0, x in c.coaction[v]:
                for b, v1, y in c.coaction[v0]:
                    key = (a, b, v1)
                    rhs[key] = rhs.get(key, z) + x * y
            if sparse_diff(lhs, rhs, ctx) is not None:
                yield {"index": v}

    def counit():
        for v in range(c.dim):
            acc: dict = {}
            for a, v0, x in c.coaction[v]:
                acc[v0] = acc.get(v0, z) + x * host.counit[a]
            if sparse_diff(acc, {v: ctx.one()}, ctx) is not None:
                yield {"index": v}

    rep.check(f"{prefix}/coassociativity", coassociativity())
    rep.check(f"{prefix}/counit", counit())
    return rep


def check_comodule_algebra(k: ComoduleAlgebra, report: VerificationReport | None = None, prefix: str = "comodule-algebra") -> VerificationReport:
    """Comodule laws plus: the coaction is an algebra map into H x K and
    sends 1 to 1 x 1."""
    rep = report if report is not None else VerificationReport()
    check_comodule(k.comodule, rep, prefix=f"{prefix}/comodule")
    check_algebra(k.algebra, rep, prefix=f"{prefix}/algebra")
    ctx = k.algebra.ctx
    h_alg = k.hopf.algebra
    z = ctx.zero()

    def coaction_multiplicative():
        for i in range(k.dim):
            for j in range(k.dim):
                lhs = tensor_image(k.coaction, k.algebra.mult[i][j])
                rhs: dict = {}
                for y1, a, c1 in k.coaction[i]:
                    for y2, b, c2 in k.coaction[j]:
                        coeff = c1 * c2
                        for y, m1 in h_alg.mult[y1][y2]:
                            for p, m2 in k.algebra.mult[a][b]:
                                key = (y, p)
                                rhs[key] = rhs.get(key, z) + coeff * m1 * m2
                if sparse_diff(lhs, rhs, ctx) is not None:
                    yield {"pair": [i, j]}

    def coaction_unit():
        unit = nonzero(k.algebra.unit)
        rhs = {(y, p): cy * cp for y, cy in nonzero(h_alg.unit) for p, cp in unit}
        if sparse_diff(tensor_image(k.coaction, unit), rhs, ctx) is not None:
            yield {"axiom": "lambda(1) = 1 x 1"}

    rep.check(f"{prefix}/coaction-multiplicative", coaction_multiplicative())
    rep.check(f"{prefix}/coaction-unit", coaction_unit())
    return rep


def check_yd(hopf: FinDimHopf, module: ModuleRep, comodule: ComoduleRep,
             report: VerificationReport | None = None, prefix: str = "yd") -> VerificationReport:
    """Compatibility lambda(h.v) = h1 v(-1) S(h3) x h2.v0 on all pairs."""
    rep = report if report is not None else VerificationReport()
    ctx = hopf.ctx
    alg = hopf.algebra
    z = ctx.zero()
    dim_v = module.dim

    def compatibility():
        act_cols = [[m.col_terms(v) for v in range(dim_v)] for m in module.action]
        s_cols = [hopf.antipode.col_terms(h3) for h3 in range(hopf.dim)]
        sandwiches: dict[tuple[int, int, int], list[tuple[int, Scalar]]] = {}  # h1 y S(h3)
        for h in range(hopf.dim):
            for v in range(dim_v):
                lhs: dict = {}
                for w, wc in act_cols[h][v]:
                    for y, w0, c in comodule.coaction[w]:
                        key = (y, w0)
                        lhs[key] = lhs.get(key, z) + wc * c
                rhs: dict = {}
                for h1, h2, h3, c in hopf.coalgebra.delta2_terms(h):
                    for y, v0, d in comodule.coaction[v]:
                        first = sandwiches.get((h1, y, h3))
                        if first is None:
                            first = sandwiches[h1, y, h3] = alg.mult_terms(alg.mult[h1][y], s_cols[h3])
                        coeff = c * d
                        h2v0 = act_cols[h2][v0]
                        for yy, fy in first:
                            for w, wv in h2v0:
                                key = (yy, w)
                                rhs[key] = rhs.get(key, z) + coeff * fy * wv
                if sparse_diff(lhs, rhs, ctx) is not None:
                    yield {"pair": [h, v]}

    rep.check(f"{prefix}/compatibility", compatibility())
    return rep
