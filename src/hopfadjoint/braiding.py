"""R-matrices, braidings, modules, comodules and Yetter-Drinfeld
modules, with exact axiom checkers.

Tensor legs are indexed with the kron convention (i tensor j) ->
i * dim_b + j.  The inverse R-matrix is always computed by inversion in
the tensor-square algebra, so the antipode identity (S x id)(R) = R^{-1}
is a checkable theorem here, never a definition.
"""

from __future__ import annotations

from .cyclotomic import Scalar
from .hopf import FinDimAlgebra, FinDimCoalgebra, FinDimHopf, check_algebra, tensor_algebra
from .linalg import (Matrix, flip_legs, invert, kron_sum, nonzero, sparse_diff, unit_vector,
                     vec_eq, zeros)
from .reports import VerificationReport


class RMatrix:
    """Invertible element of T x T written in the kron basis."""

    def __init__(self, host: FinDimHopf, element: list[Scalar]):
        self.host = host
        self.element = list(element)
        if len(self.element) != host.dim * host.dim:
            raise ValueError("R-matrix element has wrong length")
        self.inverse = self._invert()

    def _invert(self) -> list[Scalar]:
        square = tensor_algebra(self.host.algebra, self.host.algebra)
        left = square.left_mult_matrix(self.element)
        inv_mat = invert(left)
        if inv_mat is None:
            raise ValueError("R-matrix element is not invertible")
        unit = square.unit
        inverse = inv_mat.apply(unit)
        # two-sided check
        if not vec_eq(square.mult_vec(inverse, self.element), unit):
            raise ValueError("R-matrix inverse is one-sided only")
        return inverse

    def terms(self) -> list[tuple[int, int, Scalar]]:
        n = self.host.dim
        return [
            (u // n, u % n, c) for u, c in enumerate(self.element) if not c.is_zero()
        ]

    def inverse_terms(self) -> list[tuple[int, int, Scalar]]:
        n = self.host.dim
        return [
            (u // n, u % n, c) for u, c in enumerate(self.inverse) if not c.is_zero()
        ]

    def to_jsonable(self):
        return {"dim": self.host.dim, "element": self.element, "inverse": self.inverse}


class ModuleRep:
    """Left module over an algebra: one action matrix per basis element."""

    def __init__(self, host: FinDimAlgebra, dim: int, action: list[Matrix]):
        self.host = host
        self.dim = dim
        self.action = action

    def act_elem(self, u: list[Scalar]) -> Matrix:
        """Action matrix of the algebra element with coordinates u."""
        return self.act_terms(nonzero(u))

    def act_terms(self, terms) -> Matrix:
        """Action matrix of the algebra element with these (index,
        coefficient) terms."""
        return Matrix(self.host.ctx, self.dim, self.dim,
                      ((r, c, ui * e) for i, ui in terms for r, c, e in self.action[i].terms()))

    def act_vec(self, u: list[Scalar], v: list[Scalar]) -> list[Scalar]:
        ctx = self.host.ctx
        out = zeros(ctx, self.dim)
        for i, ui in enumerate(u):
            if ui.is_zero():
                continue
            w = self.action[i].apply(v)
            for k in range(self.dim):
                if not w[k].is_zero():
                    out[k] = out[k] + ui * w[k]
        return out


class ComoduleRep:
    """Left comodule: coaction[v] is the term list [(a, v0, c), ...] of
    lambda(e_v), the coefficient c of e_a x e_v0: ascending in (a, v0),
    no zero coefficient."""

    def __init__(self, host: FinDimCoalgebra, dim: int, coaction):
        self.host = host
        self.dim = dim
        self.coaction = coaction


class YDModule:
    """Module + comodule over one Hopf algebra; compatibility is checked
    by check_yd, not assumed."""

    def __init__(self, hopf: FinDimHopf, module: ModuleRep, comodule: ComoduleRep):
        self.hopf = hopf
        self.module = module
        self.comodule = comodule


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

    def coaction_vec(self, terms) -> dict[tuple[int, int], Scalar]:
        """lambda of the element with these (index, coefficient) terms, as
        a sparse tensor without zeros."""
        acc: dict[tuple[int, int], Scalar] = {}
        for k, uk in terms:
            for y, k0, c in self.coaction[k]:
                key = (y, k0)
                add = uk * c
                acc[key] = acc[key] + add if key in acc else add
        return {k: v for k, v in acc.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# tensor helpers on elements of T^k represented as sparse dicts


def _sparse_mult(alg: FinDimAlgebra, x: dict, y: dict, legs: int) -> dict:
    out: dict = {}
    z = alg.ctx.zero()
    for ki, ci in x.items():
        for kj, cj in y.items():
            coeff = ci * cj
            # multiply componentwise across legs, expanding each product
            partial = {(): coeff}
            for leg in range(legs):
                nxt: dict = {}
                for prefix, pc in partial.items():
                    for t, m in alg.mult[ki[leg]][kj[leg]]:
                        key = prefix + (t,)
                        add = pc * m
                        nxt[key] = nxt.get(key, z) + add
                partial = nxt
            for key, v in partial.items():
                out[key] = out.get(key, z) + v
    return {k: v for k, v in out.items() if not v.is_zero()}


def check_rmatrix(r: RMatrix, report: VerificationReport | None = None, prefix: str = "rmatrix") -> VerificationReport:
    """All quasitriangularity axioms plus the antipode identities, exactly."""
    rep = report if report is not None else VerificationReport()
    h = r.host
    ctx = h.ctx
    alg = h.algebra
    coa = h.coalgebra
    z = ctx.zero()
    rterms = r.terms()
    rinv_terms = r.inverse_terms()
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
        rhs = _sparse_mult(alg, embed(rterms, (0, 2)), embed(rterms, (1, 2)), 3)
        yield from axiom(lhs, rhs, "(Delta x id)(R) = R13 R23")

    def comult_right():
        lhs: dict = {}
        for i, j, c in rterms:
            for a, b, d in coa.comult[j]:
                key = (i, a, b)
                lhs[key] = lhs.get(key, z) + c * d
        rhs = _sparse_mult(alg, embed(rterms, (0, 2)), embed(rterms, (0, 1)), 3)
        yield from axiom(lhs, rhs, "(id x Delta)(R) = R13 R12")

    def counit():
        left_counit = zeros(ctx, h.dim)
        right_counit = zeros(ctx, h.dim)
        for i, j, c in rterms:
            left_counit[j] = left_counit[j] + c * coa.counit[i]
            right_counit[i] = right_counit[i] + c * coa.counit[j]
        if not (vec_eq(left_counit, alg.unit) and vec_eq(right_counit, alg.unit)):
            yield {"axiom": "(eps x id)(R) = 1 = (id x eps)(R)"}

    def almost_cocommutative():
        for i in range(h.dim):
            delta = {(a, b): c for a, b, c in coa.comult[i]}
            cop = {(b, a): c for a, b, c in coa.comult[i]}
            rd = _sparse_mult(alg, {(a, b): c for a, b, c in rterms}, delta, 2)
            rdr = _sparse_mult(alg, rd, {(a, b): c for a, b, c in rinv_terms}, 2)
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
    return flip_legs(kron_sum([(c, w.action[j], v.action[i]) for i, j, c in r.terms()]),
                     v.dim, w.dim)


def braiding_inverse(r: RMatrix, v: ModuleRep, w: ModuleRep) -> Matrix:
    """Matrix of sigma^{-1}_{V,W}(w x v) = S(R1).v x R2.w from W x V to V x W."""
    s = r.host.antipode
    return flip_legs(kron_sum([(c, v.act_terms(s.col_terms(i)), w.action[j])
                               for i, j, c in r.terms()]), w.dim, v.dim)


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
    mats = [alg.left_mult_matrix(alg.basis_vec(i)) for i in range(alg.dim)]
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
        if v.act_elem(alg.unit) != Matrix.identity(alg.ctx, v.dim):
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
            acc = zeros(ctx, c.dim)
            for a, v0, x in c.coaction[v]:
                acc[v0] = acc[v0] + x * host.counit[a]
            if not vec_eq(acc, unit_vector(ctx, c.dim, v)):
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
                lhs = k.coaction_vec(k.algebra.mult[i][j])
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
        if sparse_diff(k.coaction_vec(unit), rhs, ctx) is not None:
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
