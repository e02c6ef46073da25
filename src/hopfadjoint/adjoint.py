"""Solver for the invariant-map algebra attached to a comodule algebra
K over a bosonization: the space of linear maps alpha: (H#T) x K -> P
cut out by the module/comodule/right-multiplicativity conditions, with
its product, action and coaction, plus every structural verification
used by the acceptance suite.

Conditions (imposed exactly):
  ad1  alpha(k(-1) x, k(0) l) = k alpha(x, l)
  ad2  the map x -> alpha(x, 1) intertwines the R-matrix coaction on
       H#T with the projected coaction on P
  ad3  alpha(x, k) = alpha(x, 1) k

Two condition sets configure an algebra (VARIANTS): the module variant
ad1, ad3, the braided commutative algebra in Z(C), and the
fully-constrained ad1, ad2, ad3, that algebra in Z^V(C) for
V = Rep kC_n; `problem_for` refuses any other set.  Under ad3 a
solution is fixed by abar = alpha(-, 1), so the solved algebra lives in
abar coordinates: its basis, product, unit, action and coaction are all
computed on abar.  The reduced system is the one solve: it solves for
abar directly and imposes ad1 on the generators of K only.  The full
system `condition_system`, over the whole Hom-space and every basis
tuple, takes any set of conditions; it is the tests' oracle, which the
reduced one must agree with bit for bit.
Hom-space maps are derived from abar in one format, the column view of
`AdjointAlgebra.hom_columns`, which both the JSON basis and the direct
re-check of the conditions read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .cyclotomic import FieldContext, Scalar, zeta_power
from .hopf import (FinDimAlgebra, FinDimHopf, associativity_failures, coaction_multiplicative_failures, leg_map,
                   module_algebra_failures, tensor_image, unit_failures)
from .braiding import (ComoduleAlgebra, ComoduleRep, ModuleRep, RMatrix, braided_commutativity_failures,
                       check_comodule, check_module, check_yd, double_braiding, lift_via_pi, yd_braiding)
from .constructions import ComoduleAlgebraK, TaftModel
from .linalg import (
    Matrix,
    SubspaceBasis,
    coords_of_terms,
    dense,
    kernel_basis,
    lincomb,
    nonzero,
    rank,
    sparse_diff,
)
from .reports import VerificationReport


CONDITIONS = ("ad1", "ad2", "ad3")  # module, comodule, right-multiplicativity
VARIANTS = (frozenset({"ad1", "ad3"}), frozenset(CONDITIONS))  # module, fully-constrained


class ClosureFailure(Exception):
    """A structure map left the computed solution subspace."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class AdjointProblem:
    """All data feeding one solver run.  `t_embed` lifts the base Hopf
    algebra into the bosonization (columns = images of base elements)."""

    hopf: FinDimHopf
    base: FinDimHopf
    pi: Matrix
    t_embed: Matrix
    rmatrix: RMatrix
    comod_alg: ComoduleAlgebra
    conditions: frozenset[str]

    @property
    def ctx(self) -> FieldContext:
        return self.hopf.ctx

    @cached_property
    def ad2_terms(self) -> list[list[tuple[int, int, Scalar]]]:
        """ad2_terms[x]: the (t_leg, zz, coefficient) terms of the
        comodule condition's left side, R2 x (embed R1) e_x, legs outer
        and products inner.  R is read as legs (R2, R1): the braided
        functor G: V -> Z(C) whose image the solutions centralise."""
        one = self.ctx.one()
        mult_terms = self.hopf.algebra.mult_terms
        return [[(t_leg, zz, c * m) for e_leg, t_leg, c in self.rmatrix.terms
                 for zz, m in mult_terms(self.t_embed.col_terms(e_leg), [(x, one)])]
                for x in range(self.hopf.dim)]

    @cached_property
    def g_conjugates(self) -> list[list[list[tuple[int, Scalar]]]]:
        """g_conjugates[i][y]: the term list of g^-i e_y g^i, for g^i the
        image under t_embed of the base element at index i."""
        one, n = self.ctx.one(), self.base.dim
        mult_terms, g = self.hopf.algebra.mult_terms, self.t_embed.col_terms
        return [[mult_terms(mult_terms(g(-i % n), [(y, one)]), g(i)) for y in range(self.hopf.dim)]
                for i in range(n)]

    def describe(self) -> dict:
        return {
            "hopf_dim": self.hopf.dim,
            "comodule_algebra": self.comod_alg.name,
            "conditions": sorted(self.conditions),
            # ad2 has one R-matrix reading, (R2, R1); the field stays,
            # always false, so that the canonical JSON keeps its bytes
            "rbar": False,
        }


def condition_variant(conditions) -> frozenset[str]:
    """The condition names, stripped and lower-cased, as one of the two
    VARIANTS; a ValueError for any other set."""
    conds = frozenset(c.strip().lower() for c in conditions if c.strip())
    if conds not in VARIANTS:
        raise ValueError(f"conditions {','.join(sorted(conds)) or '(none)'} are neither ad1,ad3 nor ad1,ad2,ad3")
    return conds


def problem_for(model: TaftModel, k: ComoduleAlgebra, conditions) -> AdjointProblem:
    """Problem over one Taft model, with its embedding g^b -> x^0 # g^b."""
    return AdjointProblem(model.taft, model.t_hopf, model.pi, model.embed, model.rmatrix, k,
                          condition_variant(conditions))


# ---------------------------------------------------------------------------
# condition systems


def _ad2_rhs(p: AdjointProblem) -> dict[tuple[int, int, int], Scalar]:
    """(t, p0, p2) -> the coefficient of g^t x e_p0 in (pi x id) lambda(e_p2):
    the right-hand side of the comodule condition, the same for every x."""
    pi_cols = [p.pi.col_terms(y) for y in range(p.hopf.dim)]
    return {(t, p0, p2): c for p2, terms in enumerate(p.comod_alg.coaction)
            for (t, p0), c in leg_map((pi_cols, None), {(y, p0): c for y, p0, c in terms}).items()}


def condition_system(p: AdjointProblem) -> Matrix:
    """Full pipeline: unknowns alpha[pp][(x, k)] flattened at
    (x*NK + k)*NP + pp; one row block per active condition, indexed over
    all basis tuples (the comodule condition is anchored at k = 1)."""
    ctx = p.ctx
    K = p.comod_alg
    NH, NK = p.hopf.dim, K.dim
    NP = NK  # coefficients in K itself
    halg, kalg = p.hopf.algebra, K.algebra
    unit_terms = kalg.unit

    def u(x: int, k: int, pp: int) -> int:
        return (x * NK + k) * NP + pp

    terms: list[tuple[int, int, Scalar]] = []
    nrows = 0

    if "ad1" in p.conditions:
        for k in range(NK):
            for x in range(NH):
                for l in range(NK):  # one row per pp
                    for y, k0, c in K.coaction[k]:
                        for zz, m1 in halg.mult[y][x]:
                            for j, m2 in kalg.mult[k0][l]:
                                cm = c * m1 * m2
                                terms += [(nrows + pp, u(zz, j, pp), cm) for pp in range(NP)]
                    for p2 in range(NP):  # minus e_k alpha(x, l)
                        for pp, e in kalg.mult[k][p2]:
                            terms.append((nrows + pp, u(x, l, p2), -e))
                    nrows += NP

    if "ad2" in p.conditions:
        rhs = _ad2_rhs(p)
        for x in range(NH):  # one row per (t, pp)
            for t_leg, zz, cm in p.ad2_terms[x]:
                for k, ck in unit_terms:
                    cmk = cm * ck
                    terms += [(nrows + t_leg * NP + pp, u(zz, k, pp), cmk) for pp in range(NP)]
            for (t, p0, p2), c in rhs.items():
                for k, ck in unit_terms:
                    terms.append((nrows + t * NP + p0, u(x, k, p2), -c * ck))
            nrows += p.base.dim * NP

    if "ad3" in p.conditions:
        for x in range(NH):
            for k in range(NK):  # one row per pp
                terms += [(nrows + pp, u(x, k, pp), ctx.one()) for pp in range(NP)]
                for p2 in range(NP):  # minus alpha(x, 1) e_k
                    for pp, e in kalg.mult[p2][k]:
                        for kk, ck in unit_terms:
                            terms.append((nrows + pp, u(x, kk, p2), -e * ck))
                nrows += NP

    return Matrix(ctx, nrows, NH * NK * NP, terms)


def condition_system_reduced(p: AdjointProblem) -> Matrix:
    """Reduced pipeline: unknowns abar[pp][x] at x*NK + pp, where
    alpha(x, k) = abar(x) k is substituted into the other conditions.

    The module condition runs over the algebra generators of K only:
    the coaction is an algebra map, so once alpha(x, k) = abar(x) k the
    condition at a product k1 k2 follows from the conditions at k1 and
    at k2 (and at k = 1 it is void).  The full pipeline keeps every k."""
    if p.conditions not in VARIANTS:
        raise ValueError("the reduced pipeline solves ad1,ad3 and ad1,ad2,ad3 only")
    ctx = p.ctx
    K = p.comod_alg
    NH, NK = p.hopf.dim, K.dim
    halg, kalg = p.hopf.algebra, K.algebra

    def u(x: int, pp: int) -> int:
        return x * NK + pp

    terms: list[tuple[int, int, Scalar]] = []
    nrows = 0

    for k in K.generators:  # ad1
        for x in range(NH):  # one row per pp
            for y, k0, c in K.coaction[k]:  # abar(y x) k0
                for zz, m1 in halg.mult[y][x]:
                    cm = c * m1
                    for p2 in range(NK):
                        for pp, e in kalg.mult[p2][k0]:
                            terms.append((nrows + pp, u(zz, p2), cm * e))
            for p2 in range(NK):  # minus e_k abar(x)
                for pp, e in kalg.mult[k][p2]:
                    terms.append((nrows + pp, u(x, p2), -e))
            nrows += NK

    if "ad2" in p.conditions:
        rhs = _ad2_rhs(p)
        for x in range(NH):  # one row per (t, pp)
            for t_leg, zz, cm in p.ad2_terms[x]:
                terms += [(nrows + t_leg * NK + pp, u(zz, pp), cm) for pp in range(NK)]
            for (t, p0, p2), c in rhs.items():
                terms.append((nrows + t * NK + p0, u(x, p2), -c))
            nrows += p.base.dim * NK

    return Matrix(ctx, nrows, NH * NK, terms)


# ---------------------------------------------------------------------------
# the solved algebra


class AdjointAlgebra:
    """Solution space in abar coordinates: `basis` is the echelon basis
    of the vectors abar = alpha(-, 1) in k^(NH*NK), at index x*NK + pp.
    `compute_structure` sets the solved structure in that basis as three
    package objects, each None until then: `algebra`, a FinDimAlgebra
    whose mult[i][j] and unit are coordinate term lists, ascending and
    zero-free, laid out densely only by `to_jsonable`; `module`, a
    ModuleRep over H#T; and `comodule`, a ComoduleRep over H#T.

    Every solution is right-K-linear (ad3), alpha(x, k) = abar(x) k, so
    abar fixes it: the structure maps and the Hom-space view of
    `hom_columns`, which the JSON basis and the direct re-check read, are
    all built from the term lists of abar."""

    def __init__(self, problem: AdjointProblem, basis: SubspaceBasis):
        self.problem = problem
        self.basis = basis
        self.NH, self.NK = problem.hopf.dim, problem.comod_alg.dim
        self.dim = basis.dim
        self.algebra: FinDimAlgebra | None = None
        self.module: ModuleRep | None = None
        self.comodule: ComoduleRep | None = None

    @property
    def ctx(self) -> FieldContext:
        return self.problem.ctx

    @cached_property
    def bar_terms(self) -> list[list[list[tuple[int, Scalar]]]]:
        """bar_terms[i][x]: the term list of alpha_i(e_x, 1)."""
        NK = self.NK
        out = []
        for row in self.basis.rows:
            per_x: list[list[tuple[int, Scalar]]] = [[] for _ in range(self.NH)]
            for u, e in sorted(row.items()):
                per_x[u // NK].append((u % NK, e))
            out.append(per_x)
        return out

    def hom_columns(self, i: int) -> list[list[tuple[int, Scalar]]]:
        """Basis element i over the Hom-space, as its column view: entry
        x*NK + k is the term list of alpha_i(e_x, e_k) = abar_i(x) e_k; an
        empty abar_i(x) gives NK empty entries with no sum formed."""
        mult, NK = self.problem.comod_alg.algebra.mult, self.NK
        cols: list[list[tuple[int, Scalar]]] = []
        for bar in self.bar_terms[i]:
            cols += [lincomb((e, mult[r][k]) for r, e in bar) for k in range(NK)] if bar else [[] for _ in range(NK)]
        return cols

    # -- structure assembly ------------------------------------------------

    def _coords(self, acc: dict[int, Scalar], message: str, witness: dict) -> list[tuple[int, Scalar]]:
        """The coordinate term list of the abar vector acc in the basis, or
        a ClosureFailure when it has left the solution space."""
        c = coords_of_terms(acc, self.basis)
        if c is None:
            raise ClosureFailure(message, witness=witness)
        return c

    def compute_structure(self) -> None:
        """Product (a.b)bar(x) = sum a(x1) b(x2), unit ubar(x) = eps(x) 1,
        action (h.a)bar(x) = a(x h) and coaction component_y bar(x) =
        sum [S(x1) lam(a(x2))(-1) x3]_y lam(a(x2))(0), each summed into a
        sparse abar vector {x*NK + pp: coefficient} and read off at the
        basis pivots by `coords_of_terms`."""
        ctx = self.ctx
        hopf = self.problem.hopf
        K = self.problem.comod_alg
        kalg, halg = K.algebra, hopf.algebra
        NH, NK, n = self.NH, self.NK, self.dim
        terms = self.bar_terms

        unit = {x * NK + r: e * u for x, e in nonzero(hopf.coalgebra.counit)
                for r, u in kalg.unit}
        unit_coords = self._coords(unit, "unit map is not in the solution space",
                                   {"map": "x,k -> eps(x) k"})

        prod: list[list[list[tuple[int, Scalar]]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc: dict[int, Scalar] = {}
                for x in range(NH):
                    for x1, x2, c in hopf.coalgebra.comult[x]:
                        for r, a in terms[i][x1]:
                            for s, b in terms[j][x2]:
                                cab = c * a * b
                                for t, m in kalg.mult[r][s]:
                                    u, v = x * NK + t, cab * m
                                    acc[u] = acc[u] + v if u in acc else v
                prod[i][j] = self._coords(acc, "product left the solution space",
                                          {"pair": [i, j]})
        self.algebra = FinDimAlgebra(ctx, n, prod, unit_coords)

        action: list[Matrix] = []
        for h in range(NH):
            h_terms = []  # column j: the coordinates of h.a_j
            for j in range(n):
                acc = {}
                for x in range(NH):
                    for zz, m in halg.mult[x][h]:
                        for r, e in terms[j][zz]:
                            u, v = x * NK + r, m * e
                            acc[u] = acc[u] + v if u in acc else v
                c = self._coords(acc, "action left the solution space", {"h": h, "basis": j})
                h_terms += [(i, j, e) for i, e in c]
            action.append(Matrix(ctx, n, n, h_terms))
        self.module = ModuleRep(halg, n, action)

        s_cols = [hopf.antipode.col_terms(x1) for x1 in range(NH)]
        lefts: dict[tuple[int, int, int], list[tuple[int, Scalar]]] = {}  # S(x1) y0 x3

        def left_terms(x1: int, y0: int, x3: int) -> list[tuple[int, Scalar]]:
            key = (x1, y0, x3)
            if key not in lefts:
                # as S(x1) (y0 x3), one product with the stored y0 x3
                lefts[key] = halg.mult_terms(s_cols[x1], halg.mult[y0][x3])
            return lefts[key]

        coaction = []
        for j in range(n):
            comps: dict[int, dict[int, Scalar]] = {}
            for x in range(NH):
                for x1, x2, x3, c in hopf.coalgebra.delta2_terms[x]:
                    for (y0, p0), clam in tensor_image(K.coaction, terms[j][x2]).items():
                        for y, cy in left_terms(x1, y0, x3):
                            comp = comps.setdefault(y, {})
                            u, v = x * NK + p0, c * clam * cy
                            comp[u] = comp[u] + v if u in comp else v
            cols = {y: self._coords(comp, "coaction left the solution space",
                                    {"basis": j, "hopf_component": y})
                    for y, comp in comps.items()}
            coaction.append([(y, i, c) for y in sorted(cols) for i, c in cols[y]])
        self.comodule = ComoduleRep(hopf.coalgebra, n, coaction)

    def to_jsonable(self, views=None):
        """views, when the caller holds them: the Hom-space view
        hom_columns(i) of every basis element i, in order; otherwise each
        is built here, one at a time."""
        ctx, n, NK = self.ctx, self.dim, self.NK
        if views is None:
            views = map(self.hom_columns, range(n))
        return {
            "problem": self.problem.describe(),
            "dim": n,
            # row pp, column x*NK + k: the e_pp coefficient of alpha(x, k)
            "basis": [Matrix(ctx, NK, self.NH * NK, [(pp, u, c) for u, col in enumerate(cols) for pp, c in col])
                      for cols in views],
            "product": [[dense(ctx, n, v) for v in row] for row in self.algebra.mult],
            "unit": dense(ctx, n, self.algebra.unit),
            "action": self.module.action,
            "coaction": self.comodule.matrix(),
        }


def solve_adjoint(p: AdjointProblem, with_structure: bool = True) -> AdjointAlgebra:
    """The kernel of the reduced system, an echelon basis of abar
    vectors, equipped with its verified structure maps.  p is one of the
    two variants, so every solution is right-K-linear and fixed by abar;
    the tests check this basis against the kernel of the full system
    `condition_system`, restricted to k = 1, bit for bit."""
    alg = AdjointAlgebra(p, kernel_basis(condition_system_reduced(p)))
    if with_structure:
        alg.compute_structure()
    return alg


# ---------------------------------------------------------------------------
# direct re-verification of the conditions (independent of the kernel solver)
#
# These read Hom-space maps alpha as column views, one ascending zero-free
# term list of alpha(e_x, e_k) at x*NK + k, the format of
# `AdjointAlgebra.hom_columns`, so that maps which are not right-K-linear
# can be checked as well.


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


def verify_conditions_direct(p: AdjointProblem, views: list[list[list[tuple[int, Scalar]]]],
                             report: VerificationReport | None = None,
                             prefix: str = "conditions") -> VerificationReport:
    """Substitute each Hom-space map, given by its column view in views,
    into the active conditions of p: ad1 over every (k, x, l), ad2 and
    ad3."""
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


# ---------------------------------------------------------------------------
# structural verifications


def verify_yd(a: AdjointAlgebra, report: VerificationReport | None = None,
              prefix: str = "adjoint-yd") -> VerificationReport:
    """The computed action and coaction form a Yetter-Drinfeld module."""
    rep = report if report is not None else VerificationReport()
    check_module(a.module, rep, prefix=f"{prefix}/module")
    check_comodule(a.comodule, rep, prefix=f"{prefix}/comodule")
    check_yd(a.problem.hopf, a.module, a.comodule, rep, prefix=f"{prefix}/compat")
    return rep


def verify_center_algebra(a: AdjointAlgebra, report: VerificationReport | None = None,
                          prefix: str = "adjoint-center") -> VerificationReport:
    """Associativity, unit, and the product being a module and comodule
    morphism for the tensor structures."""
    rep = report if report is not None else VerificationReport()
    hopf = a.problem.hopf
    alg, action = a.algebra, a.module.action
    unit = alg.unit
    eps = hopf.coalgebra.counit
    rep.check(f"{prefix}/associative", (
        {"triple": [i, j, k]} for i, j, k, _, _ in associativity_failures(alg)))
    rep.check(f"{prefix}/unit-two-sided", ({"basis": i} for i in unit_failures(alg)))
    rep.check(f"{prefix}/unit-invariant", (
        {"h": h} for h in range(hopf.dim)
        if action[h].apply_terms(unit) != lincomb([(eps[h], unit)])))
    rep.check(f"{prefix}/product-module-morphism", (
        {"h": h, "pair": [i, j]} for h, i, j in module_algebra_failures(hopf.coalgebra, alg, action)))
    rep.check(f"{prefix}/product-comodule-morphism", (
        {"pair": [i, j]} for i, j, _ in coaction_multiplicative_failures(hopf.algebra, alg, a.comodule.coaction)))
    return rep


def verify_braided_commutative(a: AdjointAlgebra, report: VerificationReport | None = None,
                               prefix: str = "adjoint-braided") -> VerificationReport:
    """m o c = m with c the Yetter-Drinfeld braiding; also records
    whether plain (unbraided) commutativity happens to hold."""
    rep = report if report is not None else VerificationReport()
    n = a.dim
    table = a.algebra.mult
    rep.check(f"{prefix}/braided-commutative", braided_commutativity_failures(
        yd_braiding(a.comodule, a.module), a.algebra))
    plain = all(table[i][j] == table[j][i] for i in range(n) for j in range(n))
    rep.add(f"{prefix}/plain-commutative-info", True, {"plain_commutative": plain})
    return rep


def verify_relative_center(a: AdjointAlgebra, v: ModuleRep,
                           report: VerificationReport | None = None,
                           prefix: str = "relative-center") -> VerificationReport:
    """The double braiding against the lifted module is the identity;
    the witness is the first basis tuple (i, vv) where it is not."""
    if "ad2" not in a.problem.conditions:
        raise ValueError("relative-center check requires the comodule condition (ad2)")
    rep = report if report is not None else VerificationReport()
    p = a.problem
    one = a.ctx.one()
    dv = v.dim
    gamma = yd_braiding(a.comodule, lift_via_pi(p.hopf, p.pi, v))
    cols = double_braiding(gamma, a.module, v, p.t_embed, p.rmatrix).transpose()
    rep.check(f"{prefix}/double-braiding-identity", (
        {"basis": col // dv, "module_index": col % dv} for col in range(a.dim * dv)
        if cols.row_terms(col) != [(col, one)]))
    return rep


def invariant_coinvariant_dim(hopf: FinDimHopf, action: list[Matrix], coaction) -> int:
    """dim of { a : h.a = eps(h) a for all h, and delta(a) = 1 x a }."""
    n = action[0].rows
    eps = hopf.coalgebra.counit
    co = hopf.dim * n  # row h*n + r of (action - eps), then co + y*n + r of (lambda - 1 x id)
    terms = [(h * n + r, c, e) for h in range(hopf.dim) for r, c, e in action[h].terms()]
    terms += [(h * n + r, r, -eps[h]) for h in range(hopf.dim) for r in range(n)]
    terms += [(co + y * n + r, c, e) for c, cterms in enumerate(coaction) for y, r, e in cterms]
    terms += [(co + y * n + r, r, -u) for y, u in hopf.algebra.unit for r in range(n)]
    return kernel_basis(Matrix(hopf.ctx, 2 * co, n, terms)).dim


def connectedness(a: AdjointAlgebra) -> int:
    return invariant_coinvariant_dim(a.problem.hopf, a.module.action, a.comodule.coaction)


# ---------------------------------------------------------------------------
# transport onto the tuple picture for K(d, xi)


def phi_structure_transport(a: AdjointAlgebra, report: VerificationReport | None = None,
                            prefix: str = "transport") -> VerificationReport:
    """Transport the solved structure through phi(alpha) =
    (alpha(g^i, 1))_{i<m} onto the m-tuple picture over K(d, xi) and
    check the componentwise product, the shift action of g, both index
    conventions for the action of x, and the conjugated coaction."""
    rep = report if report is not None else VerificationReport()
    p = a.problem
    K = p.comod_alg
    if not isinstance(K, ComoduleAlgebraK):
        raise ValueError("structure transport needs a K(d, xi) comodule algebra")
    if p.conditions != {"ad1", "ad3"}:
        raise ValueError("structure transport is defined for the module+right-mult variant")
    ctx = a.ctx
    n, d, m = K.n, K.d, K.m
    NK = K.dim
    kalg = K.algebra
    one = ctx.one()
    unit = kalg.unit

    ok = a.dim == n * n
    rep.add(f"{prefix}/dimension", ok, None if ok else {"dim": a.dim, "expected": n * n})

    def g_terms(j: int) -> list[tuple[int, Scalar]]:
        return p.t_embed.col_terms(j % n)

    # tvals[s][j]: the term list of alpha_s(g^j, 1)
    tvals = [[lincomb((cy, a.bar_terms[s][y]) for y, cy in g_terms(j)) for j in range(n + 1)]
             for s in range(a.dim)]

    phi = Matrix(ctx, m * NK, a.dim, [(i * NK + pp, s, c) for s in range(a.dim)
                                      for i in range(m) for pp, c in tvals[s][i]])
    kernel = kernel_basis(phi).dim
    ok = kernel == 0 and phi.rows == a.dim
    rep.add(f"{prefix}/phi-bijective", ok,
            None if ok else {"rows": phi.rows, "dim": a.dim, "kernel": kernel})

    h = [(K.index(1, 0), one)] if d > 1 else unit
    h_pows = [unit]
    for _ in range(d):
        h_pows.append(kalg.mult_terms(h_pows[-1], h))

    def conj(qt: int, terms) -> list[tuple[int, Scalar]]:
        qt = qt % d
        return kalg.mult_terms(kalg.mult_terms(h_pows[qt], terms), h_pows[(d - qt) % d])

    def component(coords, comp: int) -> list[tuple[int, Scalar]]:
        """Component comp of the tuple of the solution with these
        coordinate terms."""
        return lincomb((cl, tvals[l][comp]) for l, cl in coords)

    def transported(s: int, act: Matrix, comp: int) -> list[tuple[int, Scalar]]:
        return component(act.col_terms(s), comp)

    embedded_action = a.module.act_terms

    def g_shift():
        for r in range(1, m):
            act = embedded_action(g_terms(r))
            for s in range(a.dim):
                for i in range(m - r):
                    if transported(s, act, i) != tvals[s][i + r]:
                        yield {"shift": r, "component": i, "basis": s}

    def g_conjugation_rule():
        for shift in range(n):
            act = embedded_action(g_terms(shift))
            for s in range(a.dim):
                for i in range(m):
                    qt, j = divmod(i + shift, m)
                    if transported(s, act, i) != conj(qt, tvals[s][j]):
                        yield {"shift": shift, "component": i, "basis": s}

    rep.check(f"{prefix}/g-shift", g_shift())
    rep.check(f"{prefix}/g-conjugation-rule", g_conjugation_rule())

    if n > 1:
        w = [(K.index(0, 1), one)]
        act_x = embedded_action([(n, one)])  # x # 1 sits at index 1*n + 0

        def x_action_failures(shift: int):
            # x.(t)_i = q^i (w t_i - t_(i+shift) w), shift 1 or 0
            for s in range(a.dim):
                for i in range(m):
                    qi = zeta_power(ctx, i)
                    rhs = lincomb([(qi, kalg.mult_terms(w, tvals[s][i])),
                                   (-qi, kalg.mult_terms(tvals[s][i + shift], w))])
                    if transported(s, act_x, i) != rhs:
                        yield {"basis": s, "component": i}

        bad_shifted = next(x_action_failures(1), None)
        bad_unshifted = next(x_action_failures(0), None)
        rep.add(f"{prefix}/x-action", bad_shifted is None, bad_shifted)
        rep.add(f"{prefix}/x-action-index-convention", True,
                {"shifted_holds": bad_shifted is None,
                 "unshifted_holds": bad_unshifted is None})

        def x_power_extension():
            for aexp in range(2, m):
                xa = embedded_action([(aexp * n, one)])
                xa1 = embedded_action([((aexp - 1) * n, one)])
                for s in range(a.dim):
                    rhs = lincomb([(one, kalg.mult_terms(w, transported(s, xa1, 0))),
                                   (-one, kalg.mult_terms(transported(s, xa1, 1), w))])
                    if transported(s, xa, 0) != rhs:
                        yield {"power": aexp, "basis": s}

        if m >= 3:
            rep.check(f"{prefix}/x-power-extension", x_power_extension())
        else:
            rep.add_skipped(f"{prefix}/x-power-extension", "no components with 2 <= a <= m-1")
    else:
        rep.add_skipped(f"{prefix}/x-action", "no x generator at n = 1")
        rep.add_skipped(f"{prefix}/x-action-index-convention", "no x generator at n = 1")
        rep.add_skipped(f"{prefix}/x-power-extension", "no x generator at n = 1")

    def coaction_conjugated():
        for s in range(a.dim):
            lhs = dict(lincomb((c, [((y, i, pp), v) for i in range(m) for pp, v in tvals[l][i]])
                               for y, l, c in a.comodule.coaction[s]))
            # component i conjugated by g^i
            rhs = {(yy, i, pp): c for i in range(m) for (yy, pp), c in
                   leg_map((p.g_conjugates[i], None), tensor_image(K.coaction, tvals[s][i])).items()}
            key = sparse_diff(lhs, rhs, ctx)
            if key is not None:
                yield {"basis": s, "key": list(key)}

    rep.check(f"{prefix}/coaction-conjugated", coaction_conjugated())
    rep.check(f"{prefix}/componentwise-product", (
        {"pair": [s, t], "component": i}
        for s in range(a.dim) for t in range(a.dim) for i in range(m)
        if component(a.algebra.mult[s][t], i) != kalg.mult_terms(tvals[s][i], tvals[t][i])))
    return rep


# ---------------------------------------------------------------------------
# isotypic cross-check


def _grading_twist(p: AdjointProblem, shift: int) -> Matrix:
    """Operator multiplying the degree-t component of the projected
    grading by q^t, for the coaction of p's K conjugated by g^shift."""
    ctx = p.ctx
    n = p.base.dim
    K = p.comod_alg
    conjugates = p.g_conjugates[shift % n]
    terms = []
    for k in range(K.dim):
        for y, k0, c in K.coaction[k]:
            for yy, cy in conjugates[y]:
                for t, cpi in p.pi.col_terms(yy):
                    terms.append((k0, k, c * cy * cpi * zeta_power(ctx, t)))
    return Matrix(ctx, K.dim, K.dim, terms)


def _isotypic_zero_dim(ctx: FieldContext, twist: Matrix, n: int) -> int:
    """Rank of the averaging projector (1/n) sum twist^j."""
    dim = twist.rows
    acc = Matrix.identity(ctx, dim)
    power = Matrix.identity(ctx, dim)
    for _ in range(n - 1):
        power = power * twist
        acc = acc + power
    inv_n = Fraction(1, n)
    proj = Matrix(ctx, dim, dim, [(i, j, e.scale(inv_n)) for i, j, e in acc.terms()])
    if (proj * proj) != proj:
        raise ArithmeticError("averaging operator is not idempotent")
    return rank(proj)


def chi0_crosscheck(rel: AdjointAlgebra, report: VerificationReport | None = None,
                    prefix: str = "chi0") -> VerificationReport:
    """Compare the dimension of the solved fully-constrained algebra rel
    over K(d, xi) with the trivial-isotypic subspaces of K(d, xi) and of
    the m-tuple algebra built on it, computed by an independent averaging
    projector."""
    K = rel.problem.comod_alg
    if not isinstance(K, ComoduleAlgebraK):
        raise ValueError("chi0 cross-check needs a K(d, xi) comodule algebra")
    if rel.problem.conditions != set(CONDITIONS):
        raise ValueError("chi0 cross-check is defined for the fully-constrained variant")
    rep = report if report is not None else VerificationReport()
    n, m, NK = K.n, K.m, K.dim
    ctx, rel_dim = rel.ctx, rel.dim

    # component i of the m-tuple carrier is conjugated by g^i, which
    # leaves the projected degree unchanged; verified honestly by
    # projecting the block-diagonal sum of the conjugated twists.
    blocks = [_grading_twist(rel.problem, i) for i in range(m)]
    dim_k0 = _isotypic_zero_dim(ctx, blocks[0], n)
    tw_t = Matrix(ctx, m * NK, m * NK, [(i * NK + r, i * NK + c, e)
                                        for i, block in enumerate(blocks) for r, c, e in block.terms()])
    dim_t0 = _isotypic_zero_dim(ctx, tw_t, n)

    rep.add(f"{prefix}/dims", True,
            {"relative_dim": rel_dim, "isotypic_K": dim_k0, "isotypic_tuple": dim_t0,
             "n": n, "d": K.d, "xi": str(K.xi)})
    matches = []
    if rel_dim == dim_k0:
        matches.append("K(d,xi)")
    if rel_dim == dim_t0:
        matches.append("tuple-algebra")
    rep.add(f"{prefix}/dimension-isomorphism", bool(matches), {"matches": matches})
    return rep


# ---------------------------------------------------------------------------
# dinaturality sampling


def dinaturality_failures(p: AdjointProblem, bars: list[list[tuple[int, Scalar]]],
                          m_mod: ModuleRep, v: ModuleRep):
    """Yield {"tuple": [h, jdual, vv, mm]} at each basis tuple, in the
    order of h, jdual, vv, then mm, where the two sides of the wedge
    identity differ for the map whose abar term lists are bars[x] =
    alpha(e_x, 1), as in `AdjointAlgebra.bar_terms`; values land in the
    module m collapsed along K."""
    K = p.comod_alg
    dv, dm = v.dim, m_mod.dim
    s_t = p.base.antipode
    gv = lift_via_pi(p.hopf, p.pi, v)
    s_acts = [v.act_terms(s_t.col_terms(t)) for t in range(p.base.dim)]
    # m_acts[p0][mm]: e_p0 acting on e_mm
    m_acts = [[act.col_terms(mm) for mm in range(dm)] for act in m_mod.action]
    legs: dict[tuple[int, int], list] = {}  # (t_leg, y) -> the terms of S(t_leg) G(v)_y
    images: dict[int, dict] = {}  # zz -> lambda(alpha(e_zz, 1))

    for h in range(p.hopf.dim):
        # (jdual, vv) -> p0 -> the summed coefficient of e_p0 acting on m
        rhs_coeffs: dict[tuple[int, int], dict[int, Scalar]] = {}
        for t_leg, zz, cm in p.ad2_terms[h]:
            if zz not in images:
                images[zz] = tensor_image(K.coaction, bars[zz])
            for (y, p0), lc in images[zz].items():
                if (t_leg, y) not in legs:
                    legs[t_leg, y] = (s_acts[t_leg] * gv.action[y]).terms()
                c = cm * lc
                for i, j, e in legs[t_leg, y]:
                    per = rhs_coeffs.setdefault((i, j), {})
                    add = c * e
                    per[p0] = per[p0] + add if p0 in per else add
        bar_act = m_mod.act_terms(bars[h])
        for jdual in range(dv):
            for vv in range(dv):
                per = rhs_coeffs.get((jdual, vv), {})
                for mm in range(dm):
                    lhs = bar_act.col_terms(mm) if jdual == vv else []
                    rhs = lincomb((c, m_acts[p0][mm]) for p0, c in per.items())
                    if lhs != rhs:
                        yield {"tuple": [h, jdual, vv, mm]}


def dinaturality_sample(a: AdjointAlgebra, m_mod: ModuleRep, v: ModuleRep,
                        report: VerificationReport | None = None,
                        prefix: str = "dinaturality") -> VerificationReport:
    """Wedge identity for every basis solution of a, sampled at the
    module m over K and the base-algebra module v."""
    rep = report if report is not None else VerificationReport()

    rep.check(f"{prefix}/wedge-identity", (
        {"basis": idx, **w} for idx in range(a.dim)
        for w in dinaturality_failures(a.problem, a.bar_terms[idx], m_mod, v)))
    return rep
