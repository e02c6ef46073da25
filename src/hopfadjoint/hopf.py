"""Finite-dimensional algebras, coalgebras and Hopf algebras by
structure constants, with exhaustive axiom checkers and antipode
solving.

Structure constants are stored once, as sorted zero-free term lists;
checkers iterate over all basis tuples and report exact pass/fail with
witnesses.  Antipodes are never transcribed from formulas: they are
solved from the left convolution identity m(S x id)Delta = u eps, and
the right one is checked exactly, which independently validates every
construction.  When, in some order of the basis, each Delta(e_i) has
exactly one term c_i e_i x w_i with left leg e_i, w_i a grouplike basis
element with a basis inverse, and every other left leg earlier, the
identity is triangular and S is found by substitution along that order,
unique with no rank test; kC_n, the braided line and the Taft algebra
qualify.  Any other host eliminates the dim^2-unknown system, which
alone can find it inconsistent or degenerate.

Each algebra axiom is scanned by one generator here, which yields the
failing basis tuples in one loop order; every caller keeps its own claim
id and witness:
  * `associativity_failures`, `unit_failures`: `check_algebra` and
    `adjoint.verify_center_algebra`;
  * `coassociativity_failures` of a coaction, Delta included:
    `check_coalgebra` and `braiding.check_comodule`;
  * `counit_failures` of a coaction, Delta and its opposite included:
    `check_coalgebra` and `braiding.check_comodule`;
  * `coaction_unit_failures`: `check_bialgebra` and
    `braiding.check_comodule_algebra`;
  * `coaction_multiplicative_failures`: `check_bialgebra`,
    `braiding.check_comodule_algebra` and `verify_center_algebra`;
  * `module_algebra_failures`: `constructions.check_braided_hopf` and
    `verify_center_algebra`.

The scans here that sum into dicts, `braiding.check_module` and
`check_yd`, and the ad1 scan of `adjoint.verify_conditions_direct` share
one idiom per basis tuple.  Each
side is summed into a dict with `acc[k] = acc[k] + v if k in acc else v`,
so no first term is added to a zero.  An empty structure-constant list is
skipped before anything is multiplied for it, and a coefficient product
that does not depend on the innermost index is formed outside it.  A
product of two elements that is summed into a dict goes through
`FinDimAlgebra.add_product`, unsorted.  The two sides are compared with
`lhs != rhs` first, and `sparse_diff` runs only when the dicts differ.
Equal dicts agree at every key, so the test changes no result.  Unequal
dicts reach `sparse_diff` as they are, so the key it returns, the first
differing one in the order of their key set, is the one it returned
before, and a zero stored in one dict still counts as absent: dicts that
differ only in stored zeros pass.

Those hot scans keep that inline idiom, as does `tensor_image`, hot in
`coaction_multiplicative_failures` and `adjoint` structure assembly.
Every other sum of a sparse tensor, a {(i_1, ..., i_k): c} dict, goes
through one of four helpers, each returning no zero: `linalg.lincomb`
(tuple keys allowed), `tensor_image` (Delta or a coaction), `tensor_mult`
(the product leg by leg) and `leg_map` ((f_1 x ... x f_k)(t)).  Four
bespoke products remain, each interleaving more than one helper could
without an intermediate tensor: `tensor_mult`'s own loop,
`constructions._braided_square_product` (the braiding between two
products), `constructions.bosonization` (the T-action, R's legs and T's
product at kron indices) and `braided_adjoint.pi_dinatural_check`'s wedge
sum (R's terms against three module actions).
"""

from __future__ import annotations

from functools import cached_property
from heapq import merge
from itertools import product

from .cyclotomic import FieldContext, Scalar
from .linalg import Matrix, dense, lincomb, rref, sorted_terms, sparse_diff, zeros
from .reports import VerificationReport


class NoAntipodeError(Exception):
    """The convolution system for the antipode is inconsistent."""


class FinDimAlgebra:
    """Algebra with mult[i][j] the term list [(k, c), ...] of e_i * e_j
    and unit that of 1: ascending in k, no zero coefficient."""

    def __init__(self, ctx: FieldContext, dim: int, mult, unit):
        self.ctx = ctx
        self.dim = dim
        self.mult = mult
        self.unit = list(unit)

    def add_product(self, acc: dict[int, Scalar], u_terms, v_terms) -> None:
        """Add u * v, for the elements with these (index, coefficient)
        terms, into the accumulator acc in place, unsorted; acc may be left
        with stored zeros.  A caller that sums c * (u v) passes u with c
        already multiplied in, formed outside its inner loops."""
        mult = self.mult
        for i, ui in u_terms:
            row = mult[i]
            for j, vj in v_terms:
                terms = row[j]
                if terms:
                    c = ui * vj
                    for k, m in terms:
                        add = c * m
                        acc[k] = acc[k] + add if k in acc else add

    def mult_terms(self, u_terms, v_terms) -> list[tuple[int, Scalar]]:
        """The term list of u * v for the elements with these (index,
        coefficient) terms: ascending, no zero coefficient."""
        acc: dict[int, Scalar] = {}
        self.add_product(acc, u_terms, v_terms)
        return sorted_terms(acc)

    def left_mult_matrix(self, u_terms) -> Matrix:
        """Left multiplication by the element with these (index,
        coefficient) terms."""
        return Matrix(self.ctx, self.dim, self.dim,
                      ((k, j, ui * m) for i, ui in u_terms
                       for j, terms in enumerate(self.mult[i]) for k, m in terms))


class FinDimCoalgebra:
    """Coalgebra with comult[i] the term list [(j, k, c), ...] of
    Delta(e_i), the coefficient c of e_j x e_k: ascending in (j, k), no
    zero coefficient.  counit is a linear functional on the basis, kept
    dense: the checks read it by index."""

    def __init__(self, ctx: FieldContext, dim: int, comult, counit):
        self.ctx = ctx
        self.dim = dim
        self.comult = comult
        self.counit = list(counit)

    @cached_property
    def delta2_terms(self) -> list[list[tuple[int, int, int, Scalar]]]:
        """delta2_terms[i]: the (a, b, k, c) terms of (Delta x id) Delta(e_i),
        ascending in (a, b, k), no zero coefficient."""
        table = []
        for terms in self.comult:
            acc: dict[tuple[int, int, int], Scalar] = {}
            for j, k, c in terms:
                for a, b, d in self.comult[j]:
                    key, add = (a, b, k), c * d
                    acc[key] = acc[key] + add if key in acc else add
            table.append([(a, b, k, v) for (a, b, k), v in sorted_terms(acc)])
        return table

    def counit_vec(self, terms) -> Scalar:
        """The counit of the element with these (index, coefficient) terms."""
        out = self.ctx.zero()
        for i, ui in terms:
            out = out + ui * self.counit[i]
        return out


class FinDimHopf:
    """Hopf algebra: algebra + coalgebra on one basis + antipode matrix."""

    def __init__(self, algebra: FinDimAlgebra, coalgebra: FinDimCoalgebra, antipode: Matrix):
        if algebra.dim != coalgebra.dim:
            raise ValueError("algebra/coalgebra dimension mismatch")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.antipode = antipode

    @property
    def ctx(self) -> FieldContext:
        return self.algebra.ctx

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def to_jsonable(self):
        ctx, dim = self.ctx, self.dim
        comult = []
        for terms in self.coalgebra.comult:
            table = [zeros(ctx, dim) for _ in range(dim)]
            for j, k, c in terms:
                table[j][k] = c
            comult.append(table)
        return {
            "dim": dim,
            "mult": [[dense(ctx, dim, terms) for terms in row] for row in self.algebra.mult],
            "unit": dense(ctx, dim, self.algebra.unit),
            "comult": comult,
            "counit": self.coalgebra.counit,
            "antipode": self.antipode,
        }


def tensor_image(table, terms) -> dict[tuple[int, int], Scalar]:
    """The image of the element with these (index, coefficient) terms
    under the map into a tensor square whose value at e_i is the term
    list table[i] of (j, k, c): Delta for a comultiplication table,
    lambda for a coaction.  A sparse tensor {(j, k): c} without zeros."""
    acc: dict[tuple[int, int], Scalar] = {}
    for i, ui in terms:
        for j, k, c in table[i]:
            key = (j, k)
            add = ui * c
            acc[key] = acc[key] + add if key in acc else add
    return {k: v for k, v in acc.items() if not v.is_zero()}


def leg_map(maps, t: dict) -> dict:
    """The image (f_1 x ... x f_k)(t) of the sparse tensor t, a {(i_1,
    ..., i_k): c} dict, where maps[l] lists the column term lists of f_l,
    maps[l][i] that of f_l(e_i), or is None for the identity on leg l; a
    sparse tensor without zeros."""
    acc: dict = {}
    for key, c in t.items():
        images = [((), c)]
        for f, i in zip(maps, key):
            if f is None:
                images = [(k + (i,), v) for k, v in images]
            else:
                images = [(k + (j,), v * x) for k, v in images for j, x in f[i]]
        for k, v in images:
            acc[k] = acc[k] + v if k in acc else v
    return {k: v for k, v in acc.items() if not v.is_zero()}


def tensor_mult(algs, x: dict, y: dict) -> dict:
    """The product of the sparse tensors x and y, {(i_1, ..., i_k): c}
    dicts, in the tensor product of the algebras algs, one per leg,
    taken leg by leg; without zeros."""
    z = algs[0].ctx.zero()
    out: dict = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            c0 = cx * cy
            for legs in product(*[alg.mult[i][j] for alg, i, j in zip(algs, kx, ky)]):
                v = c0
                for _, m in legs:
                    v = v * m
                key = tuple(t for t, _ in legs)
                out[key] = out.get(key, z) + v
    return {k: v for k, v in out.items() if not v.is_zero()}


def associativity_failures(a: FinDimAlgebra):
    """Yield (i, j, k, lhs, rhs) at each basis triple, in the order of i,
    then j, then k, where lhs = (e_i e_j) e_k and rhs = e_i (e_j e_k)
    differ; both are {index: Scalar} dicts that may hold zeros."""
    ctx, mult = a.ctx, a.mult
    for i in range(a.dim):
        row_i = mult[i]
        for j in range(a.dim):
            ij, row_j = row_i[j], mult[j]
            for k in range(a.dim):
                lhs: dict[int, Scalar] = {}
                for t, c in ij:
                    for s, d in mult[t][k]:
                        add = c * d
                        lhs[s] = lhs[s] + add if s in lhs else add
                rhs: dict[int, Scalar] = {}
                for t, c in row_j[k]:
                    for s, d in row_i[t]:
                        add = c * d
                        rhs[s] = rhs[s] + add if s in rhs else add
                if lhs != rhs and sparse_diff(lhs, rhs, ctx) is not None:
                    yield i, j, k, lhs, rhs


def unit_failures(a: FinDimAlgebra):
    """Yield each basis index i at which 1 e_i or e_i 1 is not e_i."""
    unit, one = a.unit, a.ctx.one()
    for i in range(a.dim):
        ei = [(i, one)]
        if a.mult_terms(unit, ei) != ei or a.mult_terms(ei, unit) != ei:
            yield i


def coassociativity_failures(host: FinDimCoalgebra, coaction):
    """Yield (v, key) at each basis index v where (Delta x id) lambda(e_v)
    and (id x lambda) lambda(e_v) differ, key the first (a, b, w) at which
    they do.  coaction[v] is the term list of lambda(e_v) into host x V;
    with coaction = host.comult this is the coassociativity of host."""
    ctx, comult = host.ctx, host.comult
    for v, terms in enumerate(coaction):
        lhs: dict[tuple[int, int, int], Scalar] = {}
        for a, v0, x in terms:
            for p, q, d in comult[a]:
                key, add = (p, q, v0), x * d
                lhs[key] = lhs[key] + add if key in lhs else add
        rhs: dict[tuple[int, int, int], Scalar] = {}
        for a, v0, x in terms:
            for b, v1, y in coaction[v0]:
                key, add = (a, b, v1), x * y
                rhs[key] = rhs[key] + add if key in rhs else add
        if lhs != rhs:
            key = sparse_diff(lhs, rhs, ctx)
            if key is not None:
                yield v, key


def counit_failures(host: FinDimCoalgebra, coaction):
    """Yield each basis index v at which (eps x id) lambda(e_v) is not e_v,
    for coaction[v] the term list of lambda(e_v) into host x V: the counit
    law of a comodule, and with coaction = host.comult the left counit law
    of host."""
    one = host.ctx.one()
    for v, terms in enumerate(coaction):
        if lincomb((host.counit[a], [(v0, x)]) for a, v0, x in terms) != [(v, one)]:
            yield v


def coaction_unit_failures(h_alg: FinDimAlgebra, alg: FinDimAlgebra, coaction):
    """Yield the first key (y, p) at which lambda(1) and 1 x 1 differ in
    h_alg x alg, if they do; with h_alg = alg and coaction = Delta this is
    Delta(1) = 1 x 1."""
    expect = {(y, p): cy * cp for y, cy in h_alg.unit for p, cp in alg.unit}
    key = sparse_diff(tensor_image(coaction, alg.unit), expect, alg.ctx)
    if key is not None:
        yield key


def coaction_multiplicative_failures(h_alg: FinDimAlgebra, alg: FinDimAlgebra, coaction):
    """Yield (i, j, key) at each basis pair of alg, in the order of i, then
    j, where lambda(e_i e_j) and lambda(e_i) lambda(e_j) differ in h_alg x
    alg, key the first (y, p) at which they do.  With h_alg = alg and
    coaction = Delta this is the multiplicativity of a bialgebra's Delta."""
    ctx, mult, h_mult = alg.ctx, alg.mult, h_alg.mult
    for i in range(alg.dim):
        row_i, lambda_i = mult[i], coaction[i]
        for j in range(alg.dim):
            lambda_j = coaction[j]
            lhs = tensor_image(coaction, row_i[j])
            rhs: dict[tuple[int, int], Scalar] = {}
            for y1, a, c1 in lambda_i:
                h_row, a_row = h_mult[y1], mult[a]
                for y2, b, c2 in lambda_j:
                    hy, ab = h_row[y2], a_row[b]
                    if hy and ab:
                        c12 = c1 * c2
                        for y, m1 in hy:
                            cm = c12 * m1
                            for p, m2 in ab:
                                key, add = (y, p), cm * m2
                                rhs[key] = rhs[key] + add if key in rhs else add
            if lhs != rhs:
                key = sparse_diff(lhs, rhs, ctx)
                if key is not None:
                    yield i, j, key


def module_algebra_failures(coalgebra: FinDimCoalgebra, alg: FinDimAlgebra, action: list[Matrix]):
    """Yield (h, i, j) at each tuple, in the order of h, then i, then j,
    where h.(e_i e_j) and (h1.e_i)(h2.e_j) differ: action[h] is the matrix
    of the basis element h of coalgebra's host on alg."""
    ctx, mult, add_product = alg.ctx, alg.mult, alg.add_product
    cols = [[m.col_terms(i) for i in range(alg.dim)] for m in action]
    for h, terms in enumerate(coalgebra.comult):
        h_cols = cols[h]
        for i in range(alg.dim):
            row_i = mult[i]
            # c (h1.e_i) for each term (h1, h2, c) of Delta(h), with its h2
            lefts = [([(r, c * x) for r, x in cols[h1][i]], cols[h2]) for h1, h2, c in terms]
            for j in range(alg.dim):
                lhs: dict[int, Scalar] = {}
                for k, ck in row_i[j]:
                    for r, e in h_cols[k]:
                        add = ck * e
                        lhs[r] = lhs[r] + add if r in lhs else add
                rhs: dict[int, Scalar] = {}
                for left, h2_cols in lefts:
                    add_product(rhs, left, h2_cols[j])
                if lhs != rhs and sparse_diff(lhs, rhs, ctx) is not None:
                    yield h, i, j


def check_algebra(a: FinDimAlgebra, report: VerificationReport | None = None, prefix: str = "algebra") -> VerificationReport:
    """Associativity on all basis triples and both unit laws."""
    rep = report if report is not None else VerificationReport()
    z = a.ctx.zero()
    rep.check(f"{prefix}/associativity", (
        {"triple": [i, j, k], "residual": [lhs.get(s, z) - rhs.get(s, z) for s in range(a.dim)]}
        for i, j, k, lhs, rhs in associativity_failures(a)))
    rep.check(f"{prefix}/unit-laws", ({"index": i} for i in unit_failures(a)))
    return rep


def check_coalgebra(c: FinDimCoalgebra, report: VerificationReport | None = None, prefix: str = "coalgebra") -> VerificationReport:
    """Coassociativity and counit laws on every basis element."""
    rep = report if report is not None else VerificationReport()
    # the right counit law is the left one of the opposite comultiplication
    opposite = [[(k, j, x) for j, k, x in terms] for terms in c.comult]
    rep.check(f"{prefix}/coassociativity", (
        {"index": i, "tensor_index": list(key)} for i, key in coassociativity_failures(c, c.comult)))
    rep.check(f"{prefix}/counit-laws", (
        {"index": i} for i in merge(counit_failures(c, c.comult), counit_failures(c, opposite))))
    return rep


def check_bialgebra(a: FinDimAlgebra, c: FinDimCoalgebra, report: VerificationReport | None = None, prefix: str = "bialgebra") -> VerificationReport:
    """Algebra + coalgebra axioms plus multiplicativity of Delta and
    the counit on all basis pairs."""
    rep = report if report is not None else VerificationReport()
    check_algebra(a, rep, prefix=f"{prefix}/algebra")
    check_coalgebra(c, rep, prefix=f"{prefix}/coalgebra")

    def counit_multiplicative():
        for i in range(a.dim):
            for j in range(a.dim):
                if c.counit_vec(a.mult[i][j]) != c.counit[i] * c.counit[j]:
                    yield {"pair": [i, j]}
        if c.counit_vec(a.unit) != a.ctx.one():
            yield {"pair": "unit"}

    rep.check(f"{prefix}/comult-multiplicative", (
        {"pair": [i, j], "tensor_index": list(key)}
        for i, j, key in coaction_multiplicative_failures(a, a, c.comult)))
    rep.check(f"{prefix}/comult-unit", ({"tensor_index": list(key)} for key in coaction_unit_failures(a, a, c.comult)))
    rep.check(f"{prefix}/counit-multiplicative", counit_multiplicative())
    return rep


def convolution_failures(a: FinDimAlgebra, c: FinDimCoalgebra, s: Matrix, side: str):
    """Yield a witness at each basis element where m(S x id)Delta = u eps
    (side="left") or m(id x S)Delta = u eps fails."""
    one = a.ctx.one()
    s_cols = [s.col_terms(j) for j in range(a.dim)]
    for i in range(a.dim):
        acc: dict[int, Scalar] = {}
        for j, k, coeff in c.comult[i]:
            if side == "left":
                term = a.mult_terms(s_cols[j], [(k, one)])
            else:
                term = a.mult_terms([(j, one)], s_cols[k])
            for l, x in term:
                add = coeff * x
                acc[l] = acc[l] + add if l in acc else add
        target = {l: u * c.counit[i] for l, u in a.unit}
        if sparse_diff(acc, target, a.ctx) is not None:
            yield {"index": i, "side": side}


def solve_antipode(a: FinDimAlgebra, c: FinDimCoalgebra) -> Matrix:
    """The antipode S with m(S x id)Delta = u eps, by substitution along a
    triangular basis order when the host has one and otherwise by
    elimination; either way the right identity m(id x S)Delta = u eps is
    checked exactly.

    The host qualifies (`_triangular_order`) when, in some order of its
    basis, each Delta(e_i) has exactly one term c_i e_i x w_i with left leg
    e_i, w_i an exact grouplike basis element with a basis inverse, and
    every other left leg of Delta(e_i) comes earlier.  The left identity at
    e_i then reads c_i S(e_i) w_i + sum c S(e_j) e_k = eps(e_i) 1 over the
    other terms, so each S(e_i) is the one value
    c_i^-1 (eps(e_i) 1 - sum c S(e_j) e_k) w_i^-1 given the earlier ones:
    right multiplication by w_i is invertible in an associative algebra,
    so the system is triangular with invertible diagonal blocks and S is
    unique with no rank test.  kC_n, the braided line and the Taft algebra all
    qualify, along the x-degree.

    Raises NoAntipodeError when the system is inconsistent or leaves S
    undetermined (only the elimination can find either), or when the right
    identity fails."""
    order = _triangular_order(a, c)
    s = _antipode_by_elimination(a, c) if order is None else _antipode_by_substitution(a, c, order)
    witness = next(convolution_failures(a, c, s, "right"), None)
    if witness is not None:
        raise NoAntipodeError(f"solved antipode fails right convolution identity: {witness}")
    return s


def _triangular_order(a: FinDimAlgebra, c: FinDimCoalgebra) -> list[tuple[int, Scalar, int]] | None:
    """(i, c_i, v_i) for every basis index i, in an order that meets the
    rule of `solve_antipode`, with e_{v_i} = w_i^-1; None when there is
    no such order.  c_i != 0, as term lists hold no zero."""
    one = a.ctx.one()
    inverses: dict[int, int | None] = {}  # grouplike w -> the index of its inverse
    pivots, waiting, later = [], [], [[] for _ in range(a.dim)]
    for i, terms in enumerate(c.comult):
        diagonal = [(w, x) for j, w, x in terms if j == i]
        if len(diagonal) != 1:
            return None
        w, ci = diagonal[0]
        if w not in inverses:
            grouplike = c.comult[w] == [(w, w, one)] and c.counit[w] == one
            inverses[w] = next((v for v in range(a.dim) if grouplike
                                and a.mult[w][v] == a.unit == a.mult[v][w]), None)
        if inverses[w] is None:
            return None
        pivots.append((ci, inverses[w]))
        legs = {j for j, _, _ in terms if j != i}
        waiting.append(len(legs))
        for j in legs:
            later[j].append(i)
    # place each index once every other left leg of its coproduct is placed
    order = [i for i in range(a.dim) if not waiting[i]]
    for j in order:
        for i in later[j]:
            waiting[i] -= 1
            if not waiting[i]:
                order.append(i)
    if len(order) < a.dim:
        return None
    return [(i, *pivots[i]) for i in order]


def _antipode_by_substitution(a: FinDimAlgebra, c: FinDimCoalgebra, order) -> Matrix:
    """S(e_i) = c_i^-1 (eps(e_i) 1 - sum c S(e_j) e_k) w_i^-1 along the
    order of `_triangular_order`, the sum over the terms of Delta(e_i)
    other than c_i e_i x w_i."""
    one = a.ctx.one()
    cols: dict[int, list[tuple[int, Scalar]]] = {}
    for i, ci, v in order:
        acc = {l: u * c.counit[i] for l, u in a.unit}
        for j, k, x in c.comult[i]:
            if j != i:
                neg = -x
                a.add_product(acc, [(l, neg * s) for l, s in cols[j]], [(k, one)])
        inv = ci.inv()
        cols[i] = a.mult_terms([(l, inv * y) for l, y in acc.items()], [(v, one)])
    return Matrix(a.ctx, a.dim, a.dim, ((l, i, y) for i, col in cols.items() for l, y in col))


def _antipode_by_elimination(a: FinDimAlgebra, c: FinDimCoalgebra) -> Matrix:
    """S from the reduced form of the dim^2 x (dim^2 + 1) left convolution
    system; raises NoAntipodeError when it is inconsistent or leaves S
    undetermined."""
    ctx = a.ctx
    dim = a.dim
    n_unknowns = dim * dim  # S[l][j] at column index l * dim + j; the last column is the rhs
    # row i * dim + p: the e_p coefficient of the identity at e_i
    terms = [(i * dim + p, l * dim + j, coeff * m)
             for i in range(dim) for j, k, coeff in c.comult[i]
             for l in range(dim) for p, m in a.mult[l][k]]
    terms += [(i * dim + p, n_unknowns, u * c.counit[i]) for i in range(dim) for p, u in a.unit]
    # one elimination decides all three: the system is consistent iff the
    # rhs column is no pivot, the solution unique iff every unknown is a
    # pivot, and then row u of the reduced matrix ends in unknown u
    red, pivots = rref(Matrix(ctx, dim * dim, n_unknowns + 1, terms))
    if n_unknowns in pivots:
        raise NoAntipodeError("antipode convolution system is inconsistent")
    if len(pivots) != n_unknowns:
        raise NoAntipodeError("antipode is not unique; convolution system is degenerate")
    return Matrix(ctx, dim, dim, ((u // dim, u % dim, x) for u, x in red.col_terms(n_unknowns)))


def check_hopf(h: FinDimHopf, report: VerificationReport | None = None, prefix: str = "hopf") -> VerificationReport:
    rep = report if report is not None else VerificationReport()
    check_bialgebra(h.algebra, h.coalgebra, rep, prefix=f"{prefix}/bialgebra")
    for side in ("left", "right"):
        rep.check(f"{prefix}/antipode-{side}", convolution_failures(h.algebra, h.coalgebra, h.antipode, side))
    return rep


def tensor_algebra(a: FinDimAlgebra, b: FinDimAlgebra) -> FinDimAlgebra:
    """Componentwise product on basis e_i x f_j with kron indexing."""
    if a.ctx.conductor != b.ctx.conductor:
        raise ValueError("mixed field contexts")
    nb = b.dim
    mult = [[[(p * nb + q, ca * cb) for p, ca in a.mult[i][k] for q, cb in b.mult[j][l]]
             for k in range(a.dim) for l in range(nb)]
            for i in range(a.dim) for j in range(nb)]
    unit = [(p * nb + q, ca * cb) for p, ca in a.unit for q, cb in b.unit]
    return FinDimAlgebra(a.ctx, a.dim * nb, mult, unit)
