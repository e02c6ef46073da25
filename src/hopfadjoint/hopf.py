"""Finite-dimensional algebras, coalgebras and Hopf algebras by
structure constants, with exhaustive axiom checkers and antipode
solving.

Structure constants are stored once, as sorted zero-free term lists;
checkers iterate over all basis tuples and report exact pass/fail with
witnesses.  Antipodes are never transcribed from formulas: they are
solved from the convolution identity, which independently validates
every construction.
"""

from __future__ import annotations

from .cyclotomic import FieldContext, Scalar
from .linalg import (Matrix, dense, nonzero, rref, sorted_terms, sparse_diff, unit_vector, vec_eq,
                     zeros)
from .reports import VerificationReport


class NoAntipodeError(Exception):
    """The convolution system for the antipode is inconsistent."""


class FinDimAlgebra:
    """Algebra with mult[i][j] the term list [(k, c), ...] of e_i * e_j:
    ascending in k, no zero coefficient."""

    def __init__(self, ctx: FieldContext, dim: int, mult, unit):
        self.ctx = ctx
        self.dim = dim
        self.mult = mult
        self.unit = list(unit)

    def mult_terms(self, u_terms, v_terms) -> list[tuple[int, Scalar]]:
        """The term list of u * v for the elements with these (index,
        coefficient) terms: ascending, no zero coefficient."""
        acc: dict[int, Scalar] = {}
        for i, ui in u_terms:
            row = self.mult[i]
            for j, vj in v_terms:
                c = ui * vj
                for k, m in row[j]:
                    add = c * m
                    acc[k] = acc[k] + add if k in acc else add
        return sorted_terms(acc)

    def mult_vec(self, u: list[Scalar], v: list[Scalar]) -> list[Scalar]:
        return dense(self.ctx, self.dim, self.mult_terms(nonzero(u), nonzero(v)))

    def basis_vec(self, i: int) -> list[Scalar]:
        return unit_vector(self.ctx, self.dim, i)

    def left_mult_matrix(self, u: list[Scalar]) -> Matrix:
        return Matrix(self.ctx, self.dim, self.dim,
                      ((k, j, ui * m) for i, ui in nonzero(u)
                       for j, terms in enumerate(self.mult[i]) for k, m in terms))


class FinDimCoalgebra:
    """Coalgebra with comult[i] the term list [(j, k, c), ...] of
    Delta(e_i), the coefficient c of e_j x e_k: ascending in (j, k), no
    zero coefficient.  counit is a linear functional on the basis."""

    def __init__(self, ctx: FieldContext, dim: int, comult, counit):
        self.ctx = ctx
        self.dim = dim
        self.comult = comult
        self.counit = list(counit)
        self._delta2: dict[int, list[tuple[int, int, int, Scalar]]] = {}

    def delta2_terms(self, i: int) -> list[tuple[int, int, int, Scalar]]:
        """Terms of (Delta x id) Delta(e_i)."""
        cached = self._delta2.get(i)
        if cached is None:
            acc: dict[tuple[int, int, int], Scalar] = {}
            for j, k, c in self.comult[i]:
                for a, b, d in self.comult[j]:
                    key = (a, b, k)
                    coeff = c * d
                    if key in acc:
                        acc[key] = acc[key] + coeff
                    else:
                        acc[key] = coeff
            cached = [(a, b, k, v) for (a, b, k), v in sorted(acc.items()) if not v.is_zero()]
            self._delta2[i] = cached
        return cached

    def delta_vec(self, terms) -> dict[tuple[int, int], Scalar]:
        """Delta of the element with these (index, coefficient) terms, as
        a sparse tensor without zeros."""
        acc: dict[tuple[int, int], Scalar] = {}
        for i, ui in terms:
            for j, k, c in self.comult[i]:
                key = (j, k)
                coeff = ui * c
                if key in acc:
                    acc[key] = acc[key] + coeff
                else:
                    acc[key] = coeff
        return {k: v for k, v in acc.items() if not v.is_zero()}

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

    def antipode_vec(self, u: list[Scalar]) -> list[Scalar]:
        return self.antipode.apply(u)

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
            "unit": self.algebra.unit,
            "comult": comult,
            "counit": self.coalgebra.counit,
            "antipode": self.antipode,
        }


def check_algebra(a: FinDimAlgebra, report: VerificationReport | None = None, prefix: str = "algebra") -> VerificationReport:
    """Associativity on all basis triples and both unit laws."""
    rep = report if report is not None else VerificationReport()

    def associativity():
        z = a.ctx.zero()
        mult = a.mult
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    lhs: dict[int, Scalar] = {}  # (e_i e_j) e_k
                    for t, c in mult[i][j]:
                        for s, d in mult[t][k]:
                            lhs[s] = lhs.get(s, z) + c * d
                    rhs: dict[int, Scalar] = {}  # e_i (e_j e_k)
                    for t, c in mult[j][k]:
                        for s, d in mult[i][t]:
                            rhs[s] = rhs.get(s, z) + c * d
                    if sparse_diff(lhs, rhs, a.ctx) is not None:
                        yield {"triple": [i, j, k],
                               "residual": [lhs.get(s, z) - rhs.get(s, z) for s in range(a.dim)]}

    def unit_laws():
        for i in range(a.dim):
            ei = a.basis_vec(i)
            if not vec_eq(a.mult_vec(a.unit, ei), ei) or not vec_eq(a.mult_vec(ei, a.unit), ei):
                yield {"index": i}

    rep.check(f"{prefix}/associativity", associativity())
    rep.check(f"{prefix}/unit-laws", unit_laws())
    return rep


def check_coalgebra(c: FinDimCoalgebra, report: VerificationReport | None = None, prefix: str = "coalgebra") -> VerificationReport:
    """Coassociativity and counit laws on every basis element."""
    rep = report if report is not None else VerificationReport()
    z = c.ctx.zero()

    def coassociativity():
        for i in range(c.dim):
            left: dict[tuple[int, int, int], Scalar] = {}
            for j, k, coeff in c.comult[i]:
                for a, b, d in c.comult[j]:
                    key = (a, b, k)
                    left[key] = left.get(key, z) + coeff * d
            right: dict[tuple[int, int, int], Scalar] = {}
            for j, k, coeff in c.comult[i]:
                for a, b, d in c.comult[k]:
                    key = (j, a, b)
                    right[key] = right.get(key, z) + coeff * d
            key = sparse_diff(left, right, c.ctx)
            if key is not None:
                yield {"index": i, "tensor_index": list(key)}

    def counit_laws():
        for i in range(c.dim):
            lvec = zeros(c.ctx, c.dim)
            rvec = zeros(c.ctx, c.dim)
            for j, k, coeff in c.comult[i]:
                lvec[k] = lvec[k] + coeff * c.counit[j]
                rvec[j] = rvec[j] + coeff * c.counit[k]
            ei = unit_vector(c.ctx, c.dim, i)
            if not vec_eq(lvec, ei) or not vec_eq(rvec, ei):
                yield {"index": i}

    rep.check(f"{prefix}/coassociativity", coassociativity())
    rep.check(f"{prefix}/counit-laws", counit_laws())
    return rep


def check_bialgebra(a: FinDimAlgebra, c: FinDimCoalgebra, report: VerificationReport | None = None, prefix: str = "bialgebra") -> VerificationReport:
    """Algebra + coalgebra axioms plus multiplicativity of Delta and
    the counit on all basis pairs."""
    rep = report if report is not None else VerificationReport()
    check_algebra(a, rep, prefix=f"{prefix}/algebra")
    check_coalgebra(c, rep, prefix=f"{prefix}/coalgebra")
    z = a.ctx.zero()

    def comult_multiplicative():
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = c.delta_vec(a.mult[i][j])
                rhs: dict[tuple[int, int], Scalar] = {}
                for p, q, cc in c.comult[i]:
                    for r, s, dd in c.comult[j]:
                        coeff = cc * dd
                        for x, m1 in a.mult[p][r]:
                            for y, m2 in a.mult[q][s]:
                                key = (x, y)
                                rhs[key] = rhs.get(key, z) + coeff * m1 * m2
                key = sparse_diff(lhs, rhs, a.ctx)
                if key is not None:
                    yield {"pair": [i, j], "tensor_index": list(key)}

    def comult_unit():
        unit = nonzero(a.unit)
        expect = {(i, j): ui * uj for i, ui in unit for j, uj in unit}
        key = sparse_diff(c.delta_vec(unit), expect, a.ctx)
        if key is not None:
            yield {"tensor_index": list(key)}

    def counit_multiplicative():
        for i in range(a.dim):
            for j in range(a.dim):
                if c.counit_vec(a.mult[i][j]) != c.counit[i] * c.counit[j]:
                    yield {"pair": [i, j]}
        if c.counit_vec(nonzero(a.unit)) != a.ctx.one():
            yield {"pair": "unit"}

    rep.check(f"{prefix}/comult-multiplicative", comult_multiplicative())
    rep.check(f"{prefix}/comult-unit", comult_unit())
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
        target = {l: u * c.counit[i] for l, u in nonzero(a.unit)}
        if sparse_diff(acc, target, a.ctx) is not None:
            yield {"index": i, "side": side}


def solve_antipode(a: FinDimAlgebra, c: FinDimCoalgebra) -> Matrix:
    """Solve m(S x id)Delta = u eps for the matrix S, verify uniqueness
    and the right-handed identity m(id x S)Delta = u eps.

    Raises NoAntipodeError when the linear system is inconsistent or
    leaves S undetermined."""
    ctx = a.ctx
    dim = a.dim
    n_unknowns = dim * dim  # S[l][j] at column index l * dim + j; the last column is the rhs
    # row i * dim + p: the e_p coefficient of the identity at e_i
    terms = [(i * dim + p, l * dim + j, coeff * m)
             for i in range(dim) for j, k, coeff in c.comult[i]
             for l in range(dim) for p, m in a.mult[l][k]]
    terms += [(i * dim + p, n_unknowns, a.unit[p] * c.counit[i])
              for i in range(dim) for p in range(dim)]
    # one elimination decides all three: the system is consistent iff the
    # rhs column is no pivot, the solution unique iff every unknown is a
    # pivot, and then row u of the reduced matrix ends in unknown u
    red, pivots = rref(Matrix(ctx, dim * dim, n_unknowns + 1, terms))
    if n_unknowns in pivots:
        raise NoAntipodeError("antipode convolution system is inconsistent")
    if len(pivots) != n_unknowns:
        raise NoAntipodeError("antipode is not unique; convolution system is degenerate")
    s = Matrix(ctx, dim, dim, ((u // dim, u % dim, x) for u, x in red.col_terms(n_unknowns)))
    witness = next(convolution_failures(a, c, s, "right"), None)
    if witness is not None:
        raise NoAntipodeError(f"solved antipode fails right convolution identity: {witness}")
    return s


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
    unit = dense(a.ctx, a.dim * nb, [(p * nb + q, ca * cb) for p, ca in nonzero(a.unit)
                                     for q, cb in nonzero(b.unit)])
    return FinDimAlgebra(a.ctx, a.dim * nb, mult, unit)


def dual_algebra(c: FinDimCoalgebra) -> FinDimAlgebra:
    """Convolution algebra on the dual basis; the unit is the counit."""
    mult = [[[] for _ in range(c.dim)] for _ in range(c.dim)]
    for k, terms in enumerate(c.comult):
        for i, j, coeff in terms:
            mult[i][j].append((k, coeff))
    return FinDimAlgebra(c.ctx, c.dim, mult, list(c.counit))
