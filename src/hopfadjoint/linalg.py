"""Exact sparse matrices over cyclotomic scalars.

`Matrix` stores one zero-free {col: Scalar} dict per row and nothing
else: it is built from (row, col, coefficient) terms and read as row or
column term lists, and its products, Kronecker sums and eliminations
run over the nonzeros only.  Serialisation reads `terms()`; the dense
`entries` view is read only by the tests and by the bench's traced
nonzero count, and stays until that count reads `terms()` too.  A
`SubspaceBasis` keeps the zero-free echelon rows that elimination
returns, and coordinates in it are read at its pivots.  Vectors are term
lists, ascending (index, coefficient) pairs without zeros, everywhere
between the model build and the JSON; a dense list is built only for a
field that the JSON writes.  This module also holds the vector helpers
shared by every checker.  All arithmetic is exact, all outputs
deterministic.  The Kronecker index convention is (i tensor j) ->
i * dim_b + j everywhere.
"""

from __future__ import annotations

from .cyclotomic import FieldContext, Scalar


def zeros(ctx: FieldContext, n: int) -> list[Scalar]:
    return [ctx.zero()] * n


def nonzero(v: list[Scalar]) -> list[tuple[int, Scalar]]:
    """The term list of a dense vector: its nonzero entries as
    ascending (index, coefficient) pairs."""
    return [(i, c) for i, c in enumerate(v) if not c.is_zero()]


def dense(ctx: FieldContext, n: int, terms) -> list[Scalar]:
    """The dense vector of length n with these (index, coefficient) terms."""
    v = zeros(ctx, n)
    for i, c in terms:
        v[i] = c
    return v


def sorted_terms(acc: dict) -> list:
    """The (key, coefficient) pairs of a sparse accumulator, ascending in
    key, without zeros."""
    return [(k, c) for k, c in sorted(acc.items()) if not c.is_zero()]


def lincomb(pairs) -> list[tuple[int, Scalar]]:
    """The term list of the sum of c * v over the (c, v) pairs, each v a
    term list: ascending, no zero coefficient."""
    acc: dict[int, Scalar] = {}
    for c, v in pairs:
        for i, x in v:
            add = c * x
            acc[i] = acc[i] + add if i in acc else add
    return sorted_terms(acc)


def sparse_diff(x: dict, y: dict, ctx: FieldContext):
    """First key, in the order of set(x) | set(y), at which the sparse
    vectors x and y differ, or None when they are equal."""
    z = ctx.zero()
    for key in set(x) | set(y):
        if x.get(key, z) != y.get(key, z):
            return key
    return None


class Matrix:
    """Exact rows x cols matrix of Scalars sharing one FieldContext.

    The one storage is a zero-free {col: Scalar} dict per row.  A matrix
    is built from (row, col, coefficient) terms, whose duplicates are
    summed and whose zeros are dropped, and is read as ascending row or
    column term lists; `entries` is a dense row-major view that only the
    tests and the bench's traced nonzero count read."""

    __slots__ = ("ctx", "rows", "cols", "_rows")

    def __init__(self, ctx: FieldContext, rows: int, cols: int, terms=()):
        acc: list[dict[int, Scalar]] = [{} for _ in range(rows)]
        for i, j, c in terms:
            row = acc[i]
            row[j] = row[j] + c if j in row else c
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self._rows = [_zero_free(row) for row in acc]

    @classmethod
    def _of_rows(cls, ctx: FieldContext, cols: int, rows: list[dict[int, Scalar]]) -> "Matrix":
        """The matrix with these zero-free row dicts, taken over as they are."""
        m = cls.__new__(cls)
        m.ctx, m.rows, m.cols, m._rows = ctx, len(rows), cols, rows
        return m

    @classmethod
    def identity(cls, ctx: FieldContext, n: int) -> "Matrix":
        one = ctx.one()
        return cls._of_rows(ctx, n, [{i: one} for i in range(n)])

    def row_terms(self, i: int) -> list[tuple[int, Scalar]]:
        return sorted(self._rows[i].items())

    def col_terms(self, j: int) -> list[tuple[int, Scalar]]:
        return [(i, row[j]) for i, row in enumerate(self._rows) if j in row]

    def terms(self) -> list[tuple[int, int, Scalar]]:
        """Every nonzero entry as (row, col, coefficient), row-major."""
        return [(i, j, c) for i, row in enumerate(self._rows) for j, c in sorted(row.items())]

    @property
    def entries(self) -> list[Scalar]:
        """Dense row-major view, every absent entry the one ctx.zero()."""
        out = zeros(self.ctx, self.rows * self.cols)
        for i, row in enumerate(self._rows):
            for j, c in row.items():
                out[i * self.cols + j] = c
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.ctx.conductor != other.ctx.conductor:
            raise ValueError(
                f"mixed field contexts: Q(zeta_{self.ctx.conductor}) vs Q(zeta_{other.ctx.conductor})"
            )
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over Q(zeta_{self.ctx.conductor}))"

    def transpose(self) -> "Matrix":
        out: list[dict[int, Scalar]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._rows):
            for j, c in row.items():
                out[j][i] = c
        return Matrix._of_rows(self.ctx, self.rows, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.ctx, self.rows, self.cols, self.terms() + other.terms())

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Row by row over the nonzeros (Gustavson, 1978)."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        brows = other._rows
        out = []
        for arow in self._rows:
            acc: dict[int, Scalar] = {}
            for k, a in arow.items():
                for j, b in brows[k].items():
                    ab = a * b
                    acc[j] = acc[j] + ab if j in acc else ab
            out.append(_zero_free(acc))
        return Matrix._of_rows(self.ctx, other.cols, out)

    def apply_terms(self, terms) -> list[tuple[int, Scalar]]:
        """The term list of the matrix times the vector with these (index,
        coefficient) terms: ascending, no zero coefficient."""
        v = dict(terms)
        out = []
        for i, row in enumerate(self._rows):
            acc = None
            for j, c in row.items():
                x = v.get(j)
                if x is not None:
                    acc = c * x if acc is None else acc + c * x
            if acc is not None and not acc.is_zero():
                out.append((i, acc))
        return out


def _zero_free(row: dict[int, Scalar]) -> dict[int, Scalar]:
    return {j: c for j, c in row.items() if not c.is_zero()}


def _add_multiple(target: dict[int, Scalar], f: Scalar, source: dict[int, Scalar]) -> None:
    """target += f * source in place, dropping the entries that cancel."""
    for c, x in source.items():
        old = target.get(c)
        if old is None:
            target[c] = f * x
        else:
            new = old + f * x
            if not new.is_zero():
                target[c] = new
            else:
                del target[c]


def _eliminate(ctx: FieldContext, rows: list[dict[int, Scalar]]) -> tuple[list[dict[int, Scalar]], tuple[int, ...]]:
    """The sparse core of every elimination: the nonzero rows of the
    reduced row-echelon form of these zero-free {col: Scalar} rows, in
    pivot order, and their pivot columns.  The input rows are consumed.

    Columns are taken left to right.  Of the rows not yet used as pivots
    that have an entry in the column, the one with the fewest entries
    (then the lowest index) is scaled to pivot 1 and eliminated from the
    others, as in structured Gaussian elimination; a column index finds
    those rows.  Back substitution from the last pivot up then reduces
    every pivot row, so the result is the unique RREF whatever pivots
    were chosen.
    """
    # column -> rows that have or had an entry there; fill-in only ever
    # lands in columns some input row has
    index: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            index.setdefault(c, set()).add(r)
    pivot_rows: list[dict[int, Scalar]] = []
    pivots: list[int] = []
    for c in sorted(index):
        cands = [r for r in index.pop(c) if c in rows[r]]
        if not cands:
            continue
        p = min(cands, key=lambda r: (len(rows[r]), r))
        prow, rows[p] = rows[p], {}
        lead = prow.pop(c)
        if not lead.is_one():
            linv = lead.inv()
            prow = {cc: x * linv for cc, x in prow.items()}
        for r in cands:
            if r != p:
                target = rows[r]
                _add_multiple(target, -target.pop(c), prow)
                for cc in prow:
                    index[cc].add(r)
        pivot_rows.append(prow)
        pivots.append(c)
    # each pivot row leaves its pivot entry 1 implicit until the end
    position = {c: i for i, c in enumerate(pivots)}
    for row in reversed(pivot_rows):
        for cc in [cc for cc in row if cc in position]:
            _add_multiple(row, -row.pop(cc), pivot_rows[position[cc]])
    one = ctx.one()
    for row, c in zip(pivot_rows, pivots):
        row[c] = one
    return pivot_rows, tuple(pivots)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Row-reduced echelon form with pivots normalised to 1: the reduced
    rows first, then zero rows, and the pivot columns."""
    red, pivots = _eliminate(m.ctx, [dict(row) for row in m._rows])
    return Matrix._of_rows(m.ctx, m.cols, red + [{} for _ in range(m.rows - len(pivots))]), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


class SubspaceBasis:
    """Basis of a subspace of k^ambient_dim in reduced echelon form: one
    zero-free {index: Scalar} dict per basis vector, vector i with entry 1
    at pivots[i] and no entry at any other pivot."""

    __slots__ = ("ctx", "ambient_dim", "rows", "pivots")

    def __init__(self, ctx: FieldContext, ambient_dim: int, rows: list[dict[int, Scalar]], pivots: tuple[int, ...]):
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim {self.dim} in k^{self.ambient_dim})"


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Echelonised basis of the right kernel of m."""
    ctx = m.ctx
    red, pivots = _eliminate(ctx, [dict(row) for row in m._rows])
    one = ctx.one()
    pivot_set = set(pivots)
    # free column f gives e_f - sum_i red[i, f] e_{pivots[i]}
    kernel = {f: {f: one} for f in range(m.cols) if f not in pivot_set}
    for row, pc in zip(red, pivots):
        for f, x in row.items():
            if f != pc:
                kernel[f][pc] = -x
    basis, basis_pivots = _eliminate(ctx, list(kernel.values()))
    return SubspaceBasis(ctx, m.cols, basis, basis_pivots)


def coords_of_terms(v: dict[int, Scalar], b: SubspaceBasis) -> list[Scalar] | None:
    """Coordinates in the echelon basis b of the sparse vector v, an
    {index: Scalar} dict that may hold zeros, or None when v is not in
    the span (the NotInSubspace signal).  b is reduced, so the
    coordinates are the entries of v at the pivots; the residual
    v - sum c_i b_i is formed over the nonzeros only."""
    residual = _zero_free(v)
    z = b.ctx.zero()
    coords = [residual.get(pc, z) for pc in b.pivots]
    for c, row in zip(coords, b.rows):
        if c is not z:
            _add_multiple(residual, -c, row)
    return None if residual else coords


def kron_sum(terms) -> Matrix:
    """The sum of c * (a kron b) over at least one (c, a, b) term, all of
    one shape, with (i tensor k) -> i * dim_b + k indexing."""
    _, a0, b0 = terms[0]
    rb, cb = b0.rows, b0.cols
    out: list[dict[int, Scalar]] = [{} for _ in range(a0.rows * rb)]
    for c, a, b in terms:
        brows = b._rows
        for i, arow in enumerate(a._rows):
            for j, x in arow.items():
                cx = c * x
                for k, brow in enumerate(brows):
                    acc = out[i * rb + k]
                    for l, y in brow.items():
                        col, v = j * cb + l, cx * y
                        acc[col] = acc[col] + v if col in acc else v
    return Matrix._of_rows(a0.ctx, a0.cols * cb, [_zero_free(row) for row in out])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with (i tensor j) -> i * dim_b + j indexing."""
    if a.ctx.conductor != b.ctx.conductor:
        raise ValueError("mixed field contexts in kron")
    return kron_sum([(a.ctx.one(), a, b)])


def flip_legs(m: Matrix, da: int, db: int) -> Matrix:
    """m composed with the flip A x B -> B x A, a x b -> b x a: column
    a * db + b of the result is column b * da + a of m."""
    to = [(c % da) * db + c // da for c in range(da * db)]
    return Matrix._of_rows(m.ctx, m.cols, [{to[c]: x for c, x in row.items()} for row in m._rows])


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular: the reduced
    form of [m | 1]."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    one = m.ctx.one()
    red, pivots = _eliminate(m.ctx, [{**row, n + i: one} for i, row in enumerate(m._rows)])
    if pivots != tuple(range(n)):
        return None
    return Matrix._of_rows(m.ctx, n, [{j - n: x for j, x in row.items() if j >= n} for row in red])
