"""Exact matrices over cyclotomic scalars, eliminated on sparse rows.

The vector helpers shared by every checker, row-reduced echelon form,
kernels, subspace coordinates and Kronecker products; all arithmetic is
exact, all outputs deterministic.  The Kronecker index convention is
(i tensor j) -> i * dim_b + j everywhere.
"""

from __future__ import annotations

from .cyclotomic import FieldContext, Scalar


def zeros(ctx: FieldContext, n: int) -> list[Scalar]:
    return [ctx.zero()] * n


def unit_vector(ctx: FieldContext, n: int, i: int) -> list[Scalar]:
    v = zeros(ctx, n)
    v[i] = ctx.one()
    return v


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


def vec_eq(u: list[Scalar], v: list[Scalar]) -> bool:
    """Dense vectors agree entrywise (over the shorter length)."""
    return all(a == b for a, b in zip(u, v))


def sparse_diff(x: dict, y: dict, ctx: FieldContext):
    """First key, in the order of set(x) | set(y), at which the sparse
    vectors x and y differ, or None when they are equal."""
    z = ctx.zero()
    for key in set(x) | set(y):
        if x.get(key, z) != y.get(key, z):
            return key
    return None


class Matrix:
    """Row-major dense matrix of Scalars sharing one FieldContext."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx: FieldContext, rows: int, cols: int, entries: list[Scalar]):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def zero(cls, ctx: FieldContext, rows: int, cols: int) -> "Matrix":
        z = ctx.zero()
        return cls(ctx, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, ctx: FieldContext, n: int) -> "Matrix":
        z, o = ctx.zero(), ctx.one()
        entries = [z] * (n * n)
        for i in range(n):
            entries[i * n + i] = o
        return cls(ctx, n, n, entries)

    @classmethod
    def from_rows(cls, ctx: FieldContext, rows: list[list[Scalar]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        flat: list[Scalar] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(ctx, nrows, ncols, flat)

    def __getitem__(self, idx: tuple[int, int]) -> Scalar:
        i, j = idx
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Scalar]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list[Scalar]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self) -> list[list[Scalar]]:
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.ctx.conductor != other.ctx.conductor:
            raise ValueError(
                f"mixed field contexts: Q(zeta_{self.ctx.conductor}) vs Q(zeta_{other.ctx.conductor})"
            )
        return vec_eq(self.entries, other.entries)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over Q(zeta_{self.ctx.conductor}))"

    def transpose(self) -> "Matrix":
        e = self.entries
        out = [e[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.ctx, self.cols, self.rows, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            self.ctx,
            self.rows,
            self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            self.ctx,
            self.rows,
            self.cols,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ctx = self.ctx
        z = ctx.zero()
        out = [z] * (self.rows * other.cols)
        oc = other.cols
        # the nonzero terms of each row of other, read once
        brows = [nonzero(other.row(k)) for k in range(other.rows)]
        for i in range(self.rows):
            base = i * oc
            for k, aik in nonzero(self.row(i)):
                for j, bkj in brows[k]:
                    out[base + j] = out[base + j] + aik * bkj
        return Matrix(ctx, self.rows, other.cols, out)

    def apply(self, vec: list[Scalar]) -> list[Scalar]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return self.apply_terms(nonzero(vec))

    def apply_terms(self, terms) -> list[Scalar]:
        """Matrix times the vector with these (index, coefficient) terms."""
        out = [self.ctx.zero()] * self.rows
        for k, vk in terms:
            for i in range(self.rows):
                e = self.entries[i * self.cols + k]
                if not e.is_zero():
                    out[i] = out[i] + e * vk
        return out

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)


def _sparse_rows(m: Matrix) -> list[dict[int, Scalar]]:
    """The rows of m as zero-free {col: Scalar} dicts."""
    e, nc = m.entries, m.cols
    z = m.ctx.zero()  # the shared zero is skipped by identity, other zeros by value
    return [{c: x for c, x in enumerate(e[i * nc : (i + 1) * nc]) if x is not z and not x.is_zero()}
            for i in range(m.rows)]


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


def _eliminate(rows: list[dict[int, Scalar]]) -> tuple[list[dict[int, Scalar]], tuple[int, ...]]:
    """The sparse core of every elimination: the nonzero rows of the
    reduced row-echelon form of these zero-free {col: Scalar} rows, in
    pivot order, and their pivot columns.  Each returned row leaves its
    pivot entry 1 implicit.  The input rows are consumed.

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
    position = {c: i for i, c in enumerate(pivots)}
    for row in reversed(pivot_rows):
        for cc in [cc for cc in row if cc in position]:
            _add_multiple(row, -row.pop(cc), pivot_rows[position[cc]])
    return pivot_rows, tuple(pivots)


def _dense_rows(ctx: FieldContext, ncols: int, pivot_rows, pivots) -> list[list[Scalar]]:
    """The dense rows of _eliminate's output, with their pivot entries 1."""
    return [dense(ctx, ncols, [(c, ctx.one()), *row.items()]) for row, c in zip(pivot_rows, pivots)]


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Row-reduced echelon form with pivots normalised to 1: the reduced
    rows first, then zero rows, and the pivot columns."""
    if not m.rows:
        return m, ()
    red, pivots = _eliminate(_sparse_rows(m))
    entries = [x for v in _dense_rows(m.ctx, m.cols, red, pivots) for x in v]
    entries += [m.ctx.zero()] * ((m.rows - len(pivots)) * m.cols)
    return Matrix(m.ctx, m.rows, m.cols, entries), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


class SubspaceBasis:
    """Basis of a subspace of k^ambient_dim in reduced echelon form."""

    __slots__ = ("ctx", "ambient_dim", "vectors", "pivots")

    def __init__(self, ctx: FieldContext, ambient_dim: int, vectors: list[list[Scalar]], pivots: tuple[int, ...]):
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.vectors = vectors
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim {self.dim} in k^{self.ambient_dim})"

    @classmethod
    def from_spanning(cls, ctx: FieldContext, ambient_dim: int, vectors: list[list[Scalar]]) -> "SubspaceBasis":
        if not vectors:
            return cls(ctx, ambient_dim, [], ())
        red, pivots = rref(Matrix.from_rows(ctx, vectors))
        rows = [red.row(i) for i in range(len(pivots))]
        return cls(ctx, ambient_dim, rows, pivots)


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Echelonised basis of the right kernel of m."""
    red, pivots = _eliminate(_sparse_rows(m))
    one = m.ctx.one()
    pivot_set = set(pivots)
    # free column f gives e_f - sum_i red[i, f] e_{pivots[i]}
    kernel = {f: {f: one} for f in range(m.cols) if f not in pivot_set}
    for row, pc in zip(red, pivots):
        for f, x in row.items():
            kernel[f][pc] = -x
    basis, basis_pivots = _eliminate(list(kernel.values()))
    return SubspaceBasis(m.ctx, m.cols, _dense_rows(m.ctx, m.cols, basis, basis_pivots), basis_pivots)


def coords_in_basis(v: list[Scalar], b: SubspaceBasis) -> list[Scalar] | None:
    """Coordinates of v in the echelon basis b, or None when v is not in
    the span (the NotInSubspace signal)."""
    if len(v) != b.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    coords = [v[pc] for pc in b.pivots]
    residual = list(v)
    for c, vec in zip(coords, b.vectors):
        if c.is_zero():
            continue
        for i, e in enumerate(vec):
            if not e.is_zero():
                residual[i] = residual[i] - c * e
    if any(not e.is_zero() for e in residual):
        return None
    return coords


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with (i tensor j) -> i * dim_b + j indexing."""
    if a.ctx.conductor != b.ctx.conductor:
        raise ValueError("mixed field contexts in kron")
    ctx = a.ctx
    z = ctx.zero()
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [z] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a[i, j]
            if aij.is_zero():
                continue
            for k in range(b.rows):
                base = (i * b.rows + k) * cols + j * b.cols
                off = k * b.cols
                for l in range(b.cols):
                    e = b.entries[off + l]
                    if not e.is_zero():
                        out[base + l] = aij * e
    return Matrix(ctx, rows, cols, out)


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    ident = Matrix.identity(m.ctx, n)
    aug_rows = [m.row(i) + ident.row(i) for i in range(n)]
    red, pivots = rref(Matrix.from_rows(m.ctx, aug_rows))
    if tuple(pivots) != tuple(range(n)):
        return None
    rows = [red.row(i)[n:] for i in range(n)]
    return Matrix.from_rows(m.ctx, rows)
