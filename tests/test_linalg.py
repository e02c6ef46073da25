import ast
from itertools import product
from pathlib import Path
import random

from hypothesis import given, settings, strategies as st
import pytest

import hopfadjoint

from hopfadjoint.adjoint import condition_system_reduced, problem_for
from hopfadjoint.constructions import comodule_algebra_K, taft_model
from hopfadjoint.cyclotomic import make_field, zeta_power
from hopfadjoint.hopf import leg_map
from hopfadjoint.linalg import (
    Matrix,
    coords_of_terms,
    dense,
    flip_legs,
    invert,
    kernel_basis,
    kron,
    kron_sum,
    lincomb,
    nonzero,
    rank,
    rref,
)
from support import from_rows, from_spanning

CTX = make_field(4)


class DenseMatrix:
    """The row-major dense matrix that Matrix replaced, kept as the oracle
    of its arithmetic."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx, rows, cols, entries):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def __eq__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.ctx.conductor != other.ctx.conductor:
            raise ValueError("mixed field contexts")
        return all(a == b for a, b in zip(self.entries, other.entries))

    def transpose(self):
        e = self.entries
        out = [e[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return DenseMatrix(self.ctx, self.cols, self.rows, out)

    def __add__(self, other):
        return DenseMatrix(self.ctx, self.rows, self.cols,
                           [a + b for a, b in zip(self.entries, other.entries)])

    def __mul__(self, other):
        z = self.ctx.zero()
        out = [z] * (self.rows * other.cols)
        for i in range(self.rows):
            for k in range(self.cols):
                aik = self[i, k]
                for j in range(other.cols):
                    out[i * other.cols + j] = out[i * other.cols + j] + aik * other[k, j]
        return DenseMatrix(self.ctx, self.rows, other.cols, out)

    def apply(self, vec):
        z = self.ctx.zero()
        out = [z] * self.rows
        for i in range(self.rows):
            for k in range(self.cols):
                out[i] = out[i] + self[i, k] * vec[k]
        return out

    def scale(self, c):
        return DenseMatrix(self.ctx, self.rows, self.cols, [c * e for e in self.entries])


def dense_kron(a, b):
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [a.ctx.zero()] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for l in range(b.cols):
                    out[(i * b.rows + k) * cols + j * b.cols + l] = a[i, j] * b[k, l]
    return DenseMatrix(a.ctx, rows, cols, out)


def rows_of(m):
    return [dense(m.ctx, m.cols, m.row_terms(i)) for i in range(m.rows)]


def dense_rref(m):
    """The dense Gauss-Jordan elimination that rref replaced, kept as its
    oracle: the first row with a nonzero entry pivots each column."""
    rows = [list(r) for r in rows_of(m)]
    nrows, ncols = m.rows, m.cols
    pivots = []
    pr = 0
    for pc in range(ncols):
        found = -1
        for r in range(pr, nrows):
            if not rows[r][pc].is_zero():
                found = r
                break
        if found < 0:
            continue
        rows[pr], rows[found] = rows[found], rows[pr]
        pivot = rows[pr][pc]
        if not pivot.is_one():
            pinv = pivot.inv()
            rows[pr] = [e * pinv for e in rows[pr]]
        prow = rows[pr]
        for r in range(nrows):
            if r == pr:
                continue
            f = rows[r][pc]
            if f.is_zero():
                continue
            target = rows[r]
            for c in range(pc, ncols):
                if not prow[c].is_zero():
                    target[c] = target[c] - f * prow[c]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return from_rows(m.ctx, rows) if nrows else m, tuple(pivots)


def coords(vectors):
    return [[e.coords for e in v] for v in vectors]


def term_coords(vectors):
    """The coordinates of term lists or {index: Scalar} dicts, ascending."""
    return [[(i, e.coords) for i, e in sorted(dict(v).items())] for v in vectors]


def dense_echelon(ctx, vectors):
    """Reduced echelon basis and pivots of the span of vectors, by dense_rref."""
    if not vectors:
        return [], ()
    red, pivots = dense_rref(from_rows(ctx, vectors))
    return rows_of(red)[:len(pivots)], pivots


def dense_kernel(m):
    """The kernel as kernel_basis built it before: from the dense reduced
    rows, echelonised again."""
    red, pivots = dense_rref(m)
    red = rows_of(red)
    z, o = m.ctx.zero(), m.ctx.one()
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [z] * m.cols
        v[f] = o
        for i, pc in enumerate(pivots):
            if not red[i][f].is_zero():
                v[pc] = -red[i][f]
        vectors.append(v)
    return dense_echelon(m.ctx, vectors)


def assert_matches_dense_oracle(m):
    """rref, rank, kernel_basis and from_spanning agree with the dense
    oracle bit for bit, and so does invert on square matrices."""
    red, pivots = rref(m)
    dense_red, dense_pivots = dense_rref(m)
    assert pivots == dense_pivots
    assert (red.rows, red.cols) == (dense_red.rows, dense_red.cols)
    assert [e.coords for e in red.entries] == [e.coords for e in dense_red.entries]
    assert rank(m) == len(dense_pivots)
    kb = kernel_basis(m)
    vectors, kernel_pivots = dense_kernel(m)
    assert kb.pivots == kernel_pivots and term_coords(kb.rows) == term_coords(map(nonzero, vectors))
    # every entry stored, zeros included: from_spanning drops them
    span = from_spanning(m.ctx, m.cols, [dict(enumerate(r)) for r in rows_of(m)])
    vectors, span_pivots = dense_echelon(m.ctx, rows_of(m))
    assert span.pivots == span_pivots and term_coords(span.rows) == term_coords(map(nonzero, vectors))
    if m.rows == m.cols:
        n = m.rows
        ident = Matrix.identity(m.ctx, n)
        aug = from_rows(m.ctx, [r + e for r, e in zip(rows_of(m), rows_of(ident))])
        aug_red, aug_pivots = dense_rref(aug)
        inv = invert(m)
        if aug_pivots != tuple(range(n)):
            assert inv is None
        else:
            assert coords(rows_of(inv)) == coords(r[n:] for r in rows_of(aug_red))


def mat(rows):
    return from_rows(CTX, [[CTX.from_rational(e) for e in r] for r in rows])


def test_rref_identity_fixed():
    ident = Matrix.identity(CTX, 3)
    red, pivots = rref(ident)
    assert red == ident and pivots == (0, 1, 2)


def test_rref_zero_fixed():
    z = Matrix(CTX, 2, 3)
    red, pivots = rref(z)
    assert red == z and pivots == ()


def test_rref_rank_one_example():
    # hand elimination: R2 <- R2 - 2 R1
    red, pivots = rref(mat([[1, 2], [2, 4]]))
    assert pivots == (0,)
    assert red == mat([[1, 2], [0, 0]])


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(CTX, 4)).dim == 0


def test_kernel_of_zero_is_standard_basis():
    kb = kernel_basis(Matrix(CTX, 2, 3))
    assert kb.dim == 3
    assert kb.pivots == (0, 1, 2)


def test_kernel_rank_nullity_on_row():
    m = mat([[1, 1, 0]])
    kb = kernel_basis(m)
    assert kb.dim == m.cols - rank(m) == 2
    for v in kb.rows:
        assert m.apply_terms(v.items()) == []


def test_coords_of_basis_vector():
    kb = kernel_basis(mat([[1, 1, 0]]))
    c = coords_of_terms(kb.rows[0], kb)
    assert c == [CTX.one(), CTX.zero()]
    zero = dict.fromkeys(range(3), CTX.zero())
    assert coords_of_terms(zero, kb) == [CTX.zero(), CTX.zero()]


def test_coords_outside_span_signals():
    kb = kernel_basis(mat([[1, 1, 0]]))
    # a vector with nonzero image under the row is outside the kernel
    v = {0: CTX.one(), 1: CTX.one(), 2: CTX.zero()}
    assert coords_of_terms(v, kb) is None


def test_kron_identities():
    assert kron(Matrix.identity(CTX, 2), Matrix.identity(CTX, 3)) == Matrix.identity(CTX, 6)
    a = mat([[1, 2], [3, 4]])
    assert kron(a, Matrix(CTX, 2, 2)).terms() == []


def test_kron_diagonal_expansion():
    q = zeta_power(CTX, 1)
    da = from_rows(CTX, [[q, CTX.zero()], [CTX.zero(), CTX.one()]])
    db = from_rows(CTX, [[CTX.one(), CTX.zero()], [CTX.zero(), q]])
    k = kron(da, db)
    # (i tensor j) -> i*2 + j: diagonal (q, q*q, 1, q)
    expect = [q, q * q, CTX.one(), q]
    for idx, e in enumerate(expect):
        assert k.entries[idx * k.cols + idx] == e
    assert sum(1 for x in k.entries if not x.is_zero()) == 4


def test_solve_and_invert():
    m = mat([[2, 1], [1, 1]])
    assert m * invert(m) == Matrix.identity(CTX, 2)
    assert invert(m).apply_terms([(0, CTX.one())]) == [(0, CTX.one()), (1, CTX.from_rational(-1))]
    singular = mat([[1, 2], [2, 4]])
    assert invert(singular) is None


def test_subspace_from_spanning_deduplicates():
    two = CTX.from_rational(2)
    rows = [{0: CTX.one(), 1: CTX.one()}, {1: two, 0: two}, {1: CTX.zero()}]
    b = from_spanning(CTX, 2, rows)
    assert b.dim == 1 and b.pivots == (0,) and b.rows == [{0: CTX.one(), 1: CTX.one()}]
    # the rows are read, not consumed, and the stored zero stays stored
    assert rows == [{0: CTX.one(), 1: CTX.one()}, {0: two, 1: two}, {1: CTX.zero()}]


entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_rank_nullity_random(nr, nc, data):
    rows = [[CTX.from_rational(data.draw(entries)) for _ in range(nc)] for _ in range(nr)]
    m = from_rows(CTX, rows)
    assert rank(m) + kernel_basis(m).dim == nc
    for v in kernel_basis(m).rows:
        assert m.apply_terms(v.items()) == []


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_rref_idempotent_random(nr, nc, data):
    rows = [[CTX.from_rational(data.draw(entries)) for _ in range(nc)] for _ in range(nr)]
    m = from_rows(CTX, rows)
    red, piv = rref(m)
    red2, piv2 = rref(red)
    assert red == red2 and piv == piv2


FIELDS = (make_field(4), make_field(5))


@st.composite
def sparse_matrices(draw):
    """Tall, wide and empty matrices over Q(zeta_4) and Q(zeta_5), mostly
    zero, with zero rows, duplicate rows and combinations of earlier rows."""
    ctx = draw(st.sampled_from(FIELDS))
    nr, nc = draw(st.integers(0, 8)), draw(st.integers(1, 8))

    def scalar(zero_weight):
        if draw(st.integers(0, 9)) < zero_weight:
            return ctx.zero()
        return ctx.scalar(draw(st.lists(st.integers(-2, 2), min_size=ctx.degree,
                                        max_size=ctx.degree)))

    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(("sparse", "sparse", "zero", "duplicate", "combination")))
        if kind == "sparse" or (kind != "zero" and not rows):
            rows.append([scalar(6) for _ in range(nc)])
        elif kind == "zero":
            rows.append([ctx.zero()] * nc)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = scalar(0), scalar(3)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
    return Matrix(ctx, nr, nc, [(i, j, e) for i, r in enumerate(rows) for j, e in enumerate(r)])


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_sparse_elimination_matches_dense_oracle(m):
    assert_matches_dense_oracle(m)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), sparse_matrices())
def test_square_elimination_matches_dense_oracle(n, m):
    # invert on square matrices, singular ones included
    entries = (m.entries + [m.ctx.zero()] * (n * n))[: n * n]
    assert_matches_dense_oracle(Matrix(m.ctx, n, n, [(u // n, u % n, e) for u, e in enumerate(entries)]))


@pytest.mark.parametrize("n,d,xi,conds", [
    (3, 3, 0, "ad1,ad2,ad3"),
    (3, 1, 1, "ad1,ad2,ad3"),
    (4, 2, 1, "ad1,ad3"),
])
def test_condition_system_elimination_matches_dense_oracle(n, d, xi, conds):
    p = problem_for(taft_model(n), comodule_algebra_K(n, d, xi), conds.split(","))
    assert_matches_dense_oracle(condition_system_reduced(p))


def test_antipode_inversion_matches_dense_oracle():
    # the augmented [S | 1] that invert reduces for the n = 3 antipode
    assert_matches_dense_oracle(taft_model(3).taft.antipode)


def test_matrix_equality_rejects_mixed_fields():
    a = Matrix.identity(make_field(4), 2)
    with pytest.raises(ValueError):
        a == Matrix.identity(make_field(5), 2)
    assert a != Matrix.identity(make_field(5), 3)  # shapes differ first


@settings(max_examples=50, deadline=None)
@given(sparse_matrices(), st.integers(1, 6), st.data())
def test_matrix_product_matches_entrywise_sums(a, oc, data):
    ctx = a.ctx
    b = Matrix(ctx, a.cols, oc, [(u // oc, u % oc, ctx.scalar(data.draw(st.lists(
        st.integers(-2, 2), min_size=ctx.degree, max_size=ctx.degree))))
        for u in range(a.cols * oc)])
    ar, br = rows_of(a), rows_of(b)
    expected = []
    for i in range(a.rows):
        for j in range(oc):
            s = ctx.zero()
            for k in range(a.cols):
                s = s + ar[i][k] * br[k][j]
            expected.append(s)
    assert (a * b).entries == expected


@st.composite
def term_matrices(draw, ctx, nr, nc):
    """A Matrix, mostly zero or mostly not, built from shuffled terms, its
    nonzero entries split into duplicate terms and with cancelling pairs
    added, and the DenseMatrix of the same entries."""

    def scalar():
        return ctx.scalar(draw(st.lists(st.integers(-2, 2), min_size=ctx.degree,
                                        max_size=ctx.degree)))

    zero_weight = draw(st.sampled_from((7, 7, 2)))
    entries = [scalar() if draw(st.integers(0, 9)) >= zero_weight else ctx.zero()
               for _ in range(nr * nc)]
    terms = []
    for u, e in enumerate(entries):
        i, j = divmod(u, nc)
        if e.is_zero():
            continue
        if draw(st.booleans()):
            part = scalar()
            terms += [(i, j, part), (i, j, e - part)]
        else:
            terms.append((i, j, e))
    if nr and nc:
        for _ in range(draw(st.integers(0, 3))):
            i, j, x = draw(st.integers(0, nr - 1)), draw(st.integers(0, nc - 1)), scalar()
            terms += [(i, j, x), (i, j, -x)]
    terms = draw(st.permutations(terms))
    return Matrix(ctx, nr, nc, terms), DenseMatrix(ctx, nr, nc, entries)


def nonzero_of(v):
    return [(i, e) for i, e in enumerate(v) if not e.is_zero()]


def assert_matches(m, d):
    """m and the dense oracle d hold the same entries, read every way."""
    assert (m.rows, m.cols) == (d.rows, d.cols)
    z = m.ctx.zero()
    assert all(e is z or not e.is_zero() for e in m.entries)
    assert [e.coords for e in m.entries] == [e.coords for e in d.entries]
    for i in range(d.rows):
        assert m.row_terms(i) == nonzero_of(d.row(i))
    for j in range(d.cols):
        assert m.col_terms(j) == nonzero_of(d.col(j))
    assert m.terms() == [(u // d.cols, u % d.cols, e) for u, e in nonzero_of(d.entries)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_matrix_arithmetic_matches_dense_oracle(ctx, nr, nk, nc, data):
    a, da = data.draw(term_matrices(ctx, nr, nk))
    b, db = data.draw(term_matrices(ctx, nk, nc))
    a2, da2 = data.draw(term_matrices(ctx, nr, nk))
    assert_matches(a, da)
    assert_matches(a * b, da * db)
    assert_matches(a + a2, da + da2)
    assert_matches(a.transpose(), da.transpose())
    assert_matches(kron(a, b), dense_kron(da, db))
    vec = [ctx.scalar(data.draw(st.lists(st.integers(-2, 2), min_size=ctx.degree,
                                         max_size=ctx.degree))) for _ in range(nk)]
    # stored zeros in the input count as absent
    assert a.apply_terms(nonzero_of(vec)) == nonzero_of(da.apply(vec))
    assert a.apply_terms(list(enumerate(vec))) == nonzero_of(da.apply(vec))
    # c a_0 + c' a2_0 over the first rows, against the dense sum
    if nr:
        c, c2 = vec[0], -vec[-1]
        expect = [c * x + c2 * y for x, y in zip(da.row(0), da2.row(0))]
        assert lincomb([(c, a.row_terms(0)), (c2, a2.row_terms(0))]) == nonzero_of(expect)
    # equality against an unequal matrix, one entry doubled, the same
    # entries rebuilt, and another shape
    assert (a == a2) == (da == da2)
    for i, j, e in a.terms()[:1]:
        assert a != Matrix(ctx, nr, nk, a.terms() + [(i, j, e)])
    assert a == Matrix(ctx, nr, nk, list(reversed(a.terms())) + [(i, j, z - z) for i, j, z in a2.terms()])
    assert a != Matrix(ctx, nr + 1, nk)
    other = FIELDS[1] if ctx is FIELDS[0] else FIELDS[0]
    with pytest.raises(ValueError):
        a == Matrix(other, nr, nk)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 3), st.integers(0, 3), st.data())
def test_kron_sum_and_leg_flip_match_dense_oracle(ctx, da, db, nr, data):
    shapes = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    terms, expected = [], None
    for _ in range(data.draw(st.integers(1, 3))):
        c = data.draw(term_matrices(ctx, 1, 1))[1].entries[0]
        a, dense_a = data.draw(term_matrices(ctx, *shapes))
        b, dense_b = data.draw(term_matrices(ctx, da, db))
        terms.append((c, a, b))
        k = dense_kron(dense_a, dense_b).scale(c)
        expected = k if expected is None else expected + k
    assert_matches(kron_sum(terms), expected)
    # the flip A x B -> B x A as a dense permutation matrix
    m, dm = data.draw(term_matrices(ctx, nr, db * da))
    flip = [ctx.zero()] * (da * db) ** 2
    for x in range(da):
        for y in range(db):
            flip[(y * da + x) * (da * db) + x * db + y] = ctx.one()
    assert_matches(flip_legs(m, da, db), dm * DenseMatrix(ctx, da * db, da * db, flip))


def random_sparse_matrix(rng, rows, cols):
    """A Matrix over Q(zeta_4) with about half of its entries drawn, each
    coordinate in -2..2, so that some drawn entries are zero."""
    return Matrix(CTX, rows, cols, [(i, j, CTX.scalar([rng.randint(-2, 2) for _ in range(CTX.degree)]))
                                    for i in range(rows) for j in range(cols) if rng.random() < 0.5])


def random_sparse_tensor(rng, dims):
    """A {(i_1, ..., i_k): Scalar} tensor over Q(zeta_4), stored zeros included."""
    return {key: CTX.scalar([rng.randint(-2, 2) for _ in range(CTX.degree)])
            for key in product(*map(range, dims)) if rng.random() < 0.5}


def kron_oracle(mats, t):
    """(A_1 x ... x A_k)(t) by kron(...kron(A_1, A_2)..., A_k).apply_terms on
    the flattened tensor, unflattened again."""
    big = mats[0]
    for m in mats[1:]:
        big = kron(big, m)

    def flat(key, dims):
        u = 0
        for i, d in zip(key, dims):
            u = u * d + i
        return u

    def unflat(u):
        key = []
        for m in reversed(mats):
            u, i = divmod(u, m.rows)
            key.append(i)
        return tuple(reversed(key))

    terms = [(flat(key, [m.cols for m in mats]), c) for key, c in t.items()]
    return {unflat(u): c for u, c in big.apply_terms(terms)}


def columns(m):
    return [m.col_terms(j) for j in range(m.cols)]


@pytest.mark.parametrize("seed", range(8))
def test_leg_map_matches_kron_oracle(seed):
    rng = random.Random(seed)
    a, b, c = (random_sparse_matrix(rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(3))
    t = random_sparse_tensor(rng, (a.cols, b.cols))
    t3 = random_sparse_tensor(rng, (a.cols, b.cols, c.cols))
    cases = [((columns(a), columns(b)), (a, b), t),
             ((columns(a), None), (a, Matrix.identity(CTX, b.cols)), t),
             ((None, columns(b)), (Matrix.identity(CTX, a.cols), b), t),
             ((columns(a), columns(b), columns(c)), (a, b, c), t3),
             ((columns(a), None, columns(c)), (a, Matrix.identity(CTX, b.cols), c), t3)]
    for maps, mats, tensor in cases:
        image = leg_map(maps, tensor)
        assert image == kron_oracle(mats, tensor)
        assert not any(v.is_zero() for v in image.values())


def test_leg_map_leaves_no_cancelled_term():
    one, q = CTX.one(), zeta_power(CTX, 1)
    add = Matrix(CTX, 1, 2, [(0, 0, one), (0, 1, one)])  # e_0, e_1 -> e_0
    t = {(0, 0): q, (1, 0): -q, (1, 1): q, (0, 2): q - q}
    expect = {(0, 1): q}
    assert leg_map((columns(add), None), t) == expect
    assert kron_oracle((add, Matrix.identity(CTX, 3)), t) == expect


def test_dense_layout_stays_in_linalg():
    # the dense view of a Matrix is read at serialisation only, and never written
    package = Path(hopfadjoint.__file__).parent
    readers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "entries":
                readers.add(path.name)
                assert isinstance(node.ctx, ast.Load), f"{path.name}:{node.lineno} assigns .entries"
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
                assert not (isinstance(target, ast.Attribute) and target.attr == "entries"), \
                    f"{path.name}:{node.lineno} writes into .entries"
    assert readers <= {"linalg.py", "reports.py"}
