from hypothesis import given, settings, strategies as st
import pytest

from hopfadjoint.adjoint import condition_system_reduced, problem_for
from hopfadjoint.constructions import comodule_algebra_K, taft_model
from hopfadjoint.cyclotomic import make_field, zeta_power
from hopfadjoint.linalg import (
    Matrix,
    SubspaceBasis,
    coords_in_basis,
    invert,
    kernel_basis,
    kron,
    rank,
    rref,
)

CTX = make_field(4)


def dense_rref(m):
    """The dense Gauss-Jordan elimination that rref replaced, kept as its
    oracle: the first row with a nonzero entry pivots each column."""
    rows = [list(r) for r in m.to_rows()]
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
    return Matrix.from_rows(m.ctx, rows) if nrows else m, tuple(pivots)


def coords(vectors):
    return [[e.coords for e in v] for v in vectors]


def dense_echelon(ctx, vectors):
    """Reduced echelon basis and pivots of the span of vectors, by dense_rref."""
    if not vectors:
        return [], ()
    red, pivots = dense_rref(Matrix.from_rows(ctx, vectors))
    return [red.row(i) for i in range(len(pivots))], pivots


def dense_kernel(m):
    """The kernel as kernel_basis built it before: from the dense reduced
    rows, echelonised again."""
    red, pivots = dense_rref(m)
    z, o = m.ctx.zero(), m.ctx.one()
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [z] * m.cols
        v[f] = o
        for i, pc in enumerate(pivots):
            if not red[i, f].is_zero():
                v[pc] = -red[i, f]
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
    assert kb.pivots == kernel_pivots and coords(kb.vectors) == coords(vectors)
    span = SubspaceBasis.from_spanning(m.ctx, m.cols, m.to_rows())
    vectors, span_pivots = dense_echelon(m.ctx, m.to_rows())
    assert span.pivots == span_pivots and coords(span.vectors) == coords(vectors)
    if m.rows == m.cols:
        n = m.rows
        ident = Matrix.identity(m.ctx, n)
        aug = Matrix.from_rows(m.ctx, [m.row(i) + ident.row(i) for i in range(n)])
        aug_red, aug_pivots = dense_rref(aug)
        inv = invert(m)
        if aug_pivots != tuple(range(n)):
            assert inv is None
        else:
            assert coords(inv.to_rows()) == coords(r[n:] for r in aug_red.to_rows())


def mat(rows):
    return Matrix.from_rows(CTX, [[CTX.from_rational(e) for e in r] for r in rows])


def test_rref_identity_fixed():
    ident = Matrix.identity(CTX, 3)
    red, pivots = rref(ident)
    assert red == ident and pivots == (0, 1, 2)


def test_rref_zero_fixed():
    z = Matrix.zero(CTX, 2, 3)
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
    kb = kernel_basis(Matrix.zero(CTX, 2, 3))
    assert kb.dim == 3
    assert kb.pivots == (0, 1, 2)


def test_kernel_rank_nullity_on_row():
    m = mat([[1, 1, 0]])
    kb = kernel_basis(m)
    assert kb.dim == m.cols - rank(m) == 2
    for v in kb.vectors:
        assert all(e.is_zero() for e in m.apply(v))


def test_coords_of_basis_vector():
    kb = kernel_basis(mat([[1, 1, 0]]))
    c = coords_in_basis(kb.vectors[0], kb)
    assert c == [CTX.one(), CTX.zero()]
    zero = [CTX.zero()] * 3
    assert coords_in_basis(zero, kb) == [CTX.zero(), CTX.zero()]


def test_coords_outside_span_signals():
    kb = kernel_basis(mat([[1, 1, 0]]))
    # a vector with nonzero image under the row is outside the kernel
    v = [CTX.one(), CTX.one(), CTX.zero()]
    assert coords_in_basis(v, kb) is None


def test_kron_identities():
    assert kron(Matrix.identity(CTX, 2), Matrix.identity(CTX, 3)) == Matrix.identity(CTX, 6)
    a = mat([[1, 2], [3, 4]])
    assert kron(a, Matrix.zero(CTX, 2, 2)).is_zero()


def test_kron_diagonal_expansion():
    q = zeta_power(CTX, 1)
    da = Matrix.from_rows(CTX, [[q, CTX.zero()], [CTX.zero(), CTX.one()]])
    db = Matrix.from_rows(CTX, [[CTX.one(), CTX.zero()], [CTX.zero(), q]])
    k = kron(da, db)
    # (i tensor j) -> i*2 + j: diagonal (q, q*q, 1, q)
    expect = [q, q * q, CTX.one(), q]
    for idx, e in enumerate(expect):
        assert k[idx, idx] == e
    assert sum(1 for x in k.entries if not x.is_zero()) == 4


def test_solve_and_invert():
    m = mat([[2, 1], [1, 1]])
    assert m * invert(m) == Matrix.identity(CTX, 2)
    assert invert(m).apply([CTX.one(), CTX.zero()]) == [CTX.one(), CTX.from_rational(-1)]
    singular = mat([[1, 2], [2, 4]])
    assert invert(singular) is None


def test_subspace_from_spanning_deduplicates():
    vecs = [[CTX.one(), CTX.one()], [CTX.from_rational(2), CTX.from_rational(2)]]
    b = SubspaceBasis.from_spanning(CTX, 2, vecs)
    assert b.dim == 1 and b.pivots == (0,)


entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_rank_nullity_random(nr, nc, data):
    rows = [[CTX.from_rational(data.draw(entries)) for _ in range(nc)] for _ in range(nr)]
    m = Matrix.from_rows(CTX, rows)
    assert rank(m) + kernel_basis(m).dim == nc
    for v in kernel_basis(m).vectors:
        assert all(e.is_zero() for e in m.apply(v))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_rref_idempotent_random(nr, nc, data):
    rows = [[CTX.from_rational(data.draw(entries)) for _ in range(nc)] for _ in range(nr)]
    m = Matrix.from_rows(CTX, rows)
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
    return Matrix(ctx, nr, nc, [e for r in rows for e in r])


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_sparse_elimination_matches_dense_oracle(m):
    assert_matches_dense_oracle(m)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), sparse_matrices())
def test_square_elimination_matches_dense_oracle(n, m):
    # invert on square matrices, singular ones included
    entries = (m.entries + [m.ctx.zero()] * (n * n))[: n * n]
    assert_matches_dense_oracle(Matrix(m.ctx, n, n, entries))


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
    b = Matrix(ctx, a.cols, oc, [ctx.scalar(data.draw(st.lists(
        st.integers(-2, 2), min_size=ctx.degree, max_size=ctx.degree)))
        for _ in range(a.cols * oc)])
    expected = []
    for i in range(a.rows):
        for j in range(oc):
            s = ctx.zero()
            for k in range(a.cols):
                s = s + a[i, k] * b[k, j]
            expected.append(s)
    assert (a * b).entries == expected
