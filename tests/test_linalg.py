from hypothesis import given, settings, strategies as st

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
