"""Slow dense oracles for the two edges where sparse data is laid out
densely: canonical JSON emission and coordinates in a solved basis.

`emit_json` streams the text into its file in one pass, formats each
distinct scalar once, writes only a matrix's nonzero terms and a dense
list's padding by reference; `dense_emit` is the per-entry walk over
`Matrix.entries` into a plain tree that `json.dumps` encodes, and both
must give the same bytes, for the package's documents and for plain data
at its edges.
`coords_of_terms` reads coordinates at the pivots of an echelon basis
and forms the residual sparsely; `support.dense_coords_in_basis` scans
dense basis vectors and a dense residual, and the term list of its
coordinates must be the sparse one, `None` included.
"""

import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from hopfadjoint import cli, reports
from hopfadjoint.adjoint import condition_system, condition_system_reduced, problem_for
from hopfadjoint.constructions import comodule_algebra_K, regular_comodule_algebra, taft_model
from hopfadjoint.cyclotomic import Scalar, make_field, rational_str, scalar_to_strings
from hopfadjoint.linalg import Matrix, coords_of_terms, dense, kernel_basis, nonzero
from hopfadjoint.reports import emit_json

from support import dense_coords_in_basis, emit_bytes
from test_golden import CLI_DIGESTS


def dense_jsonable(obj):
    """One `scalar_to_strings` call per scalar occurrence, matrices read
    entry by entry from the dense `entries` view."""
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, Scalar):
        return scalar_to_strings(obj)
    if isinstance(obj, Matrix):
        return {"rows": obj.rows, "cols": obj.cols,
                "entries": [dense_jsonable(e) for e in obj.entries]}
    if isinstance(obj, (list, tuple)):
        return [dense_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): dense_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "to_jsonable"):
        return dense_jsonable(obj.to_jsonable())
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def dense_emit(obj) -> bytes:
    return json.dumps(dense_jsonable(obj), sort_keys=True, separators=(",", ":")).encode()


# -- emission --------------------------------------------------------------


def captured_documents(monkeypatch, argv) -> tuple[int, list]:
    """Run the CLI; its exit code and every document it hands to emit_json."""
    docs = []

    def capture(obj, fh):
        docs.append(obj)
        emit_json(obj, fh)

    monkeypatch.setattr(cli, "emit_json", capture)
    return cli.cli_main(argv), docs


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_emit_json_matches_dense_oracle_on_golden_payloads(name, monkeypatch, tmp_path):
    argv, exit_code, _ = CLI_DIGESTS[name]
    out = tmp_path / "out.json"
    code, docs = captured_documents(monkeypatch, argv + ["--out", str(out)])
    assert code == exit_code and len(docs) == 1
    assert dense_emit(docs[0]) == out.read_bytes()


def random_scalar(rng: random.Random, ctx):
    """Zero about a third of the time, otherwise coordinates with
    negative numerators and non-unit denominators, some of them zero."""
    if rng.random() < 0.35:
        return ctx.zero()
    return ctx.scalar([Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7)))
                       for _ in range(ctx.degree)])


def random_matrix(rng: random.Random, ctx, pool) -> Matrix:
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    # draws from a small pool repeat values across entries and matrices
    pick = lambda: rng.choice(pool) if rng.random() < 0.3 else random_scalar(rng, ctx)
    terms = [(i, j, pick()) for i in range(rows) for j in range(cols)]
    # duplicate and cancelling terms exercise the zero-free construction
    terms += [(i, j, c) for i, j, c in terms[::3]] + [(i, j, -c) for i, j, c in terms[::3]]
    return Matrix(ctx, rows, cols, terms)


@pytest.mark.parametrize("conductor", [3, 4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_emit_json_matches_dense_oracle_on_random_matrices(conductor, seed):
    rng = random.Random(1000 * conductor + seed)
    ctx = make_field(conductor)
    pool = [random_scalar(rng, ctx) for _ in range(4)]
    doc = {
        "matrices": [random_matrix(rng, ctx, pool) for _ in range(6)],
        "vector": [random_scalar(rng, ctx) for _ in range(7)],
        "nested": {"pair": (ctx.zero(), ctx.one()), "rational": Fraction(-5, 6), "flag": True},
    }
    assert emit_bytes(doc) == dense_emit(doc)


def test_emit_json_matches_dense_oracle_on_strings_and_keys():
    awkward = ['quote " and backslash \\', "tab\tnewline\ncontrol\x00\x1f\x7f",
               "non-ASCII \u00e9\u00df \u2202 \U0001d49c", "", "/slash"]
    doc = {"values": awkward, "keys": {k: k for k in awkward}}
    data = emit_bytes(doc)
    assert data == dense_emit(doc)
    assert data.isascii() and json.loads(data) == doc


def test_emit_json_matches_dense_oracle_on_plain_data():
    doc = {
        # int and str keys, one pair of which writes the same key "1"
        "keys": {3: "three", "10": "ten", -1: None, 2.5: [], "1": 0, 1: 1},
        "constants": [True, 1, None, False, 0, -7, 10 ** 30, 0.1, -2.5e300, 1e16],
        "nested": ((1, (2, ())), [[], {}], {"empty": {}}),
        "rationals": [Fraction(0), Fraction(-5, 6), Fraction(12, 4), {"r": Fraction(1, 3)}],
        "empty": [], "nothing": {}, "tuple": (),
    }
    assert emit_bytes(doc) == dense_emit(doc)
    for value in (True, 1, None, Fraction(-3, 7), (), [], {}, "s", 2.0):
        assert emit_bytes(value) == dense_emit(value)


def test_emit_json_writes_a_computed_zero_among_shared_zeros():
    ctx = make_field(4)
    one = ctx.one()
    computed = one - one
    assert computed.is_zero() and computed is not ctx.zero()
    padded = dense(ctx, 5, [(2, computed), (3, one)])
    doc = {"padded": padded, "first": [computed] + padded, "all": [computed, -ctx.zero()],
           "matrix": Matrix(ctx, 2, 2, [(0, 1, one), (1, 0, one), (1, 0, -one)])}
    data = emit_bytes(doc)
    assert data == dense_emit(doc)
    assert json.loads(data)["padded"] == [["0", "0"]] * 3 + [["1", "0"]] + [["0", "0"]]


def test_emit_json_matches_dense_oracle_on_two_fields_in_one_document():
    f3, f5 = make_field(3), make_field(5)
    half3, half5 = f3.from_rational(Fraction(1, 2)), f5.from_rational(Fraction(1, 2))
    doc = {
        "q3": dense(f3, 4, [(1, half3)]), "q5": dense(f5, 4, [(1, half5)]),
        # a list that starts with one field's padding and holds the other's
        "mixed": [f3.zero(), f5.zero(), half5, f3.zero(), half3, 1, "x", None, [f5.zero()]],
        "matrices": [Matrix(f3, 1, 2, [(0, 0, half3)]), Matrix(f5, 2, 1, [(1, 0, half5)])],
    }
    assert emit_bytes(doc) == dense_emit(doc)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
def test_emit_json_matches_dense_oracle_on_empty_matrices(rows, cols):
    ctx = make_field(4)
    m = Matrix(ctx, rows, cols)
    data = emit_bytes({"m": m, "in_list": [m, m]})
    assert data == dense_emit({"m": m, "in_list": [m, m]})
    assert json.loads(data)["m"] == {"rows": rows, "cols": cols, "entries": []}


def test_emit_json_formats_each_distinct_scalar_once(monkeypatch, tmp_path):
    # a solved (4, 1, 0) module-variant document: every scalar value,
    # zero included, goes through scalar_to_strings at most once
    _, docs = captured_documents(monkeypatch, ["adjoint", "--n", "4", "--d", "1", "--xi", "0",
                                               "--conditions", "ad1,ad3",
                                               "--out", str(tmp_path / "out.json")])
    calls = Counter()

    def counted(s):
        calls[s.num, s.den] += 1
        return scalar_to_strings(s)

    monkeypatch.setattr(reports, "scalar_to_strings", counted)
    data = emit_bytes(docs[0])
    assert data == dense_emit(docs[0])
    assert calls and max(calls.values()) == 1


class RecordingFile:
    """A binary file that keeps every write."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)


def test_emit_json_streams_the_document_chunk_by_chunk(monkeypatch, tmp_path):
    # the solved (4, 1, 0) module-variant document reaches its file in
    # pieces, none longer than the text of its largest matrix; here that
    # is the 16 x 256 coaction, not a 4 x 64 basis matrix
    _, docs = captured_documents(monkeypatch, ["adjoint", "--n", "4", "--d", "1", "--xi", "0",
                                               "--conditions", "ad1,ad3",
                                               "--out", str(tmp_path / "out.json")])
    fh = RecordingFile()
    emit_json(docs[0], fh)
    assert b"".join(fh.writes) == dense_emit(docs[0])
    assert len(fh.writes) > 1
    alg = docs[0]["algebra"]
    largest = max(len(dense_emit(m)) for m in [*alg["basis"], *alg["action"], alg["coaction"]])
    assert max(map(len, fh.writes)) <= largest


# -- coordinates -----------------------------------------------------------


# kernel bases of condition systems at n = 2 and 3: (n, K, conditions, system)
SOLVED = [
    (2, (2, 2, 0), {"ad1", "ad3"}, condition_system_reduced),
    (2, (2, 1, 1), {"ad1", "ad2", "ad3"}, condition_system_reduced),
    (2, (2, 2, 0), {"ad1"}, condition_system),
    (3, (3, 3, 0), {"ad1", "ad3"}, condition_system_reduced),
    (3, (3, 1, 1), {"ad1", "ad2", "ad3"}, condition_system_reduced),
    (3, None, {"ad1", "ad2", "ad3"}, condition_system_reduced),
]


@pytest.mark.parametrize("index", range(len(SOLVED)))
def test_sparse_coords_match_dense_oracle(index):
    n, k, conditions, system = SOLVED[index]
    comod = regular_comodule_algebra(n) if k is None else comodule_algebra_K(*k)
    # {"ad1"} is no variant: its problem is the module variant's with ad3 dropped
    problem = dataclasses.replace(problem_for(taft_model(n), comod, conditions | {"ad3"}),
                                  conditions=frozenset(conditions))
    b = kernel_basis(system(problem))
    ctx = b.ctx
    rng = random.Random(index)
    vectors = [dense(ctx, b.ambient_dim, row.items()) for row in b.rows]
    non_pivots = [f for f in range(b.ambient_dim) if f not in set(b.pivots)]
    assert b.dim and non_pivots
    cases = [([ctx.zero()] * b.ambient_dim, True)] + [(v, True) for v in vectors]
    for _ in range(12):
        coeffs = [ctx.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                  for _ in range(b.dim)]
        inside = [sum((c * v[u] for c, v in zip(coeffs, vectors)), ctx.zero())
                  for u in range(b.ambient_dim)]
        cases.append((inside, True))
        # a non-pivot unit vector is outside the span of an echelon basis
        outside = list(inside)
        f = rng.choice(non_pivots)
        outside[f] = outside[f] + ctx.from_rational(rng.choice((-2, 1, 3)))
        cases.append((outside, False))
    for v, in_span in cases:
        expected = dense_coords_in_basis(v, b)
        assert (expected is not None) == in_span
        assert coords_of_terms(dict(enumerate(v)), b) == (None if expected is None else nonzero(expected))
