import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hopfadjoint import cyclotomic
from hopfadjoint.cyclotomic import (
    FieldContext,
    Scalar,
    _cyclotomic_poly,
    make_field,
    rational_str,
    scalar_to_strings,
    zeta_power,
)


def poly_long_division(num, den):
    """Independent oracle: plain long division in Q[x], returning the
    quotient and asserting zero remainder."""
    num = list(num)
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    assert all(c == 0 for c in num)
    return q


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_phi_1_and_2():
    assert list(make_field(1).poly) == [Fraction(-1), Fraction(1)]
    assert list(make_field(2).poly) == [Fraction(1), Fraction(1)]


def test_phi_4_against_division_oracle():
    # x^4 - 1 divided by Phi_1 * Phi_2 = x^2 - 1
    x4m1 = [Fraction(-1), 0, 0, 0, Fraction(1)]
    oracle = poly_long_division(x4m1, [Fraction(-1), Fraction(0), Fraction(1)])
    assert oracle == [Fraction(1), Fraction(0), Fraction(1)]
    assert list(make_field(4).poly) == oracle


@pytest.mark.parametrize("n", range(1, 13))
def test_divisor_product_recovers_xn_minus_1(n):
    prod = [Fraction(1)]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, _cyclotomic_poly(d))
    expect = [Fraction(0)] * (n + 1)
    expect[0], expect[n] = Fraction(-1), Fraction(1)
    assert prod == expect


def test_zeta4_squared_is_minus_one():
    ctx = make_field(4)
    z = zeta_power(ctx, 1)
    assert z * z == ctx.from_rational(-1)


def test_inverse_of_one_plus_zeta3():
    ctx = make_field(3)
    a = ctx.scalar([1, 1])
    assert (a * a.inv()).is_one()


def test_additive_identity():
    ctx = make_field(3)
    a = ctx.scalar([2, -5])
    assert a + ctx.zero() == a


@pytest.mark.parametrize("n,k,expect", [(4, 2, -1), (3, 3, 1), (2, 1, -1)])
def test_zeta_power_values(n, k, expect):
    ctx = make_field(n)
    assert zeta_power(ctx, k) == ctx.from_rational(expect)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12])
def test_zeta_satisfies_its_polynomial(n):
    ctx = make_field(n)
    z = zeta_power(ctx, 1)
    p = ctx.one()
    for _ in range(n):
        p = p * z
    assert p.is_one()
    value = ctx.zero()
    power = ctx.one()
    for coeff in ctx.poly:
        value = value + power.scale(coeff)
        power = power * z
    assert value.is_zero()


def test_context_mixing_is_an_error():
    a = make_field(3).one()
    b = make_field(4).one()
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        _ = a - b
    with pytest.raises(ValueError):
        _ = a * b
    with pytest.raises(ValueError):
        _ = a == b
    # a factor of 1 is returned only after the context check
    four, five = make_field(4).one(), make_field(5).one()
    for x, y in ((b, a), (four, five), (five, four)):
        with pytest.raises(ValueError, match="mixed field contexts"):
            _ = x * y


@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_every_scalar_is_of_its_field_class(n):
    ctx = make_field(n)
    cls = ctx.scalar_type
    assert cls is not Scalar and issubclass(cls, Scalar) and cls.ctx is ctx
    a = ctx.scalar([Fraction(2, 3)] + [Fraction(-1, 5)] * (ctx.degree - 1))
    b = ctx.scalar(range(1, ctx.degree + 1))
    made = {
        "zero": ctx.zero(), "one": ctx.one(), "zeta_power": zeta_power(ctx, 1),
        "scalar": a, "from_rational": ctx.from_rational(Fraction(-7, 4)),
        "scalar_of_strings": ctx.scalar(["1/2"] * ctx.degree),
        "scale": a.scale(Fraction(3, 4)), "inv": a.inv(), "truediv": a / b,
        "add": a + b, "sub": a - b, "neg": -a, "mul": a * b,
    }
    assert {name: type(s).__qualname__ for name, s in made.items() if type(s) is not cls} == {}
    with pytest.raises(TypeError):
        Scalar(ctx, (1,) * ctx.degree, 1)


def test_zero_inverse_is_an_error():
    with pytest.raises(ZeroDivisionError):
        make_field(3).zero().inv()


def test_rational_serialisation():
    assert rational_str(Fraction(3, 2)) == "3/2"
    assert rational_str(Fraction(5)) == "5"
    assert rational_str(Fraction(-1, 3)) == "-1/3"
    ctx = make_field(4)
    s = ctx.scalar([Fraction(1, 2), -2])
    assert scalar_to_strings(s) == ["1/2", "-2"]
    assert ctx.scalar(scalar_to_strings(s)) == s


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals, min_size=6, max_size=6))
def test_field_axioms_random_triples(coeffs):
    ctx = make_field(3)
    a = ctx.scalar(coeffs[0:2])
    b = ctx.scalar(coeffs[2:4])
    c = ctx.scalar(coeffs[4:6])
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero():
        assert (a * a.inv()).is_one()


@settings(max_examples=40, deadline=None)
@given(st.lists(small_rationals, min_size=2, max_size=2))
def test_inverse_round_trip_q4(coeffs):
    ctx = make_field(4)
    a = ctx.scalar(coeffs)
    if a.is_zero():
        return
    assert (a.inv().inv()) == a


# -- the integral Scalar against Fraction-coordinate arithmetic -----------


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _divmod(a, b):
    a, b = list(a), _trim(list(b))
    if len(a) < len(b):
        return [Fraction(0)], _trim(a)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return _trim(q), _trim(a)


def _sub(a, b):
    m = max(len(a), len(b))
    a, b = a + [0] * (m - len(a)), b + [0] * (m - len(b))
    return _trim([x - y for x, y in zip(a, b)])


class FractionScalar:
    """Q(zeta_n) as a tuple of Fraction coordinates in the power basis: a
    convolution reduced by Fraction rows, and the inverse by the extended
    Euclidean algorithm on (a, Phi_n)."""

    def __init__(self, n, coords):
        self.n = n
        self.poly = [Fraction(c) for c in _cyclotomic_poly(n)]
        d = self.d = len(self.poly) - 1
        self.coords = tuple(Fraction(c) for c in coords)
        # x^(d + k) mod Phi_n for k = 0 .. d - 2
        self.reduction = []
        row = [-c for c in self.poly[:d]]
        for _ in range(max(0, d - 1)):
            self.reduction.append(tuple(row))
            carry, row = row[d - 1], [Fraction(0)] + row[: d - 1]
            row = [row[i] + carry * self.reduction[0][i] for i in range(d)]

    def _new(self, coords):
        return FractionScalar(self.n, coords)

    def __add__(self, o):
        return self._new(x + y for x, y in zip(self.coords, o.coords))

    def __sub__(self, o):
        return self._new(x - y for x, y in zip(self.coords, o.coords))

    def __neg__(self):
        return self._new(-x for x in self.coords)

    def __mul__(self, o):
        d = self.d
        prod = poly_mul(self.coords, o.coords)
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            out = [x + prod[k] * r for x, r in zip(out, self.reduction[k - d])]
        return self._new(out)

    def scale(self, r):
        return self._new(x * r for x in self.coords)

    def inv(self):
        r0, r1 = list(self.poly), _trim(list(self.coords))
        u0, u1 = [Fraction(0)], [Fraction(1)]
        while r1 != [0]:
            q, rem = _divmod(r0, r1)
            r0, r1 = r1, rem
            u0, u1 = u1, _sub(u0, poly_mul(q, u1))
        _, u0 = _divmod(u0, self.poly)
        return self._new(([c / r0[0] for c in u0] + [Fraction(0)] * self.d)[: self.d])

    def is_zero(self):
        return not any(self.coords)

    def is_one(self):
        return self.coords == (1,) + (0,) * (self.d - 1)


ORACLE_CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
BIG = 10 ** 12


@st.composite
def rationals(draw):
    kind = draw(st.sampled_from(("zero", "small", "big", "big-over-one")))
    if kind == "zero":
        return Fraction(0)
    if kind == "small":
        return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    den = 1 if kind == "big-over-one" else draw(st.integers(1, BIG))
    return Fraction(draw(st.integers(-BIG, BIG)), den)


@st.composite
def operand_coords(draw, degree):
    kind = draw(st.sampled_from(("zero", "one", "rational", "general", "general")))
    if kind == "zero":
        return [0] * degree
    if kind == "one":
        return [1] + [0] * (degree - 1)
    if kind == "rational":
        return [draw(rationals())] + [0] * (degree - 1)
    return [draw(rationals()) for _ in range(degree)]


def assert_canonical(s):
    assert isinstance(s.den, int) and s.den > 0
    assert all(isinstance(c, int) for c in s.num) and len(s.num) == s.ctx.degree
    assert gcd(s.den, *s.num) == 1


def assert_agrees(s, oracle):
    assert_canonical(s)
    assert s.coords == oracle.coords
    assert s.is_zero() == oracle.is_zero()
    assert s.is_one() == oracle.is_one()
    assert scalar_to_strings(s) == [rational_str(c) for c in oracle.coords]
    same = s.ctx.scalar(oracle.coords)
    assert same == s and hash(same) == hash(s)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_CONDUCTORS), st.data())
def test_scalar_matches_fraction_oracle(n, data):
    ctx = make_field(n)
    ca = data.draw(operand_coords(ctx.degree))
    cb = data.draw(operand_coords(ctx.degree))
    r = data.draw(rationals())
    a, b = ctx.scalar(ca), ctx.scalar(cb)
    fa, fb = FractionScalar(n, ca), FractionScalar(n, cb)
    assert_agrees(a, fa)
    assert_agrees(b, fb)
    assert_agrees(a + b, fa + fb)
    assert_agrees(a - b, fa - fb)
    assert_agrees(-a, -fa)
    assert_agrees(a * b, fa * fb)
    assert_agrees(a.scale(r), fa.scale(r))
    assert_agrees((a + b) - b, fa)
    assert (a == b) == (fa.coords == fb.coords)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    if not fb.is_zero():
        assert_agrees(b.inv(), fb.inv())
        assert_agrees(a / b, fa * fb.inv())


# -- the compiled product against the convolution loop it replaced --------


def loop_mul_int(n, a, b):
    """The integer coordinates of a * b in Q(zeta_n) for integer coordinate
    tuples: the plain convolution, then x^d .. x^(2d-2) replaced by their
    integer reduction rows mod Phi_n, one nonzero coefficient at a time."""
    poly = _cyclotomic_poly(n)
    d = len(poly) - 1
    reduction, row = [], [-c for c in poly[:d]]
    for _ in range(d - 1):
        reduction.append([(i, r) for i, r in enumerate(row) if r])
        carry, row = row[d - 1], [0] + row[: d - 1]
        row = [r - carry * p for r, p in zip(row, poly)]
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                prod[k] += ai * bj
    out = prod[:d]
    for c, terms in zip(prod[d:], reduction):
        if c:
            for i, r in terms:
                out[i] += c * r
    return out


def loop_normal(num, den):
    """num/den reduced to lowest terms, as (num, den): the generic normalisation."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return tuple(num), den


def loop_add(a, b):
    """The generic sum: same-denominator coordinates added, otherwise
    cross-multiplied over da * db, then normalised.  Returns (num, den) and the
    denominator before reduction."""
    da, db = a.den, b.den
    if da == db:
        return loop_normal([x + y for x, y in zip(a.num, b.num)], da), da
    return loop_normal([x * db + y * da for x, y in zip(a.num, b.num)], da * db), da * db


def loop_sub(a, b):
    """The generic difference, shaped as loop_add."""
    da, db = a.den, b.den
    if da == db:
        return loop_normal([x - y for x, y in zip(a.num, b.num)], da), da
    return loop_normal([x * db - y * da for x, y in zip(a.num, b.num)], da * db), da * db


def loop_neg(a):
    """The generic negation: each numerator negated over the same denominator."""
    return tuple(-c for c in a.num), a.den


def seeded_numerators(rng, degree):
    """Zero, one-term, small signed and +-10^12 numerator tuples."""
    kind = rng.choice(("zero", "one-term", "small", "big", "mixed"))
    if kind == "zero":
        return (0,) * degree
    if kind == "one-term":
        num = [0] * degree
        num[rng.randrange(degree)] = rng.choice((-BIG, -1, 1, 7, BIG))
        return tuple(num)
    if kind == "small":
        return tuple(rng.randint(-9, 9) for _ in range(degree))
    if kind == "big":
        return tuple(rng.choice((-BIG, BIG)) + rng.randint(-3, 3) for _ in range(degree))
    return tuple(rng.choice((0, rng.randint(-9, 9), rng.randint(-BIG, BIG))) for _ in range(degree))


def seeded_scalar(ctx, rng):
    """A canonical scalar of ctx with seeded numerators over a denominator
    that is 1 half the time and otherwise shares factors with them."""
    num = seeded_numerators(rng, ctx.degree)
    den = rng.choice((1, 1, 2, 6, 12, 35, BIG))
    return ctx.scalar([Fraction(c, den) for c in num])


# Phi_105 is the first cyclotomic polynomial whose reduction rows have a
# coefficient other than 0 and +-1
@pytest.mark.parametrize("n", [*range(1, 13), 105])
def test_compiled_product_matches_the_loop_oracle(n):
    ctx = make_field(n)
    rng = random.Random(1000 + n)
    for _ in range(300):
        a, b = seeded_scalar(ctx, rng), seeded_scalar(ctx, rng)
        prod = a * b
        assert_canonical(prod)
        num, den = loop_mul_int(n, a.num, b.num), a.den * b.den
        assert [c * prod.den for c in num] == [c * den for c in prod.num]
        if a.den == b.den == 1:
            assert prod.num == tuple(num) and prod.den == 1


@pytest.mark.parametrize("n", [*range(1, 13), 105])
def test_product_by_one_returns_the_other_factor(n):
    # the shared one() and a separately built 1 both take the shortcut
    ctx = make_field(n)
    rng = random.Random(4000 + n)
    ones = (ctx.one(), ctx.scalar([1] + [0] * (ctx.degree - 1)))
    assert ones[0] is not ones[1]
    for _ in range(100):
        x = seeded_scalar(ctx, rng)
        for one in ones:
            for prod in (x * one, one * x):
                # when x is 1 as well, either factor is the product
                assert prod is x or (x.is_one() and prod is one)
                assert_canonical(prod)
                num, den = loop_mul_int(n, one.num, x.num), x.den
                assert [c * prod.den for c in num] == [c * den for c in prod.num]


@pytest.mark.parametrize("n", [*range(1, 13), 105])
def test_compiled_sum_matches_the_loop_oracle(n, monkeypatch):
    # a field compiled with a recording gcd: the compiled sum must normalise
    # by the loop's denominator before reduction, and not at all over 1
    gcd_dens = []

    def recording_gcd(den, *num):
        gcd_dens.append(den)
        return gcd(den, *num)

    monkeypatch.setattr(cyclotomic, "gcd", recording_gcd)
    ctx = FieldContext(n, _cyclotomic_poly(n))
    zero = ((0,) * ctx.degree, 1)
    rng = random.Random(3000 + n)
    branches = set()
    for _ in range(300):
        a, b = seeded_scalar(ctx, rng), seeded_scalar(ctx, rng)
        branches.add(a.den == b.den)
        for op, loop in ((a.__add__, loop_add), (a.__sub__, loop_sub)):
            gcd_dens.clear()
            s = op(b)
            assert_canonical(s)
            expect, den = loop(a, b)
            assert (s.num, s.den) == expect
            assert gcd_dens == ([den] if den != 1 else [])
        neg = -a
        assert_canonical(neg)
        assert (neg.num, neg.den) == loop_neg(a)
        for cancel in (a + neg, a - a):
            assert_canonical(cancel)
            assert (cancel.num, cancel.den) == zero
    assert branches == {True, False}


@pytest.mark.parametrize("n", (5, 7, 9, 12))
def test_inverse_round_trip_in_degree_4_and_6(n):
    ctx = make_field(n)
    rng = random.Random(2000 + n)
    for _ in range(60):
        a = seeded_scalar(ctx, rng)
        if not a:
            continue
        inv = a.inv()
        assert_canonical(inv)
        assert (a * inv).is_one() and (inv * a).is_one()
        assert inv.inv() == a
        assert_agrees(inv, FractionScalar(n, a.coords).inv())
