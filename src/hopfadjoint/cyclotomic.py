"""Exact arithmetic in cyclotomic fields Q(zeta_n).

The field is realised as Q[x]/(Phi_n(x)) in the power basis
1, zeta, ..., zeta^(phi(n)-1).  A scalar is a tuple of integer
numerators over one positive common denominator, kept in lowest terms
(gcd(den, *num) == 1, zero is (0, ..., 0)/1), so the representation is
canonical and every operation is exact and normalised once, as in
fraction-free elimination.  Phi_n is monic with integer coefficients, so
the reduction rows and the Galois conjugation rows are integral too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rational = Fraction


def _poly_divmod(a: list[int], b: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic integer polynomial b
    (coefficients constant term first)."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(1, len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = q[i] = a[i + db]
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return q, a[:db]


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, by dividing x^n - 1
    by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic_poly(d))
            if any(rem):
                raise ArithmeticError("polynomial division left a remainder")
    return tuple(poly)


def _ratio(r) -> tuple[int, int]:
    """Numerator and positive denominator, in lowest terms, of a rational
    input (an int, a Fraction, or anything Fraction accepts)."""
    if isinstance(r, int):
        return int(r), 1
    r = Fraction(r)
    return r.numerator, r.denominator


class FieldContext:
    """The field Q(zeta_n) with zeta_n a primitive n-th root of unity."""

    __slots__ = ("conductor", "poly", "degree", "_p0", "_p1", "_reduction", "_conjugates",
                 "_zetas", "_zero", "_one")

    def __init__(self, conductor: int, poly: tuple[int, ...]):
        self.conductor = conductor
        self.poly = poly
        d = self.degree = len(poly) - 1
        # Phi_n = x^2 + p1 x + p0 in degree 2
        self._p0, self._p1 = (poly[0], poly[1]) if d == 2 else (0, 0)
        # x^m mod Phi_n for m < max(n, 2d - 1), as integer rows: x^d = -(poly[0] + ... +
        # poly[d-1] x^(d-1)), since Phi_n is monic
        powers = [tuple(int(i == 0) for i in range(d))]
        for _ in range(max(conductor, 2 * d - 1) - 1):
            prev = powers[-1]
            carry = prev[d - 1]
            row = (0,) + prev[: d - 1]
            powers.append(tuple(row[i] - carry * poly[i] for i in range(d)))
        # the nonzero (i, coefficient) terms of x^(d + k) for k = 0 .. d - 2
        self._reduction = [[(i, c) for i, c in enumerate(powers[m]) if c] for m in range(d, 2 * d - 1)]
        # sigma_k(zeta^i) = zeta^(i k) for every unit k != 1 mod n: the rows of the
        # other Galois conjugates, whose product over the norm is the inverse
        self._conjugates = [[powers[i * k % conductor] for i in range(d)]
                            for k in range(2, conductor) if gcd(k, conductor) == 1]
        # scalars are immutable, so every zero(), one() and zeta power is one shared object
        self._zetas = [Scalar(self, powers[k], 1) for k in range(conductor)]
        self._zero = Scalar(self, (0,) * d, 1)
        self._one = self._zetas[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldContext) and other.conductor == self.conductor

    def __hash__(self) -> int:
        return hash(("FieldContext", self.conductor))

    def __repr__(self) -> str:
        return f"FieldContext(Q(zeta_{self.conductor}))"

    def scalar(self, coords) -> "Scalar":
        pairs = [_ratio(c) for c in coords]
        if len(pairs) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(pairs)}")
        den = lcm(*(q for _, q in pairs))
        return _normal(self, [p * (den // q) for p, q in pairs], den)

    def from_rational(self, r) -> "Scalar":
        p, q = _ratio(r)
        return Scalar(self, (p,) + (0,) * (self.degree - 1), q)

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def _mul_int(self, a, b) -> list[int]:
        """The integer coordinates of a * b for integer coordinate tuples:
        a convolution reduced by the rows of x^d .. x^(2d-2)."""
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    prod[k] += ai * bj
        out = prod[:d]
        for c, row in zip(prod[d:], self._reduction):
            if c:
                for i, r in row:
                    out[i] += c * r
        return out


@lru_cache(maxsize=None)
def make_field(n: int) -> FieldContext:
    """Build Q(zeta_n).  Phi_n is computed by the divisor recursion, which
    checks that every division by Phi_d is exact."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    return FieldContext(n, _cyclotomic_poly(n))


def _check_same_context(a: "Scalar", b: "Scalar") -> None:
    if a.ctx.conductor != b.ctx.conductor:
        raise ValueError(
            f"mixed field contexts: Q(zeta_{a.ctx.conductor}) vs Q(zeta_{b.ctx.conductor})"
        )


def _normal(ctx: FieldContext, num, den: int) -> "Scalar":
    """The scalar num/den for den > 0, reduced to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return Scalar(ctx, tuple(c // g for c in num), den // g)
    return Scalar(ctx, tuple(num), den)


class Scalar:
    """Element num/den of Q(zeta_n) in the power basis of its FieldContext:
    integer numerators over one positive denominator, in lowest terms."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: FieldContext, num: tuple[int, ...], den: int):
        self.ctx = ctx
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions (for reading, not arithmetic)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num == self.ctx._one.num

    def __bool__(self) -> bool:
        return any(self.num)

    def __add__(self, other: "Scalar") -> "Scalar":
        if other.ctx is not self.ctx:
            _check_same_context(self, other)
        da, db = self.den, other.den
        if da == db:
            return _normal(self.ctx, [x + y for x, y in zip(self.num, other.num)], da)
        return _normal(self.ctx, [x * db + y * da for x, y in zip(self.num, other.num)], da * db)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if other.ctx is not self.ctx:
            _check_same_context(self, other)
        da, db = self.den, other.den
        if da == db:
            return _normal(self.ctx, [x - y for x, y in zip(self.num, other.num)], da)
        return _normal(self.ctx, [x * db - y * da for x, y in zip(self.num, other.num)], da * db)

    def __neg__(self) -> "Scalar":
        return Scalar(self.ctx, tuple(-c for c in self.num), self.den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if other.ctx is not self.ctx:
            _check_same_context(self, other)
        ctx = self.ctx
        d = ctx.degree
        if d == 2:
            a0, a1 = self.num
            b0, b1 = other.num
            t = a1 * b1
            num = (a0 * b0 - ctx._p0 * t, a0 * b1 + a1 * b0 - ctx._p1 * t)
        else:
            num = ctx._mul_int(self.num, other.num)
        return _normal(ctx, num, self.den * other.den)

    def scale(self, r) -> "Scalar":
        p, q = _ratio(r)
        return _normal(self.ctx, [c * p for c in self.num], self.den * q)

    def inv(self) -> "Scalar":
        """Inverse as den * adj(num) / N(num): adj is the product of the
        other Galois conjugates of num (the conjugate in degree 2), and the
        norm N(num) = num * adj(num) is a nonzero integer."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        ctx = self.ctx
        num, den = self.num, self.den
        d = ctx.degree
        if d == 2:
            a0, a1 = num
            adj = (a0 - ctx._p1 * a1, -a1)
            norm = a0 * a0 - ctx._p1 * a0 * a1 + ctx._p0 * a1 * a1
        else:
            adj = ctx._one.num
            for rows in ctx._conjugates:
                conj = [0] * d
                for a, row in zip(num, rows):
                    if a:
                        for i, r in enumerate(row):
                            conj[i] += a * r
                adj = ctx._mul_int(adj, conj)
            norm = ctx._mul_int(num, adj)[0]
        if norm < 0:
            norm, den = -norm, -den
        return _normal(ctx, [c * den for c in adj], norm)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.ctx is not self.ctx:
            _check_same_context(self, other)
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.ctx.conductor, self.num, self.den))

    def __repr__(self) -> str:
        return f"Scalar({self.ctx.conductor}; {list(self.coords)})"


def zeta_power(ctx: FieldContext, k: int) -> Scalar:
    """zeta_n^k in the power basis (k is reduced mod n)."""
    return ctx._zetas[k % ctx.conductor]


def rational_str(r: Fraction) -> str:
    """Serialise a rational as "num/den", omitting a denominator of 1."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def scalar_to_strings(s: Scalar) -> list[str]:
    """Each coordinate as "num/den" in lowest terms, from the integers."""
    den = s.den
    if den == 1:
        return [str(c) for c in s.num]
    out = []
    for c in s.num:
        g = gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out


def scalar_from_strings(ctx: FieldContext, parts) -> Scalar:
    return ctx.scalar(parts)
