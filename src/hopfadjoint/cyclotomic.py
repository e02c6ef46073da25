"""Exact arithmetic in cyclotomic fields Q(zeta_n).

The field is realised as Q[x]/(Phi_n(x)) in the power basis
1, zeta, ..., zeta^(phi(n)-1).  A scalar is a tuple of integer
numerators over one positive common denominator, kept in lowest terms
(gcd(den, *num) == 1, zero is (0, ..., 0)/1), so the representation is
canonical and every operation is exact and normalised once, as in
fraction-free elimination.  Phi_n is monic with integer coefficients, so
the reduction rows and the Galois conjugation rows are integral too.

Each field compiles its product once, from the reduction rows of Phi_n:
one straight-line function of the two numerator tuples that folds the
reduction into the convolution and normalises inline.  It is the only
multiplication, in every degree, and the inverse forms its conjugate
products and norm with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable

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


def _compile_product(ctx: "FieldContext", reduction) -> Callable[["Scalar", "Scalar"], "Scalar"]:
    """The product of two scalars of ctx as one straight-line function: the
    convolution of x.num and y.num, with t_k, the coefficient of x^(d+k), spread
    by its integer reduction row, then normalised inline by gcd(den, *num).
    The source holds only local names and the integers of the rows."""
    d = ctx.degree
    a, b, n = (", ".join(f"{v}{i}" for i in range(d)) for v in "abn")
    conv = [" + ".join(f"a{i} * b{m - i}" for i in range(max(0, m - d + 1), min(m, d - 1) + 1))
            for m in range(2 * d - 1)]
    src = [f"def mul(x, y):\n    {a}, = x.num\n    {b}, = y.num"]
    src += [f"    t{k} = {conv[d + k]}" for k in range(d - 1)]
    for i in range(d):
        line = f"    n{i} = {conv[i]}"
        for k, row in enumerate(reduction):
            if c := row[i]:
                line += f" {'+' if c > 0 else '-'} {'' if abs(c) == 1 else f'{abs(c)} * '}t{k}"
        src.append(line)
    reduced = ", ".join(f"n{i} // g" for i in range(d))
    src.append(f"    den = x.den * y.den\n    if den != 1:\n        g = gcd(den, {n})\n"
               f"        if g != 1:\n            return Scalar(ctx, ({reduced},), den // g)\n"
               f"    return Scalar(ctx, ({n},), den)")
    namespace = {"ctx": ctx, "Scalar": Scalar, "gcd": gcd}
    exec(compile("\n".join(src), f"<Q(zeta_{ctx.conductor}) product>", "exec"), namespace)
    return namespace["mul"]


class FieldContext:
    """The field Q(zeta_n) with zeta_n a primitive n-th root of unity."""

    __slots__ = ("conductor", "poly", "degree", "_mul", "_conjugates", "_zetas", "_zero", "_one")

    def __init__(self, conductor: int, poly: tuple[int, ...]):
        self.conductor = conductor
        self.poly = poly
        d = self.degree = len(poly) - 1
        # x^m mod Phi_n for m < max(n, 2d - 1), as integer rows: x^d = -(poly[0] + ... +
        # poly[d-1] x^(d-1)), since Phi_n is monic
        powers = [tuple(int(i == 0) for i in range(d))]
        for _ in range(max(conductor, 2 * d - 1) - 1):
            prev = powers[-1]
            carry = prev[d - 1]
            row = (0,) + prev[: d - 1]
            powers.append(tuple(row[i] - carry * poly[i] for i in range(d)))
        self._mul = _compile_product(self, powers[d: 2 * d - 1])
        # sigma_k(zeta^i) = zeta^(i k) for every unit k != 1 mod n: the nonzero terms
        # (i, j, c) of the other Galois conjugates, whose product over the norm is the inverse
        self._conjugates = [[(i, j, c) for i in range(d) for j, c in enumerate(powers[i * k % conductor]) if c]
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
        return self.ctx._mul(self, other)

    def scale(self, r) -> "Scalar":
        p, q = _ratio(r)
        return _normal(self.ctx, [c * p for c in self.num], self.den * q)

    def inv(self) -> "Scalar":
        """Inverse as den * adj(num) / N(num): adj is the product of the
        other Galois conjugates of num, and the norm N(num) = num * adj(num)
        is a nonzero integer.  Both products are integral ones of the field."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        ctx = self.ctx
        num, den = self.num, self.den
        adj = ctx._one
        for terms in ctx._conjugates:
            conj = [0] * ctx.degree
            for i, j, c in terms:
                conj[j] += num[i] * c
            adj = ctx._mul(adj, Scalar(ctx, tuple(conj), 1))
        norm = ctx._mul(Scalar(ctx, num, 1), adj).num[0]
        if norm < 0:
            norm, den = -norm, -den
        return _normal(ctx, [c * den for c in adj.num], norm)

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
