"""Exact arithmetic in cyclotomic fields Q(zeta_n).

The field is realised as Q[x]/(Phi_n(x)) in the power basis
1, zeta, ..., zeta^(phi(n)-1).  Coordinates are `fractions.Fraction`
values, so every operation is exact and eagerly normalised.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_n, constant term first, by dividing x^n - 1
    by Phi_d for every proper divisor d of n."""
    numerator = [_ZERO] * (n + 1)
    numerator[0] = -_ONE
    numerator[n] = _ONE
    poly = numerator
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(_cyclotomic_poly(d)))
            if any(rem):
                raise ArithmeticError("polynomial division left a remainder")
    return tuple(poly)


class FieldContext:
    """The field Q(zeta_n) with zeta_n a primitive n-th root of unity."""

    __slots__ = ("conductor", "poly", "degree", "_reduction", "_zeta_cache", "_zero", "_one")

    def __init__(self, conductor: int, poly: tuple[Fraction, ...]):
        self.conductor = conductor
        self.poly = poly
        self.degree = len(poly) - 1
        # x^(degree + k) mod Phi_n for k = 0 .. degree - 2, as coordinate rows
        self._reduction: list[tuple[Fraction, ...]] = []
        self._zeta_cache: dict[int, "Scalar"] = {}
        self._build_reduction()
        # scalars are immutable, so every zero() and one() is one shared object
        self._zero = self.from_rational(0)
        self._one = self.from_rational(1)

    def _build_reduction(self) -> None:
        d = self.degree
        # x^d = -(poly[0] + poly[1] x + ... + poly[d-1] x^(d-1)), since Phi is monic
        row = [-c for c in self.poly[:d]]
        for _ in range(max(0, d - 1)):
            self._reduction.append(tuple(row))
            carry = row[d - 1]
            row = [_ZERO] + row[: d - 1]
            if carry != 0:
                red0 = self._reduction[0]
                row = [row[i] + carry * red0[i] for i in range(d)]

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldContext) and other.conductor == self.conductor

    def __hash__(self) -> int:
        return hash(("FieldContext", self.conductor))

    def __repr__(self) -> str:
        return f"FieldContext(Q(zeta_{self.conductor}))"

    def scalar(self, coords) -> "Scalar":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(coords)}")
        return Scalar(self, coords)

    def from_rational(self, r) -> "Scalar":
        c = [_ZERO] * self.degree
        c[0] = Fraction(r)
        return Scalar(self, tuple(c))

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one


@lru_cache(maxsize=None)
def make_field(n: int) -> FieldContext:
    """Build Q(zeta_n).  Phi_n is computed by the divisor recursion and
    the recursion is validated by prod_{d|n} Phi_d = x^n - 1."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    return FieldContext(n, _cyclotomic_poly(n))


def _check_same_context(a: "Scalar", b: "Scalar") -> None:
    if a.ctx.conductor != b.ctx.conductor:
        raise ValueError(
            f"mixed field contexts: Q(zeta_{a.ctx.conductor}) vs Q(zeta_{b.ctx.conductor})"
        )


class Scalar:
    """Element of Q(zeta_n) in the power basis of its FieldContext."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: FieldContext, coords: tuple[Fraction, ...]):
        self.ctx = ctx
        self.coords = coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_one(self) -> bool:
        return self.coords[0] == 1 and all(c == 0 for c in self.coords[1:])

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: "Scalar") -> "Scalar":
        _check_same_context(self, other)
        a, b = self.coords, other.coords
        return Scalar(self.ctx, tuple(a[i] + b[i] for i in range(len(a))))

    def __sub__(self, other: "Scalar") -> "Scalar":
        _check_same_context(self, other)
        a, b = self.coords, other.coords
        return Scalar(self.ctx, tuple(a[i] - b[i] for i in range(len(a))))

    def __neg__(self) -> "Scalar":
        return Scalar(self.ctx, tuple(-c for c in self.coords))

    def __mul__(self, other: "Scalar") -> "Scalar":
        _check_same_context(self, other)
        d = self.ctx.degree
        a, b = self.coords, other.coords
        prod = [_ZERO] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj != 0:
                    prod[i + j] += ai * bj
        out = prod[:d]
        reduction = self.ctx._reduction
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c != 0:
                row = reduction[k - d]
                for i in range(d):
                    if row[i] != 0:
                        out[i] += c * row[i]
        return Scalar(self.ctx, tuple(out))

    def scale(self, r) -> "Scalar":
        r = Fraction(r)
        return Scalar(self.ctx, tuple(c * r for c in self.coords))

    def inv(self) -> "Scalar":
        """Inverse by the extended Euclidean algorithm on (self, Phi_n).

        Invariant: u_i * self = r_i (mod Phi_n).  Phi_n is irreducible, so
        the gcd is a nonzero constant and u0/gcd is the inverse.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        d = self.ctx.degree
        r0 = list(self.ctx.poly)
        r1 = _poly_trim(list(self.coords))
        u0: list[Fraction] = [_ZERO]
        u1: list[Fraction] = [_ONE]
        while not (len(r1) == 1 and r1[0] == 0):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
        g = r0[0]
        if len(r0) != 1 or g == 0:
            raise ArithmeticError("element not invertible; Phi_n should be irreducible")
        _, u0 = _poly_divmod(u0, list(self.ctx.poly))
        coords = [c / g for c in u0]
        coords = (coords + [_ZERO] * d)[:d]
        return Scalar(self.ctx, tuple(coords))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        _check_same_context(self, other)
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.ctx.conductor, self.coords))

    def __repr__(self) -> str:
        return f"Scalar({self.ctx.conductor}; {list(self.coords)})"


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    b = _poly_trim(list(b))
    db = len(b) - 1
    lead = b[-1]
    if len(a) - 1 < db:
        return [_ZERO], _poly_trim(a)
    q = [_ZERO] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db] / lead
        q[i] = c
        if c != 0:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return _poly_trim(q), _poly_trim(a)


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    m = max(len(a), len(b))
    a = a + [_ZERO] * (m - len(a))
    b = b + [_ZERO] * (m - len(b))
    return _poly_trim([a[i] - b[i] for i in range(m)])


def zeta_power(ctx: FieldContext, k: int) -> Scalar:
    """zeta_n^k in the power basis (k is reduced mod n)."""
    k = k % ctx.conductor
    cached = ctx._zeta_cache.get(k)
    if cached is not None:
        return cached
    d = ctx.degree
    if d >= 2:
        base = Scalar(ctx, tuple([_ZERO, _ONE] + [_ZERO] * (d - 2)))
    else:
        # Phi_n linear and monic: zeta = -poly[0]
        base = Scalar(ctx, (-ctx.poly[0],))
    s = ctx.one()
    for i in range(k + 1):
        ctx._zeta_cache.setdefault(i, s)
        if i < k:
            s = s * base
    return ctx._zeta_cache[k]


def rational_str(r: Fraction) -> str:
    """Serialise a rational as "num/den", omitting a denominator of 1."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def scalar_to_strings(s: Scalar) -> list[str]:
    return [rational_str(c) for c in s.coords]


def scalar_from_strings(ctx: FieldContext, parts) -> Scalar:
    return ctx.scalar([Fraction(p) for p in parts])
