"""Exact arithmetic in cyclotomic fields Q(zeta_n).

The field is realised as Q[x]/(Phi_n(x)) in the power basis
1, zeta, ..., zeta^(phi(n)-1).  A scalar is a tuple of integer
numerators over one positive common denominator, kept in lowest terms
(gcd(den, *num) == 1, zero is (0, ..., 0)/1), so the representation is
canonical and every operation is exact and normalised once, as in
fraction-free elimination.  Phi_n is monic with integer coefficients, so
the reduction rows and the Galois conjugation rows are integral too.

Each field compiles, once, its own Scalar subclass, whose +, -, unary -
and * are straight-line functions of the numerator tuples: the product
folds the reduction rows of Phi_n into the convolution, the sum and the
difference take one branch on equal denominators, and each normalises
inline.  They are the only arithmetic, in every degree; every scalar is
built as an instance of its field's class, and the inverse forms its
conjugate products and norm with *.

When one factor is 1, the product returns the other factor itself, after
the check that both belong to one field: scalars are immutable and
canonical, so this is exact.  The structure constants of the Taft
algebra, of K(d, xi) and of kC_n are roots of unity, so most products
multiply by 1: in one pass of the benchmark 66% of the products of
module-n4, 58% of taft-relative-n5, 74% of dimension-sweep-n4 and 77% of
braided-n4.  Shortcuts for -1 and for the other powers of zeta, and a
compiled == and is_zero, were measured on top of this one and gained
nothing, so they are left out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

_new = object.__new__


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


def _compile_scalar_class(ctx: "FieldContext", reduction) -> type:
    """The Scalar subclass of ctx, whose +, -, unary - and * are straight-line
    functions of the numerator tuples.  The product is the convolution of
    x.num and y.num with t_k, the coefficient of x^(d+k), spread by its
    integer reduction row; the sum and difference take one branch on equal
    denominators; the product returns the other factor when one factor is 1,
    the tuple of 1 written as a literal.  Each normalises inline by
    gcd(den, *num), as _normal does, and builds its result without calling
    a constructor.  The source holds only local names and the integers of
    the rows."""
    d = ctx.degree
    a, b, n = (", ".join(f"{v}{i}" for i in range(d)) for v in "abn")

    def normalise(den: str, pad: str) -> list[str]:
        reduced = ", ".join(f"n{i} // g" for i in range(d))
        return [f"{pad}g = gcd({den}, {n})", f"{pad}if g != 1:", f"{pad}    s.num = ({reduced},)",
                f"{pad}    s.den = {den} // g", f"{pad}    return s"]

    def store(den: str, pad: str) -> list[str]:
        return [f"{pad}s.num = ({n},)", f"{pad}s.den = {den}", f"{pad}return s"]

    def binary(name: str, *shortcut: str) -> list[str]:
        return [f"def {name}(x, y):", "    if type(y) is not cls:", "        _check_same_context(x, y)",
                *shortcut, f"    {a}, = x.num", f"    {b}, = y.num", "    s = new(cls)"]

    conv = [" + ".join(f"a{i} * b{m - i}" for i in range(max(0, m - d + 1), min(m, d - 1) + 1))
            for m in range(2 * d - 1)]
    # a factor of 1 returns the other one, which is already canonical
    one = (1,) + (0,) * (d - 1)
    src = binary("mul", f"    if y.den == 1 and y.num == {one}:", "        return x",
                 f"    if x.den == 1 and x.num == {one}:", "        return y")
    src += [f"    t{k} = {conv[d + k]}" for k in range(d - 1)]
    for i in range(d):
        line = f"    n{i} = {conv[i]}"
        for k, row in enumerate(reduction):
            if c := row[i]:
                line += f" {'+' if c > 0 else '-'} {'' if abs(c) == 1 else f'{abs(c)} * '}t{k}"
        src.append(line)
    src += ["    den = x.den * y.den", "    if den != 1:", *normalise("den", " " * 8), *store("den", "    ")]
    for name, op in (("add", "+"), ("sub", "-")):
        # the product of two distinct positive denominators is at least 2
        src += binary(name) + ["    da = x.den", "    db = y.den", "    if da == db:"]
        src += [f"        n{i} = a{i} {op} b{i}" for i in range(d)]
        src += ["        if da != 1:", *normalise("da", " " * 12), *store("da", " " * 8)]
        src += [f"    n{i} = a{i} * db {op} b{i} * da" for i in range(d)]
        src += ["    den = da * db", *normalise("den", "    "), *store("den", "    ")]
    src += ["def neg(x):", f"    {a}, = x.num", "    s = new(cls)",
            f"    s.num = ({', '.join(f'-a{i}' for i in range(d))},)", "    s.den = x.den", "    return s"]
    namespace = {"new": _new, "gcd": gcd, "_check_same_context": _check_same_context}
    exec(compile("\n".join(src), f"<Q(zeta_{ctx.conductor}) arithmetic>", "exec"), namespace)
    cls = namespace["cls"] = type("Scalar", (Scalar,), {
        "__slots__": (), "__module__": __name__, "__qualname__": f"Scalar[Q(zeta_{ctx.conductor})]",
        "ctx": ctx, "__mul__": namespace["mul"], "__add__": namespace["add"],
        "__sub__": namespace["sub"], "__neg__": namespace["neg"]})
    return cls


class FieldContext:
    """The field Q(zeta_n) with zeta_n a primitive n-th root of unity."""

    __slots__ = ("conductor", "poly", "degree", "scalar_type", "_conjugates", "_zetas", "_zero", "_one")

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
        cls = self.scalar_type = _compile_scalar_class(self, powers[d: 2 * d - 1])
        # sigma_k(zeta^i) = zeta^(i k) for every unit k != 1 mod n: the nonzero terms
        # (i, j, c) of the other Galois conjugates, whose product over the norm is the inverse
        self._conjugates = [[(i, j, c) for i in range(d) for j, c in enumerate(powers[i * k % conductor]) if c]
                            for k in range(2, conductor) if gcd(k, conductor) == 1]
        # scalars are immutable, so every zero(), one() and zeta power is one shared object
        self._zetas = [_make(cls, powers[k], 1) for k in range(conductor)]
        self._zero = _make(cls, (0,) * d, 1)
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
        return _make(self.scalar_type, (p,) + (0,) * (self.degree - 1), q)

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


def _make(cls: type, num: tuple[int, ...], den: int) -> "Scalar":
    """The scalar num/den of the compiled class cls, already in lowest terms."""
    s = _new(cls)
    s.num = num
    s.den = den
    return s


def _normal(ctx: FieldContext, num, den: int) -> "Scalar":
    """The scalar num/den for den > 0, reduced to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return _make(ctx.scalar_type, tuple(c // g for c in num), den // g)
    return _make(ctx.scalar_type, tuple(num), den)


class Scalar:
    """Element num/den of Q(zeta_n) in the power basis of its FieldContext:
    integer numerators over one positive denominator, in lowest terms.

    Every scalar is an instance of its field's compiled subclass
    (FieldContext.scalar_type), which holds ctx as a class attribute and
    defines +, -, unary - and *; this base class keeps what does not depend
    on the field, and is never instantiated itself."""

    __slots__ = ("num", "den")
    ctx: FieldContext

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

    def scale(self, r) -> "Scalar":
        p, q = _ratio(r)
        return _normal(self.ctx, [c * p for c in self.num], self.den * q)

    def inv(self) -> "Scalar":
        """Inverse as den * adj(num) / N(num): adj is the product of the
        other Galois conjugates of num, and the norm N(num) = num * adj(num)
        is a nonzero integer.  Both products are integral ones of the field."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        ctx, cls = self.ctx, type(self)
        num, den = self.num, self.den
        adj = ctx._one
        for terms in ctx._conjugates:
            conj = [0] * ctx.degree
            for i, j, c in terms:
                conj[j] += num[i] * c
            adj = adj * _make(cls, tuple(conj), 1)
        norm = (_make(cls, num, 1) * adj).num[0]
        if norm < 0:
            norm, den = -norm, -den
        return _normal(ctx, [c * den for c in adj.num], norm)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            if not isinstance(other, Scalar):
                return NotImplemented
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
