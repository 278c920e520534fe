"""Exact scalars and small ring-generic vector helpers.

The ground field is the rationals, represented by ``fractions.Fraction``
(always in lowest terms, positive denominator).  Scalars serialize as
``"p/q"`` strings, or bare integers when the denominator is 1.

``DualNumber`` implements the truncated polynomial ring k[t]/(t^2): pairs
(a, b) standing for a + b*t with (a + b*t)(c + d*t) = ac + (ad + bc)t.
All axiom checkers in this package use only ring operations (+, -, *),
so they run unchanged over either scalar type.

Exact decisions run in int arithmetic (tens of nanoseconds an operation,
against microseconds for Fraction): ``common_denominator`` gives the least
common denominator D of a tensor and ``scaled_int`` the int D * x, for the
Jacobiator kernel (``lie``), the stencil (``stencil``), the bracket kernel
(``bracket``) and a cochain under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import MalformedTensor


def parse_rational(value) -> Fraction:
    """Parse an int or a "p/q" string into an exact Fraction.

    Rejects floats (inexact) and zero denominators.
    """
    if isinstance(value, bool):
        raise MalformedTensor(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                n = int(num)
                d = int(den)
            except ValueError:
                raise MalformedTensor(f"not a rational: {value!r}") from None
            if d == 0:
                raise MalformedTensor(f"zero denominator: {value!r}")
            return Fraction(n, d)
        try:
            return Fraction(int(text))
        except ValueError:
            raise MalformedTensor(f"not a rational: {value!r}") from None
    raise MalformedTensor(f"not a rational: {value!r}")


def format_rational(x) -> str | int:
    """Serialize a Fraction as an int (denominator 1) or a "p/q" string."""
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


class DualNumber:
    """Element a + b*t of the ring k[t]/(t^2) over exact rationals.

    Int and Fraction components keep their type (int components compute
    in ints); any other input is read by ``Fraction``.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is int or type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is int or type(b) is Fraction else Fraction(b)

    @classmethod
    def promote(cls, x) -> "DualNumber":
        if isinstance(x, DualNumber):
            return x
        return cls(x)

    def __add__(self, other):
        other = DualNumber.promote(other)
        return DualNumber(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = DualNumber.promote(other)
        return DualNumber(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return DualNumber.promote(other) - self

    def __neg__(self):
        return DualNumber(-self.a, -self.b)

    def __mul__(self, other):
        other = DualNumber.promote(other)
        return DualNumber(self.a * other.a, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DualNumber(other)
        if not isinstance(other, DualNumber):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"DualNumber({self.a}, {self.b})"


def common_denominator(*tensors) -> int:
    """The least common denominator of every scalar of nested lists of
    ints and Fractions (1 when all are ints); any other scalar, such as a
    DualNumber, raises TypeError."""
    out = 1
    stack = list(tensors)
    while stack:
        t = stack.pop()
        if type(t) is list:
            stack.extend(t)
        elif type(t) is Fraction:
            out = lcm(out, t.denominator)
        elif type(t) is not int:
            raise TypeError(f"scaling to ints needs int or Fraction scalars, "
                            f"not {type(t).__name__}")
    return out


def scaled_int(x, scale: int) -> int:
    """x * scale as an int, for an int or Fraction x whose denominator
    divides scale."""
    if type(x) is int:
        return x * scale
    return x.numerator * (scale // x.denominator)


# -- ring-generic vector helpers (plain lists of scalars) --


def vzero(n):
    return [0] * n


def zero_tensor(shape):
    """Nested lists of int zeros of the given shape."""
    if len(shape) == 1:
        return [0] * shape[0]
    return [zero_tensor(shape[1:]) for _ in range(shape[0])]


def vbasis(n, i):
    """The i-th standard basis vector of length n."""
    v = vzero(n)
    v[i] = 1
    return v


def vneg(u):
    return [-a for a in u]


def vaccum(acc, c, u):
    """acc += c * u in place; returns acc."""
    if type(c) is int and c == 1:
        # 1 * a has the value and type of a, for every scalar type here
        for i, a in enumerate(u):
            if a:
                acc[i] = acc[i] + a
        return acc
    for i, a in enumerate(u):
        if a:
            acc[i] = acc[i] + c * a
    return acc


def vaccum_at(table, key, c, u, n):
    """table[key] += c * u in place, table[key] starting as the zero vector
    of length n; returns table[key]."""
    acc = table.get(key)
    if acc is None:
        acc = table[key] = [0] * n
    return vaccum(acc, c, u)


def vcombine(coeffs, vectors, n):
    """The length-n sum of c * vectors[k] over the nonzero coeffs[k] = c;
    vectors[k] is not read where coeffs[k] is zero."""
    out = [0] * n
    for k, c in enumerate(coeffs):
        if c:
            # vaccum(out, c, vectors[k]), inlined: this is the innermost loop
            # of every action and pairing accessor
            for i, a in enumerate(vectors[k]):
                if a:
                    out[i] = out[i] + c * a
    return out


def vis_zero(u) -> bool:
    return all(not a for a in u)
