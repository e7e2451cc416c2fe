"""Exact univariate polynomials in the Hecke parameter q.

Rational coefficients are exact: a coefficient is an `int` while it is
integral and a `fractions.Fraction` otherwise, so every identity checked
downstream is a polynomial identity over Q, and the T-basis products,
whose coefficients lie in Z[q], never build a `Fraction`.  Complex
coefficients are tolerated (they appear only when a central character
takes irrational values) but never silently mixed into rational
computations.
"""

from __future__ import annotations

from fractions import Fraction


def _as_coeff(c):
    """An int stays an int, a whole Fraction becomes one, any other
    Fraction is kept as it is; floats and complex numbers become complex."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, (float, complex)):
        return complex(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class QPoly:
    """Polynomial in q; index of `coeffs` is the degree, trailing zeros dropped.

    >>> p = QPoly([1, 1]) * QPoly([1, 1, 1])
    >>> print(p)
    q^3 + 2*q^2 + 2*q + 1
    >>> p(2)
    Fraction(21, 1)
    >>> (QPoly.gen() - QPoly.gen()).is_zero()
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls((c,))

    @classmethod
    def gen(cls) -> "QPoly":
        """The polynomial q."""
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return self.coeffs[0] if self.coeffs else 0

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return QPoly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return QPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = QPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None  # mutable-free but equality is by value; not for dict keys

    def __call__(self, q):
        """Evaluate at q (Horner), as a Fraction for rational q; in ints
        when q and every coefficient are ints."""
        ints = type(q) is int and all(type(c) is int for c in self.coeffs)
        acc = 0 if ints else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return Fraction(acc) if ints else acc

    def __repr__(self):
        return f"QPoly({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                qk = "q" if k == 1 else f"q^{k}"
                term = qk if c == 1 else (f"-{qk}" if c == -1 else f"{c}*{qk}")
            parts.append(term)
        s = parts[0]
        for term in parts[1:]:
            s += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return s


def _coerce(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    return QPoly.const(x)


def geometric(k: int) -> QPoly:
    """1 + q + ... + q^k."""
    return QPoly([1] * (k + 1))
