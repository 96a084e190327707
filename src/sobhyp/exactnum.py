"""Exact rational scalars and dense univariate polynomials.

A polynomial is a tuple of `fractions.Fraction` coefficients in
degree-ascending order with trailing zeros stripped, so the zero polynomial
is the empty tuple and every nonzero polynomial has a nonzero last entry.
The zero polynomial reports degree ``None`` rather than a numeric sentinel:
code that tries to do arithmetic with the degree of zero fails loudly
instead of silently producing an off-by-one.

Everything here is immutable and hashable, which lets higher layers memoize
constructions keyed on polynomials and operators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

__all__ = ["Poly", "Rational", "as_rational", "pochhammer"]

Rational = Fraction


def as_rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce to an exact rational; floats are rejected on purpose.

    Accepting floats here would quietly launder binary rounding error into
    the exact pipeline (``Fraction(0.1)`` is not one tenth).  Callers with
    genuinely inexact data should use the float code paths instead.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (int, str, or Fraction), got {type(value).__name__}"
    )


def pochhammer(c, k: int):
    """Rising factorial (c)_k = c (c+1) ... (c+k-1), with (c)_0 = 1.

    The scalar type of ``c`` is preserved: exact inputs give exact results.
    """
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    out = 1
    for i in range(k):
        out = out * (c + i)
    return out


class Poly:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Union[int, str, Fraction]] = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def monomial(cls, k: int, coeff: Union[int, str, Fraction] = 1) -> "Poly":
        """coeff * x**k"""
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls([0] * k + [coeff])

    @property
    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        """Leading coefficient; undefined for the zero polynomial."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x**k (zero beyond the stored length)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([other])
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = Poly([1])
        for _ in range(exponent):
            out = out * self
        return out

    def derivative(self, order: int = 1) -> "Poly":
        """Exact derivative of the given order (order 0 is the identity)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(i * c for i, c in enumerate(cs) if i > 0)
        return Poly(cs)

    def __call__(self, x):
        """Evaluate by Horner's rule.

        The result type follows the point: Fraction points stay exact,
        float/complex points give float/complex values, and evaluating at
        another Poly composes the two polynomials.
        """
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __eq__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self.coeffs == q.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"
