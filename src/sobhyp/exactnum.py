"""Exact rational scalars and dense univariate polynomials.

A polynomial is stored as FLINT's ``fmpq_poly`` stores it: a tuple of
integer numerators in degree-ascending order over one positive integer
denominator.  The form is canonical -- trailing zeros stripped, the
numerators and the denominator without a common factor, the zero polynomial
the empty tuple over 1 -- so two polynomials are equal exactly when their
fields are.  Arithmetic runs on Python ints and reduces each result once by
its content, instead of paying a gcd for every coefficient operation as
``fractions.Fraction`` coefficients would; ``Poly.coeffs`` still presents
the coefficients as Fractions, built on first use.
The zero polynomial reports degree ``None`` rather than a numeric sentinel:
code that tries to do arithmetic with the degree of zero fails loudly
instead of silently producing an off-by-one.

Everything here is immutable and hashable, which lets higher layers memoize
constructions keyed on polynomials and operators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm, perm
from operator import mul
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


_set = object.__setattr__


def _poly(nums: list[int], den: int) -> "Poly":
    """The Poly with coefficients nums[k] / den (den > 0), in canonical form."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    p = object.__new__(Poly)
    _set(p, "nums", tuple(nums))
    _set(p, "den", den)
    return p


class Poly:
    """Immutable dense polynomial with exact rational coefficients.

    ``nums`` holds the integer numerators of x^0, x^1, ... and ``den`` their
    common positive denominator, in the canonical form described in the
    module docstring; ``coeffs`` gives the same coefficients as Fractions.
    """

    __slots__ = ("nums", "den", "_coeffs")

    nums: tuple[int, ...]
    den: int

    def __new__(cls, coeffs: Iterable[Union[int, str, Fraction]] = ()):
        cs = [as_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return _poly([c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # Pickle and copy rebuild from the two fields: the default slot-state
    # restore would go through __setattr__ and fail.
    def __reduce__(self):
        return _poly, (list(self.nums), self.den)

    @classmethod
    def monomial(cls, k: int, coeff: Union[int, str, Fraction] = 1) -> "Poly":
        """coeff * x**k"""
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls([0] * k + [coeff])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, degree-ascending; built on first use."""
        try:
            return self._coeffs
        except AttributeError:
            den = self.den
            cs = tuple(Fraction(n, den) for n in self.nums)
            _set(self, "_coeffs", cs)
            return cs

    @property
    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else None

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def lead(self) -> Fraction:
        """Leading coefficient; undefined for the zero polynomial."""
        if not self.nums:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x**k (zero beyond the stored length)."""
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return _poly([other.numerator], other.denominator)
        return None

    def _plus(self, other, sign: int):
        """self + sign * other, over the lcm of the two denominators."""
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if not q.nums:
            return self
        den = lcm(self.den, q.den)
        sa, sb = den // self.den, sign * (den // q.den)
        pairs = zip_longest(self.nums, q.nums, fillvalue=0)
        return _poly([x * sa + y * sb for x, y in pairs], den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-n for n in self.nums], self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _poly([n * p for n in self.nums], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.nums, other.nums
        if not a or not b:
            return _poly([], 1)
        # out[k] = sum_i a[i] b[k - i], one C-level dot product per k over b reversed.
        lb = len(b)
        rb = b[::-1]
        out = [
            sum(map(mul, a[max(0, k - lb + 1): k + 1], rb[max(0, lb - 1 - k):]))
            for k in range(len(a) + lb - 1)
        ]
        return _poly(out, self.den * other.den)

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
        if order == 0:
            return self
        nums = self.nums
        return _poly([perm(i, order) * nums[i] for i in range(order, len(nums))], self.den)

    def __call__(self, x):
        """Evaluate by Horner's rule.

        The result type follows the point.  At an exact point x = p/q (an int
        or a Fraction) the sum  sum_k nums[k] p^k q^(deg-k)  runs in ints and
        becomes one Fraction at the end.  At a float or complex point each
        coefficient is rounded once (``n / den`` rounds as ``float`` of the
        Fraction does), so the value is bit for bit the one that Horner's rule
        over Fraction coefficients gives.  At another Poly the two compose.
        """
        nums = self.nums
        if isinstance(x, (int, Fraction)):
            p, q = x.numerator, x.denominator
            terms = reversed(nums)
            acc, scale = next(terms, 0), 1
            for n in terms:
                scale *= q
                acc = acc * p + n * scale
            return Fraction(acc, self.den * scale)
        if isinstance(x, Poly):
            result = Poly()
            for n in reversed(nums):
                result = result * x + n
            return result * Fraction(1, self.den)
        den = self.den
        result = 0
        for n in reversed(nums):
            result = result * x + n / den
        return result

    def __eq__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self.nums == q.nums and self.den == q.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"
