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
Two numerator lists a and b multiply as FLINT's ``fmpz_poly`` can multiply
them, by Kronecker substitution (``_convolve``): each list is packed into
one int of B-bit fields, B a multiple of 8 with min(la, lb) max|a| max|b|
and every entry below 2^(B-1); the two ints are multiplied once, and the
product's fields are read back.  Each field holds its value plus the offset
2^(B-1), so it is nonnegative and no borrow crosses it; the fields are then
written and read as bytes, in time linear in the bytes, and the offsets
come off as one constant.  A short operand takes a schoolbook branch instead.
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
from operator import attrgetter
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


class _Record:
    """Base of an immutable record: what a frozen dataclass gives, without
    importing ``dataclasses`` (which pulls in ``inspect``) or building each
    class's methods with ``exec``.

    A subclass declares its fields as annotations.  They are set from
    positional or keyword arguments; ``__post_init__`` may then validate
    them and replace them through ``object.__setattr__``.  ``==``, ``hash``
    (computed once) and ``repr`` read the fields in order.
    """

    _fields: tuple[str, ...] = ()
    _hash = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        # One C-level read of the fields, led by the class so that even a
        # one-field record reads as a tuple.
        cls._read = attrgetter("__class__", *cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            given.update(kwargs)
            if len(args) + len(kwargs) != len(given) or set(given) != set(fields):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}, each once")
            args = [given[field] for field in fields]
        for field, value in zip(fields, args):
            _set(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # Pickle and copy rebuild from the field values, so a cached hash never
    # travels to a process that hashes strings differently.
    def __reduce__(self):
        return type(self), self._read(self)[1:]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._read(self) == self._read(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            _set(self, "_hash", hash(self._read(self)))
        return self._hash

    def __repr__(self):
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._read(self)[1:]))
        return f"{type(self).__qualname__}({pairs})"


def _scaled(*values) -> tuple[int, ...]:
    """(N_1, ..., N_k, L) with values[i] = N_i / L, over the lcm L of the denominators."""
    L = lcm(*[v.denominator for v in values])
    return (*[v.numerator * (L // v.denominator) for v in values], L)


def _horner(nums, p: int, q: int) -> tuple[int, int]:
    """(acc, q^d) with acc / q^d = sum_k nums[k] (p/q)^k, for d = max(len(nums) - 1, 0).

    Horner's rule in ints: acc = sum_k nums[k] p^k q^(d-k), no gcd taken.
    """
    terms = reversed(nums)
    acc, scale = next(terms, 0), 1
    for n in terms:
        scale *= q
        acc = acc * p + n * scale
    return acc, scale


# A shorter operand of at most this many entries takes the schoolbook branch
# of ``_convolve``: on the Gauss-rule cross-checks' lowered members and on
# composition with a linear Poly it beats packing fields as wide as the
# product's largest coefficient.
_SCHOOLBOOK_MAX = 6


def _convolve(a, b) -> list[int]:
    """out[k] = sum_i a[i] b[k - i], the product of two integer coefficient lists.

    A shorter operand of at most ``_SCHOOLBOOK_MAX`` entries scales the
    longer one once per entry.  Otherwise the product is one big-int product
    by Kronecker substitution: each operand becomes the int sum_i v[i] X^i
    with X = 2^B, and the product's B-bit fields are the out[k].  Every
    |out[k]| is at most min(la, lb) max|a| max|b|, so B, a multiple of 8, is
    the least that puts that bound and every entry below 2^(B-1).  Each
    field then holds its value plus the offset 2^(B-1) in [0, 2^B): no
    borrow crosses a field, so an operand is packed by writing each offset
    entry's B/8 bytes, joining them and reading one int, less all the
    offsets as one constant, and the product is unpacked the same way in
    reverse.  Packing and unpacking are linear in the bytes, where shifting
    entries into a growing int one at a time would be quadratic.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return []
    lb = len(b)
    if lb <= _SCHOOLBOOK_MAX:
        out = [x * b[0] for x in a] + [0] * (lb - 1)
        for j in range(1, lb):
            y = b[j]
            for i, x in enumerate(a, j):
                out[i] += x * y
        return out
    ma, mb = max(map(abs, a)), max(map(abs, b))
    w = max(lb * ma * mb, ma, mb).bit_length() // 8 + 1  # bytes per field
    half = 1 << (8 * w - 1)
    offset = half.to_bytes(w, "little")
    from_bytes = int.from_bytes

    def pack(v):
        fields = b"".join([(x + half).to_bytes(w, "little") for x in v])
        return from_bytes(fields, "little") - from_bytes(offset * len(v), "little")

    lc = len(a) + lb - 1
    fields = (pack(a) * pack(b) + from_bytes(offset * lc, "little")).to_bytes(lc * w, "little")
    return [from_bytes(fields[i: i + w], "little") - half for i in range(0, lc * w, w)]


def _poly(nums: list[int], den: int) -> "Poly":
    """The Poly with coefficients nums[k] / den (den > 0), in canonical form."""
    if not any(nums):  # zero, as every exact identity's residual is: no pops, no gcd
        nums, den = (), 1
    else:
        while not nums[-1]:
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
        *nums, den = _scaled(*map(as_rational, coeffs))
        return _poly(nums, den)

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
        return _poly(_convolve(self.nums, other.nums), self.den * other.den)

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
            acc, scale = _horner(nums, x.numerator, x.denominator)
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
        # A constant equals its scalar (zero included), so it hashes as one.
        if len(self.nums) < 2:
            return hash(Fraction(sum(self.nums), self.den))
        return hash((self.nums, self.den))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"
