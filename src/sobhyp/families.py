"""Construction of the polynomial families as terminating hypergeometric sums.

Each family member of degree n is a finite series whose term ratio is a
fixed rational function of the summation index, so successive coefficients
come from one multiplicative update per step and stay exact.  The families:

* ``boldL(q, r1..rd)`` / ``boldP(a, b, c1..cd)`` -- 1F1(-n; q; x) / 2F1(-n,
  n-1+a+b; a; x) with any number d of extra ``(1; r_i)`` / ``(1; c_i)``
  parameter slots (zero slots give the classical 1F1 / 2F1 normalized forms)
* ``scriptL(q, r)`` / ``scriptP(a, b, c)`` -- the one-slot bold families
  boldL(q, r) = 2F2(-n, 1; q, r; x) and boldP(a, b, c) = 3F2(-n, n-1+a+b, 1; a, c; x)
* ``laguerre(alpha)``, ``jacobi(alpha, beta)``, ``jacobi_shifted(alpha, beta)``
  -- the classical polynomials with their conventional binomial prefactor;
  the shifted Jacobi variant is P_n^(alpha,beta)(1 - 2x) on [0, 1].  Each
  is a scaled zero-slot bold member: laguerre(alpha) is (alpha+1)_n/n! times
  boldL(alpha+1), jacobi_shifted(alpha, beta) is (alpha+1)_n/n! times
  boldP(alpha+1, beta+1), and jacobi is jacobi_shifted at (1 - t)/2.

Every member is built by the one exact series, which runs in Python ints:
each rational parameter is split into its numerator and denominator, and
the terms meet over one common denominator only at the end.  Float
parameters take the same route at their binary values (a finite float is a
dyadic rational), and only the resulting coefficients are rounded.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, isfinite, prod
from typing import Sequence

from .exactnum import Poly, _poly, _Record, as_rational, pochhammer

__all__ = [
    "FamilySpec",
    "PoleError",
    "script_l",
    "script_p",
    "bold_l",
    "bold_p",
    "laguerre",
    "jacobi",
    "jacobi_shifted",
    "terminating_series",
    "make_member",
    "leading_coefficient",
    "member_coeffs_float",
]

SCRIPT_L = "scriptL"
SCRIPT_P = "scriptP"
BOLD_L = "boldL"
BOLD_P = "boldP"
LAGUERRE = "laguerre"
JACOBI = "jacobi"
JACOBI_SHIFTED = "jacobi_shifted"

# Hypergeometric kind -> its weight parameter names, the name of its slot
# parameters and how many slots it takes (None: any number).  The series,
# the closed-form leads, the lowering operators and the CLI flags all read
# this one layout; a script family is the bold family with one slot.
_Layout = namedtuple("_Layout", "weights slot slots")
_LAYOUTS = {
    SCRIPT_L: _Layout(("q",), "r", 1),
    SCRIPT_P: _Layout(("a", "b"), "c", 1),
    BOLD_L: _Layout(("q",), "rs", None),
    BOLD_P: _Layout(("a", "b"), "cs", None),
}
# Classical kind -> the bold kind whose zero-slot member, at the parameters
# plus one, it scales (jacobi through jacobi_shifted); see the module docstring.
_CLASSICAL = {LAGUERRE: BOLD_L, JACOBI: BOLD_P, JACOBI_SHIFTED: BOLD_P}


class PoleError(ValueError):
    """A denominator parameter of a series hits zero within the needed terms."""


class FamilySpec(_Record):
    """A family kind together with its exact rational parameters."""

    kind: str
    params: tuple[Fraction, ...]

    def __post_init__(self):
        """Reject an unknown kind, a wrong parameter count or a parameter out of range."""
        params = tuple(as_rational(p) for p in self.params)
        object.__setattr__(self, "params", params)
        kind, bold = self.kind, _CLASSICAL.get(self.kind)
        layout = _LAYOUTS.get(bold or kind)
        if layout is None:
            raise ValueError(f"unknown family kind {kind!r}")
        slots = 0 if bold else layout.slots  # a classical kind: the weights alone
        low = len(layout.weights) + (slots or 0)
        if slots is not None and len(params) != low:
            raise ValueError(f"{kind} takes exactly {low} parameters, got {len(params)}")
        if len(params) < low:
            raise ValueError(f"{kind} takes at least {low} parameters, got {len(params)}")
        if bold and any(p <= -1 for p in params):
            raise ValueError(f"{kind} parameters must be greater than -1")
        if not bold and any(p <= 0 for p in params):
            raise ValueError(f"{kind} parameters must be strictly positive")


def script_l(q, r) -> FamilySpec:
    """Family 2F2(-n, 1; q, r; x) with q, r > 0."""
    return FamilySpec(SCRIPT_L, (q, r))


def script_p(a, b, c) -> FamilySpec:
    """Family 3F2(-n, n-1+a+b, 1; a, c; x) with a, b, c > 0."""
    return FamilySpec(SCRIPT_P, (a, b, c))


def bold_l(q, rs: Sequence = ()) -> FamilySpec:
    """Multi-parameter Laguerre-side family; ``rs`` may be empty (plain 1F1)."""
    return FamilySpec(BOLD_L, (q, *rs))


def bold_p(a, b, cs: Sequence = ()) -> FamilySpec:
    """Multi-parameter Jacobi-side family; ``cs`` may be empty (plain 2F1)."""
    return FamilySpec(BOLD_P, (a, b, *cs))


def laguerre(alpha) -> FamilySpec:
    return FamilySpec(LAGUERRE, (alpha,))


def jacobi(alpha, beta) -> FamilySpec:
    return FamilySpec(JACOBI, (alpha, beta))


def jacobi_shifted(alpha, beta) -> FamilySpec:
    return FamilySpec(JACOBI_SHIFTED, (alpha, beta))


def terminating_series(upper: Sequence, lower: Sequence, n: int) -> Poly:
    """Expand sum_k [prod (u)_k / prod (l)_k] x^k / k! for k = 0..n as a Poly.

    Some upper parameter must equal -n so the sum genuinely terminates; the
    usual generic case has exactly one such parameter, but coincidences at
    n = 0 (another upper parameter passing through zero) are legal.  A lower
    parameter equal to a nonpositive integer above -(n-1) would divide by
    zero inside the range and raises PoleError.
    """
    if n < 0:
        raise ValueError("series length must be nonnegative")
    up = tuple(as_rational(u) for u in upper)
    low = tuple(as_rational(v) for v in lower)
    if all(u != -n for u in up):
        raise ValueError(f"no upper parameter equals -{n}; the series would not terminate there")
    for v in low:
        if v.denominator == 1 and 1 - n <= v <= 0:
            raise PoleError(f"lower parameter {v} is a pole within {n} terms")
    return _series_terms(up, low, n)


def _series_terms(up: Sequence, low: Sequence, n: int) -> Poly:
    """Terms 0..n of ``terminating_series``' sum, which here need not end, as
    one Poly; no lower parameter may be a pole among them.  The loop runs in
    ints.  With u = p/d and l = p'/d' the term ratio
    prod (u+k) / ((k+1) prod (l+k)) is N_k / M_k, where
    N_k = prod (p + k d) prod d' and M_k = (k+1) prod (p' + k d') prod d.
    Term k is then N_0...N_{k-1} M_k...M_{n-1} over M_0...M_{n-1}: a running
    product of the N's times a suffix product of the M's, over one common
    denominator.  A negative lower parameter can make that denominator
    negative; every numerator then changes sign with it.
    """
    up = [(u.numerator, u.denominator) for u in up]
    low = [(v.numerator, v.denominator) for v in low]
    up_scale = prod(d for _, d in up)
    low_scale = prod(d for _, d in low)
    suffix = [1] * (n + 1)  # suffix[k] = M_k ... M_{n-1}
    for k in range(n - 1, -1, -1):
        m = (k + 1) * up_scale
        for p, d in low:
            m *= p + k * d
        suffix[k] = suffix[k + 1] * m
    sign = -1 if suffix[0] < 0 else 1  # _poly takes a positive denominator
    head = sign
    nums = [sign * suffix[0]]
    for k in range(n):
        head *= low_scale
        for p, d in up:
            head *= p + k * d
        nums.append(head * suffix[k + 1])
    return _poly(nums, sign * suffix[0])


@lru_cache(maxsize=None)
def make_member(spec: FamilySpec, n: int) -> Poly:
    """The degree-n member of the family, with exact coefficients."""
    return _member(spec, n)


def _member(spec: FamilySpec, n: int) -> Poly:
    # Uncached, so the cache keeps only the members asked for: not the bold
    # or shifted member a classical one is built from, nor a float path's.
    if n < 0:
        raise ValueError("member index must be nonnegative")
    if spec.kind == JACOBI:
        # P_n^(alpha,beta)(t) = [shifted member]((1 - t) / 2), expanded exactly.
        shifted = _member(FamilySpec(JACOBI_SHIFTED, spec.params), n)
        return shifted(Poly([Fraction(1, 2), Fraction(-1, 2)]))
    bold = _CLASSICAL.get(spec.kind)
    if bold is not None:
        zero_slot = _member(FamilySpec(bold, tuple(p + 1 for p in spec.params)), n)
        return zero_slot * Fraction(pochhammer(spec.params[0] + 1, n), factorial(n))
    return terminating_series(*_series_params(spec, n), n)


def _series_params(spec: FamilySpec, n: int) -> tuple[tuple, tuple]:
    """The upper and lower parameters of a hypergeometric kind's degree-n series."""
    if len(_LAYOUTS[spec.kind].weights) == 1:
        q, *rs = spec.params
        return (-n, *([1] * len(rs))), (q, *rs)
    a, b, *cs = spec.params
    return (-n, n - 1 + a + b, *([1] * len(cs))), (a, *cs)


def leading_coefficient(spec: FamilySpec, n: int) -> Fraction:
    """Closed-form coefficient of x^n in ``make_member(spec, n)``.

    Computed without expanding the series; agreement with the expansion is
    an invariant the tests pin down.
    """
    if n < 0:
        raise ValueError("member index must be nonnegative")
    mn = Fraction(pochhammer(Fraction(-n), n))  # (-1)^n n!
    layout = _LAYOUTS.get(spec.kind)
    if layout is not None and len(layout.weights) == 1:
        q, *rs = spec.params
        den = prod(pochhammer(v, n) for v in (q, *rs))
        return mn * Fraction(factorial(n)) ** (len(rs) - 1) / den
    if layout is not None:
        a, b, *cs = spec.params
        den = prod(pochhammer(v, n) for v in (a, *cs))
        return mn * pochhammer(n - 1 + a + b, n) * Fraction(factorial(n)) ** (len(cs) - 1) / den
    if spec.kind == LAGUERRE:
        return Fraction(-1) ** n / factorial(n)
    if spec.kind == JACOBI_SHIFTED:
        alpha, beta = spec.params
        return Fraction(-1) ** n * pochhammer(n + alpha + beta + 1, n) / factorial(n)
    if spec.kind == JACOBI:
        alpha, beta = spec.params
        return pochhammer(n + alpha + beta + 1, n) / (Fraction(2) ** n * factorial(n))
    raise ValueError(f"unknown family kind {spec.kind!r}")


def member_coeffs_float(kind: str, params: Sequence[float], n: int) -> list[float]:
    """Degree-n member coefficients as floats, each correctly rounded.

    For parameters that are only known as floats (irrational weights, fitted
    values).  Each float enters at its exact binary value, the member is
    built as :func:`make_member` builds it (but not cached), and only its
    coefficients are rounded, once each.
    Validation is ``FamilySpec``'s; a NaN or infinite parameter, or a
    coefficient beyond the float range, raises ValueError.
    """
    ps = [float(p) for p in params]
    if not all(map(isfinite, ps)):
        raise ValueError(f"{kind} parameters must be finite, got {ps}")
    member = _member(FamilySpec(kind, tuple(map(Fraction, ps))), n)
    try:
        return [c / member.den for c in member.nums]
    except OverflowError:
        raise ValueError(f"a degree-{n} {kind} coefficient exceeds the float range") from None
