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

Every member is built by the one exact series, which runs in Python ints
from start to end.  The upper parameter -n enters as an integer: (-n)_k / k!
is the signed binomial (-1)^k C(n, k), carried as a running product, so k!
never reaches the common denominator.  Every other parameter is an int
(numerator, denominator) pair, and the pairs that do not depend on n are
held once per spec; n-1+a+b is (S + (n-1) L) / L over a+b = S/L, in lowest
terms for every n.  The terms meet over one common denominator only at the
end.  Float parameters take the same route at their binary values (a finite
float is a dyadic rational), and only the resulting coefficients are
rounded.  A ``FamilySpec`` compares and hashes by one int key, built with
its checks, so a member cached under one spec is found through an equal one
by one tuple compare.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain
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
    """A family kind together with its exact rational parameters.

    Equality and hash read one int key, (kind, n0, d0, n1, d1, ...) over the
    parameters' numerators and denominators, built with the checks when the
    spec is made; nothing is written to a spec after that.  The parameters
    are canonical Fractions, so two specs have equal keys exactly when they
    have equal parameters, and a cache lookup through an equal, distinct spec
    is one C-level tuple compare.
    """

    kind: str
    params: tuple[Fraction, ...]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __post_init__(self):
        """Reject a bad kind, parameter count or parameter; then set the key and its hash."""
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
        # p > -1 and p > 0, read on the pairs: a Fraction's denominator is positive.
        pairs = _pairs(params)
        if bold and any(p <= -d for p, d in pairs):
            raise ValueError(f"{kind} parameters must be greater than -1")
        if not bold and any(p <= 0 for p, _ in pairs):
            raise ValueError(f"{kind} parameters must be strictly positive")
        key = (kind, *chain.from_iterable(pairs))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))


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
    up = [as_rational(u) for u in upper]
    low = [as_rational(v) for v in lower]
    if all(u != -n for u in up):
        raise ValueError(f"no upper parameter equals -{n}; the series would not terminate there")
    for v in low:
        if v.denominator == 1 and 1 - n <= v <= 0:
            raise PoleError(f"lower parameter {v} is a pole within {n} terms")
    up.remove(-n)  # it enters the core as the integer first parameter
    return _series_terms(-n, _pairs(up), _pairs(low), n)


def _pairs(values) -> tuple[tuple[int, int], ...]:
    """Each Fraction as its (numerator, denominator) pair."""
    return tuple((v.numerator, v.denominator) for v in values)


def _series_terms(first: int, up: Sequence, low: Sequence, n: int) -> Poly:
    """Terms 0..n of sum_k (first)_k prod (u)_k / prod (l)_k x^k / k!, which
    need not end there, as one Poly; ``first`` is an int, the other
    parameters are (numerator, denominator) int pairs, and no lower parameter
    may be a pole among the terms.  B_k = (first)_k / k! is an integer (the
    signed binomial (-1)^k C(n, k) at first = -n, 1 at first = 1), carried as
    the exact running product B_{k+1} = B_k (first + k) / (k + 1), so k!
    never enters the common denominator.  With u = p/d and l = p'/d' the rest
    of the term ratio, prod (u+k) / prod (l+k), is N_k / M_k, where
    N_k = prod (p + k d) prod d' and M_k = prod (p' + k d') prod d.  Term k
    is then B_k N_0...N_{k-1} M_k...M_{n-1} over M_0...M_{n-1}: a running
    product times a suffix product of the M's, over one common denominator.
    A negative lower parameter can make that denominator negative; every
    numerator then changes sign with it.
    """
    up_scale = prod(d for _, d in up)
    low_scale = prod(d for _, d in low)
    suffix = [1] * (n + 1)  # suffix[k] = M_k ... M_{n-1}
    for k in range(n - 1, -1, -1):
        m = up_scale
        for p, d in low:
            m *= p + k * d
        suffix[k] = suffix[k + 1] * m
    sign = -1 if suffix[0] < 0 else 1  # _poly takes a positive denominator
    head = sign  # sign B_k N_0 ... N_{k-1}
    nums = [sign * suffix[0]]
    for k in range(n):
        step = (first + k) * low_scale
        for p, d in up:
            step *= p + k * d
        head = head * step // (k + 1)  # exact: B_k (first + k) is (k + 1) B_{k+1}
        nums.append(head * suffix[k + 1])
    return _poly(nums, sign * suffix[0])


@lru_cache(maxsize=None)
def _series_ints(spec: FamilySpec) -> tuple[tuple, tuple, tuple | None]:
    """A hypergeometric kind's n-free series parameters as int pairs: the
    upper slot ones, the lower ones and, on the Jacobi side, a + b in lowest
    terms (None on the Laguerre side).  Cached once per equal spec."""
    weights = len(_LAYOUTS[spec.kind].weights)
    slots = len(spec.params) - weights
    low = _pairs((spec.params[0], *spec.params[weights:]))
    if weights == 1:
        return ((1, 1),) * slots, low, None
    s = spec.params[0] + spec.params[1]
    return ((1, 1),) * slots, low, (s.numerator, s.denominator)


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
    # The upper parameters are (-n, 1, ..., 1) or (-n, n-1+a+b, 1, ..., 1) and
    # the lower ones (q, r1, ...) or (a, c1, ...).  No pole test is needed:
    # FamilySpec makes a hypergeometric kind's parameters positive, and a
    # classical kind's (> -1) arrive here plus one.
    up, low, s = _series_ints(spec)
    if s is not None:
        S, L = s
        up = ((S + (n - 1) * L, L), *up)  # n-1+a+b, in lowest terms as S/L is
    return _series_terms(-n, up, low, n)


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
    alpha, beta = spec.params  # jacobi, the one kind left
    return pochhammer(n + alpha + beta + 1, n) / (Fraction(2) ** n * factorial(n))


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
