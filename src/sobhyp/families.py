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
  the shifted Jacobi variant is P_n^(alpha,beta)(1 - 2x) on [0, 1].

Exact members are built over Fraction parameters; a parallel float path
exists for parameters that are only available approximately.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Sequence

from .exactnum import Poly, as_rational, pochhammer

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
_CLASSICAL_COUNTS = {LAGUERRE: 1, JACOBI: 2, JACOBI_SHIFTED: 2}


class PoleError(ValueError):
    """A denominator parameter of a series hits zero within the needed terms."""


@dataclass(frozen=True)
class FamilySpec:
    """A family kind together with its exact rational parameters."""

    kind: str
    params: tuple[Fraction, ...]

    def __post_init__(self):
        params = tuple(as_rational(p) for p in self.params)
        object.__setattr__(self, "params", params)
        _check_params(self.kind, params)


def _check_params(kind: str, params: Sequence) -> None:
    """Reject an unknown kind, a wrong parameter count or a parameter out of range."""
    layout = _LAYOUTS.get(kind)
    if layout is not None:
        low = len(layout.weights) + (layout.slots or 0)
        exact = layout.slots is not None
    elif kind in _CLASSICAL_COUNTS:
        low, exact = _CLASSICAL_COUNTS[kind], True
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    if exact and len(params) != low:
        raise ValueError(f"{kind} takes exactly {low} parameters, got {len(params)}")
    if len(params) < low:
        raise ValueError(f"{kind} takes at least {low} parameters, got {len(params)}")
    if layout is not None:
        if any(p <= 0 for p in params):
            raise ValueError(f"{kind} parameters must be strictly positive")
    elif any(p <= -1 for p in params):
        raise ValueError(f"{kind} parameters must be greater than -1")


def script_l(q, r) -> FamilySpec:
    """Family 2F2(-n, 1; q, r; x) with q, r > 0."""
    return FamilySpec(SCRIPT_L, (as_rational(q), as_rational(r)))


def script_p(a, b, c) -> FamilySpec:
    """Family 3F2(-n, n-1+a+b, 1; a, c; x) with a, b, c > 0."""
    return FamilySpec(SCRIPT_P, (as_rational(a), as_rational(b), as_rational(c)))


def bold_l(q, rs: Sequence = ()) -> FamilySpec:
    """Multi-parameter Laguerre-side family; ``rs`` may be empty (plain 1F1)."""
    return FamilySpec(BOLD_L, (as_rational(q), *(as_rational(r) for r in rs)))


def bold_p(a, b, cs: Sequence = ()) -> FamilySpec:
    """Multi-parameter Jacobi-side family; ``cs`` may be empty (plain 2F1)."""
    return FamilySpec(BOLD_P, (as_rational(a), as_rational(b), *(as_rational(c) for c in cs)))


def laguerre(alpha) -> FamilySpec:
    return FamilySpec(LAGUERRE, (as_rational(alpha),))


def jacobi(alpha, beta) -> FamilySpec:
    return FamilySpec(JACOBI, (as_rational(alpha), as_rational(beta)))


def jacobi_shifted(alpha, beta) -> FamilySpec:
    return FamilySpec(JACOBI_SHIFTED, (as_rational(alpha), as_rational(beta)))


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
    return Poly(_series_terms(Fraction(1), up, low, n))


def _series_terms(term, upper: Sequence, lower: Sequence, n: int) -> list:
    """Coefficients of x^0..x^n of the series whose constant term is ``term``.

    Each term is the previous one times prod (u + k) / ((k + 1) prod (l + k));
    the scalar type of ``term`` decides the arithmetic, so the exact and the
    float construction paths share this one loop.
    """
    coeffs = [term]
    for k in range(n):
        num = 1
        for u in upper:
            num *= u + k
        den = k + 1
        for v in lower:
            den *= v + k
        term = term * num / den
        coeffs.append(term)
    return coeffs


def _series_parameters(kind: str, params: Sequence, n: int):
    """Prefactor and upper/lower parameter tuples for one degree-n member.

    Shared between the exact and float construction paths; the scalar type
    of ``params`` decides the arithmetic.
    """
    layout = _LAYOUTS.get(kind)
    if layout is not None and len(layout.weights) == 1:
        q, *rs = params
        return 1, (-n, *([1] * len(rs))), (q, *rs)
    if layout is not None:
        a, b, *cs = params
        return 1, (-n, n - 1 + a + b, *([1] * len(cs))), (a, *cs)
    if kind in (LAGUERRE, JACOBI_SHIFTED):
        alpha = params[0]
        pref = pochhammer(alpha + 1, n) / factorial(n) if n else 1
        upper = (-n,) if kind == LAGUERRE else (-n, n + alpha + params[1] + 1)
        return pref, upper, (alpha + 1,)
    raise ValueError(f"no hypergeometric data for kind {kind!r}")


@lru_cache(maxsize=None)
def make_member(spec: FamilySpec, n: int) -> Poly:
    """The degree-n member of the family, with exact coefficients."""
    if n < 0:
        raise ValueError("member index must be nonnegative")
    if spec.kind == JACOBI:
        # P_n^(alpha,beta)(t) = [shifted member](( 1 - t) / 2), expanded exactly.
        shifted = make_member(FamilySpec(JACOBI_SHIFTED, spec.params), n)
        return shifted(Poly([Fraction(1, 2), Fraction(-1, 2)]))
    pref, up, low = _series_parameters(spec.kind, spec.params, n)
    return terminating_series(up, low, n) * as_rational(pref)


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
    """Degree-n member coefficients in float arithmetic.

    The float twin of :func:`make_member`, for parameters that are not
    exactly representable (irrational weights, fitted values).  Validation
    mirrors the exact path.
    """
    if n < 0:
        raise ValueError("member index must be nonnegative")
    ps = [float(p) for p in params]
    _check_params(kind, ps)
    if kind == JACOBI:
        inner = member_coeffs_float(JACOBI_SHIFTED, ps, n)
        # Horner composition with (1 - t)/2 over float list-polynomials.
        out = [0.0]
        for c in reversed(inner):
            prev = out + [0.0]
            out = [0.5 * prev[i] - (0.5 * prev[i - 1] if i else 0.0) for i in range(len(prev))]
            out[0] += c
            while len(out) > 1 and out[-1] == 0.0:
                out.pop()
        return out
    pref, up, low = _series_parameters(kind, ps, n)
    return _series_terms(float(pref), up, low, n)
