"""Root finding, discriminants, and cross-checks that leave exact arithmetic.

Roots come from Aberth-Ehrlich simultaneous iteration on the monic float
polynomial: every approximation is corrected by a Newton step coupled to
the other approximations, so clusters repel each other and the whole root
set converges together.  Discriminants of the degree-2 members have short
closed forms whose sign classifies the root pair (real pair / double root /
conjugate pair).

The two remaining checks compare a family member against an integral of a
classical polynomial (evaluated by a Gauss rule that is exact for the
integrand's degree) and against the small-argument limit of the Jacobi-side
family, whose error decays like 1/b.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, pi
from typing import Sequence, Union

from .exactnum import Poly, as_rational, pochhammer
from .families import (
    _LAYOUTS,
    SCRIPT_L,
    SCRIPT_P,
    FamilySpec,
    laguerre,
    jacobi_shifted,
    make_member,
    script_l,
    script_p,
)
from .sobolev import ConvergenceError, gauss_rule, jacobi_weight

__all__ = [
    "RootSet",
    "roots",
    "discriminant_L",
    "discriminant_P",
    "integral_rep_check",
    "limit_check",
]

_ABERTH_TOL = 1e-13
_ABERTH_MAX_ITER = 200


@dataclass(frozen=True)
class RootSet:
    """All roots of one polynomial, with a residual certificate.

    ``residual_bound`` is max |p(root)| over the leading coefficient, i.e.
    the residual of the monic polynomial at the computed roots.
    """

    roots: tuple[complex, ...]
    residual_bound: float
    iterations: int


def _monic_coeffs(p: Union[Poly, Sequence]) -> list[complex]:
    if isinstance(p, Poly):
        # Stay exact until the division: a leading coefficient such as
        # 1/200! is zero as a float, although the monic coefficients are not.
        # The common denominator cancels, and an int quotient rounds once.
        # The sign moves to the numerators so that a zero divides to +0.0.
        cs = list(p.nums) if not p.nums or p.nums[-1] > 0 else [-n for n in p.nums]
    else:
        cs = [complex(c) for c in p]
        while cs and cs[-1] == 0:
            cs.pop()
    if len(cs) < 2:
        raise ValueError("root finding needs degree at least 1")
    try:
        return [complex(c / cs[-1]) for c in cs]
    except OverflowError as exc:
        raise ValueError(f"the monic coefficients exceed the float range ({exc})") from None


def roots(
    p: Union[Poly, Sequence],
    tol: float = _ABERTH_TOL,
    max_iter: int = _ABERTH_MAX_ITER,
) -> RootSet:
    """All complex roots of ``p`` by Aberth-Ehrlich iteration.

    Accepts a Poly or any ascending coefficient sequence (float or complex
    entries).  Raises ConvergenceError if corrections fail to shrink below
    ``tol`` times the root scale in ``max_iter`` rounds, or as soon as an
    approximation stops being a finite number; the partial result is
    attached to the exception as ``partial``.
    """
    cs = _monic_coeffs(p)
    deg = len(cs) - 1
    radius = 1.0 + max(abs(c) for c in cs[:-1])
    # Deterministic start: points on a circle, rotated off any axis so real
    # root symmetry cannot trap two approximations on one root.
    zs = [radius * cmath.exp(2j * pi * (k + 0.25) / deg + 0.5j) for k in range(deg)]
    dcs = [k * cs[k] for k in range(1, len(cs))]

    def eval_both(z):
        pv = 0j
        for c in reversed(cs):
            pv = pv * z + c
        dv = 0j
        for c in reversed(dcs):
            dv = dv * z + c
        return pv, dv

    rounds = 0
    for rounds in range(1, max_iter + 1):
        worst = 0.0
        for i in range(deg):
            pv, dv = eval_both(zs[i])
            if pv == 0:
                continue
            if dv == 0:
                # A stationary point: nudge and let the next round recover.
                zs[i] += tol + tol * 1j
                worst = max(worst, abs(tol))
                continue
            newton = pv / dv
            coupling = sum(1.0 / (zs[i] - zs[j]) for j in range(deg) if j != i)
            denom = 1.0 - newton * coupling
            w = newton if denom == 0 else newton / denom
            zs[i] -= w
            worst = max(worst, abs(w))
        # max() skips a NaN correction (max(0.0, nan) is 0.0), so test the
        # iterates themselves before trusting ``worst``.
        if not all(cmath.isfinite(z) for z in zs):
            reason = f"root iteration left the float range in round {rounds}"
            break
        scale = max(1.0, max(abs(z) for z in zs))
        if worst < tol * scale:
            ordered = sorted(zs, key=lambda z: (z.real, z.imag))
            residual = max(abs(eval_both(z)[0]) for z in ordered)
            return RootSet(tuple(ordered), residual, rounds)
    else:
        reason = f"root iteration did not converge in {rounds} rounds"
    partial = RootSet(tuple(sorted(zs, key=lambda z: (z.real, z.imag))),
                      max(abs(eval_both(z)[0]) for z in zs), rounds)
    err = ConvergenceError(reason)
    err.partial = partial
    raise err


def discriminant_L(q, r):
    """Discriminant of the degree-2 Laguerre-side member's quadratic, up to
    positive normalization: 4 (q+1)(r+1)(q + r + 1 - q r).

    Exact for exact inputs; float inputs give a float (useful on parameter
    sets that are irrational, where only the sign is meaningful).
    """
    return 4 * (q + 1) * (r + 1) * (q + r + 1 - q * r)


def discriminant_P(a, b, c):
    """Jacobi-side counterpart of :func:`discriminant_L`."""
    bracket = (
        a * a + a * b + 2 * a + b * c + b + c + 1
        - a * a * c - a * b * c - 2 * a * c
    )
    return 4 * (a + b + 1) * (a + 1) * (c + 1) * bracket


def integral_rep_check(
    spec: FamilySpec, n: int, z: float, npoints: int | None = None
) -> tuple[float, float]:
    """Evaluate one member two ways: directly, and through its integral form.

    The member equals a beta-type average of a classical polynomial:

        scriptL(q, r) at z:  (r-1)/C(n+q-1, n) * int_0^1 (1-t)^(r-2) L_n^(q-1)(z t) dt
        scriptP(a, b, c) at z (|z| < 1):
            (c-1)/C(n+a-1, n) * int_0^1 (1-t)^(c-2) P_n^(a-1, b-1)(1 - 2 z t) dt.

    The integral is computed with a Gauss rule for the normalized weight
    (r-1)(1-t)^(r-2) (resp. c), exact for the polynomial integrand, so the
    two returned floats should agree to rounding error.  Needs r > 1
    (resp. c > 1) for integrability.
    """
    if n < 0:
        raise ValueError("member index must be nonnegative")
    if spec.kind not in (SCRIPT_L, SCRIPT_P):
        raise ValueError(f"no integral representation for family kind {spec.kind!r}")
    *weights, slot = spec.params
    if slot <= 1:
        raise ValueError(f"the integral representation needs {_LAYOUTS[spec.kind].slot} > 1")
    if spec.kind == SCRIPT_L:
        classical = make_member(laguerre(weights[0] - 1), n)
    else:
        if abs(z) >= 1:
            raise ValueError("the Jacobi-side representation needs |z| < 1")
        # The shifted member is P_n^(a-1, b-1)(1 - 2x), so evaluating it at
        # z*t supplies the argument 1 - 2 z t directly.
        classical = make_member(jacobi_shifted(weights[0] - 1, weights[1] - 1), n)
    rule_weight = jacobi_weight(Fraction(1), slot - 1)
    binom = pochhammer(weights[0], n) / Fraction(factorial(n))
    if npoints is None:
        npoints = n // 2 + 1
    rule = gauss_rule(rule_weight, npoints)
    # Only the rule is float: both polynomials are evaluated exactly at the
    # binary values of z and of the nodes, so the residual between the two
    # returns reflects the rule's accuracy, not evaluation rounding.
    zf = Fraction(z)
    total = Fraction(0)
    for t, w in zip(rule.nodes, rule.weights):
        total += Fraction(w) * classical(zf * Fraction(t))
    direct = float(make_member(spec, n)(zf))
    return direct, float(total / binom)


def limit_check(q, r, n: int, x, b_values: Sequence) -> list[float]:
    """Errors |P_n(x/b; q, b, r) - L_n(x; q, r)| for each b, exactly evaluated.

    The Jacobi-side member at shrunken argument tends to the Laguerre-side
    member as b grows; the error decays like 1/b, so doubling b should
    roughly halve each entry.
    """
    q, r, x = as_rational(q), as_rational(r), as_rational(x)
    target = make_member(script_l(q, r), n)(x)
    out = []
    for b in b_values:
        b = as_rational(b)
        approx = make_member(script_p(q, b, r), n)(x / b)
        out.append(float(abs(approx - target)))
    return out
