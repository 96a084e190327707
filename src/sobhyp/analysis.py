"""Root finding, discriminants, and cross-checks that leave exact arithmetic.

Roots come from Aberth-Ehrlich simultaneous iteration: every approximation
is corrected by a Newton step coupled to the other approximations, so
clusters repel each other and the whole root set converges together.  It
runs in the stages of MPSolve (Bini & Robol, J. Comput. Appl. Math. 272,
2014) that ``roots`` lists: a Newton-polygon start, float rounds stopped by a
rounding-error bound (around the roots' centroid where that is the better
conditioned basis), and a polish with p/p' evaluated exactly.
Discriminants of the degree-2 members have short closed forms whose sign
classifies the root pair (real pair / double root / conjugate pair).

The two remaining checks compare a family member against a beta average of
its zero-slot member (evaluated by a Gauss rule that is exact for the
integrand's degree) and against the small-argument limit of the Jacobi-side
family, whose error decays like 1/b.
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from math import exp, frexp, hypot, inf, ldexp, log, pi, prod, ulp
from operator import le
from typing import Sequence, Union

from .exactnum import Poly, _Record, _scaled, as_rational
from .families import (
    _LAYOUTS, SCRIPT_L, SCRIPT_P, FamilySpec, bold_l, bold_p, make_member, script_l, script_p
)
from .sobolev import _EPS, ConvergenceError, _exact_rule_sum, gauss_rule, jacobi_weight

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
# A float Horner sum at z is within about 2 n eps sum_k |c_k| |z|^k of p(z)
# (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, 5.1); the
# float stage freezes a root once its residual is within this bound, plus
# eps |z| |p'(z)|, what rounding z itself to a float can leave.
_ROUNDING = 4 * _EPS
_HALF_PRECISION = 2.0 ** -26


class RootSet(_Record):
    """All roots of one polynomial, with a residual certificate.

    ``residual_bound`` is max |p(root)| over the leading coefficient, i.e.
    the residual of the monic polynomial at the computed roots.
    ``iterations`` counts the float Aberth rounds plus the exact sweeps.
    """

    roots: tuple[complex, ...]
    residual_bound: float
    iterations: int


def _exact_coeffs(p: Union[Poly, Sequence]) -> list[int]:
    """Integer coefficients, ascending, proportional to p's.

    A Poly gives its numerators; a sequence of real numbers gives the exact
    values of its entries (a float's binary value) over their common
    denominator.  Trailing zeros go.  A complex entry is refused.
    """
    if isinstance(p, Poly):
        return list(p.nums)
    if any(isinstance(c, complex) for c in p):
        raise ValueError("root finding needs real coefficients")
    try:
        parts = [Fraction(c) for c in p]
    except (ValueError, OverflowError):
        raise ValueError("root finding needs finite coefficients") from None
    *cs, _ = _scaled(*parts) if parts else (1,)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _monic_coeffs(cs: list[int]) -> list[complex]:
    """The coefficients over the leading one, each rounded once, as complex.

    An int / int quotient is correctly rounded, so a leading coefficient such
    as 1/200! (zero as a float) still gives the monic coefficients exactly
    rounded.  Each is a lead / lead^2, not a / lead, so that a zero
    coefficient over a negative lead divides to +0.0, not -0.0.
    """
    lead = cs[-1]
    norm = lead * lead
    try:
        return [complex(a * lead / norm) for a in cs]
    except OverflowError as exc:
        raise ValueError(f"the monic coefficients exceed the float range ({exc})") from None


def _start(cs: list[int]) -> list[complex]:
    """Bini's start points from the Newton polygon of p.

    Each edge (i, j) of the upper convex hull of the points (k, log|c_k|)
    puts j - i points on the circle of radius (|c_i| / |c_j|)^(1/(j-i)),
    which is where the moduli of j - i roots cluster (Bini, Numer.
    Algorithms 13, 1996).  The angles are spread over each circle and
    rotated between circles, off any axis.
    """
    n = len(cs) - 1
    hull: list[tuple[int, float]] = []
    for k, a in enumerate(cs):
        if not a:
            continue
        y = log(a * a) / 2  # log|a| from a^2; log(abs(a)) can differ in the last bit
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
        ):
            hull.pop()
        hull.append((k, y))
    zs = []
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        m = j - i
        radius = exp((yi - yj) / m)
        zs += [radius * cmath.exp(2j * pi * (h / m + i / n) + 0.7j) for h in range(m)]
    return zs


def _aberth_terms(zs: list[complex], i: int) -> list[complex]:
    """1 / (z_i - z_j) for every j != i; their sum is the Aberth coupling."""
    z = zs[i]
    return [1 / (z - v) for v in zs[:i]] + [1 / (z - v) for v in zs[i + 1:]]


def _centered(cs: list[int]) -> tuple[complex, list[int]]:
    """(c, qs): a real dyadic c of 8 bits next to the centroid -c_(n-1) / (n c_n)
    of the roots, and integer coefficients proportional to p(t + c)'s.

    With c = w / 2^k, 2^(kn) p((y + w) / 2^k) = sum_j c_j 2^(k(n-j)) (y + w)^j
    is shifted by w with repeated synthetic division in ints, and y = 2^k t.
    """
    n = len(cs) - 1
    centroid = Fraction(-cs[-2], n * cs[-1])
    k = max(0, 8 - frexp(float(abs(centroid)))[1]) if centroid else 0
    w = round(centroid * 2 ** k)
    es = [a << k * (n - j) for j, a in enumerate(cs)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            es[j] += w * es[j + 1]
    return complex(ldexp(w, -k)), [e << k * m for m, e in enumerate(es)]


def _basis(cs: list[complex], center: complex) -> tuple:
    """Horner data of p in powers of t = z - center, from its monic coefficients
    there: (center, leading and lower coefficients, their moduli, and
    4 n eps sum_k |c_k|, the bound's ceiling for |t| <= 1)."""
    moduli = [abs(c) for c in cs[::-1]]
    return center, cs[-1], cs[-2::-1], moduli, _ROUNDING * (len(cs) - 1) * sum(moduli)


def _float_stage(exact: list[int], cs: list[complex], zs: list[complex]):
    """Aberth rounds in float; a root freezes once its residual is rounding error.

    Horner runs in powers of z, or, for a root that the bound there leaves
    uncertain beyond half precision, in powers of z - c around the roots'
    centroid c (``_centered``) when that basis has the smaller bound: a
    cluster of roots away from 0 is much better conditioned around it.
    Returns (rounds, reason, residuals, errors).  ``reason`` is None once
    every root is frozen.  residuals[i] bounds |p(z_i)| (the float value
    plus the rounding bound) and errors[i], the bound over |p'(z_i)|,
    estimates how far z_i may be from its root.
    """
    n = len(zs)
    # sum_k |c_k| r^k <= total max(1, r)^n: far from a root, where |p| is
    # above the bound even at that ceiling, the sum itself is not needed.
    # Past ``reach`` the power leaves the float range, and so does the bound.
    reach = sys.float_info.max ** (1 / n)
    # which[i]: 0 powers of z, undecided; 1 around the centroid; 2 powers of z.
    plain = _basis(cs, 0j)
    bases = [plain, None, plain]
    which = [0] * n
    residuals = [inf] * n
    errors = [inf] * n
    active = range(n)
    rounds = 0
    for rounds in range(1, _ABERTH_MAX_ITER + 1):
        left = []
        try:
            for i in active:
                z = zs[i]
                while True:
                    center, lead, rest, moduli, ceiling = bases[which[i]]
                    t = z - center
                    pv, dv = lead, 0j
                    for c in rest:
                        dv = dv * t + pv
                        pv = pv * t + c
                    size, r = abs(pv), abs(t)
                    bound = inf
                    if size <= ceiling * (1.0 if r <= 1.0 else r ** n if r < reach else inf):
                        s = 0.0
                        for m in moduli:
                            s = s * r + m
                        bound = _ROUNDING * n * s + _EPS * abs(z) * abs(dv)
                        if not which[i] and bound > _HALF_PRECISION * abs(z) * abs(dv):
                            if bases[1] is None:
                                center, shifted = _centered(exact)
                                try:
                                    bases[1] = _basis(_monic_coeffs(shifted), center)
                                except ValueError:  # it does not fit floats
                                    bases[1] = plain
                            center, _, _, moduli, _ = bases[1]
                            r = abs(z - center)
                            s1 = 0.0
                            for m in moduli:
                                s1 = s1 * r + m
                            which[i] = 1 if s1 < s else 2
                            if which[i] == 1:
                                continue
                    break
                if size <= bound < inf:
                    residuals[i] = size + bound
                    errors[i] = bound / abs(dv) if dv else inf
                    continue
                left.append(i)
                if not dv:
                    # A stationary point: nudge and let the next round recover.
                    zs[i] = z + (1 + 1j) * _ROUNDING * max(1.0, abs(z))
                    continue
                newton = pv / dv
                zs[i] = z - newton / (1 - newton * sum(_aberth_terms(zs, i)))
            finite = all(map(cmath.isfinite, zs))
        except OverflowError:  # abs() of a complex beyond the float range
            finite = False
        except ZeroDivisionError:
            return rounds, f"two root approximations met in round {rounds}", residuals, errors
        if not finite:
            reason = f"root iteration left the float range in round {rounds}"
            return rounds, reason, residuals, errors
        active = left
        if not active:
            return rounds, None, residuals, errors
    return rounds, f"root iteration did not converge in {rounds} rounds", residuals, errors


def _mirror(zs: list[complex], residuals: list[float]) -> tuple[set, dict]:
    """The roots proved real and the proved conjugate pairs.

    The disks D_i = D(z_i, n |p(z_i)| / prod_{j != i} |z_i - z_j|) cover the
    roots, and a union of m overlapping disks holds exactly m of them
    (Bini & Robol, J. Comput. Appl. Math. 272, 2014, section 2).  So an
    isolated disk holds one root, and its mirror image holds the conjugate:
    if the image meets no disk but D_i, the root is real; if it meets one
    other isolated disk D_j, that disk holds the conjugate.  Puts each real
    root on the real line and each lower mate on its upper root's
    conjugate, and returns (reals, mates): the indices of the real roots,
    and a map from the upper root of each pair to its lower mate.
    """
    n = len(zs)
    gaps = [[abs(z - w) for w in zs] for z in zs]
    radii = []
    for i, row in enumerate(gaps):
        apart = prod(row[:i]) * prod(row[i + 1:])
        radii.append(2 * n * residuals[i] / apart if apart else inf)
    # D_i meets D_j where |z_i - z_j| <= r_i + r_j; every disk meets itself.
    isolated = [sum(map(le, row, [ri + rj for rj in radii])) == 1
                for row, ri in zip(gaps, radii)]
    reals, mates = set(), {}
    for i, (z, ri) in enumerate(zip(zs, radii)):
        if not isolated[i] or z.imag < 0:
            continue
        image = z.conjugate()
        hits = [j for j, w in enumerate(zs) if abs(image - w) <= ri + radii[j]]
        if hits == [i]:
            reals.add(i)
            zs[i] = complex(z.real)
        elif len(hits) == 1 and isolated[hits[0]] and z.imag > 0:
            mates[i] = hits[0]
            zs[hits[0]] = image
    return reals, mates


def _exact_newton(cs: list[int], z: complex) -> complex:
    """p(z) / p'(z) at the binary value of z, rounded once.

    z = (a + i b) / 2^k, so Horner's rule runs in Gaussian integers: with
    P_j = b_j 2^(k (n-j)) and D_j = d_j 2^(k (n-1-j)) for the Horner values
    b_j of p and d_j of p', P_j = a' P_(j+1) + c_j 2^(k (n-j)) and
    D_j = a' D_(j+1) + P_(j+1), a' = a + i b, and p / p' = P_0 / (2^k D_0).
    At a real point the imaginary parts are zero and are not carried.  An
    int / int quotient is correctly rounded, as is the one division of
    ``sobolev._exact_rule_sum``.  Raises ZeroDivisionError where p'(z) = 0
    and p(z) != 0.
    """
    a, qa = z.real.as_integer_ratio()
    b, qb = z.imag.as_integer_ratio()
    q = max(qa, qb)
    a, b = a * (q // qa), b * (q // qb)
    k = q.bit_length() - 1
    terms = reversed(cs)
    pr, pi_ = next(terms), 0
    dr = di = shift = 0
    if not b:
        for c in terms:
            shift += k
            dr = dr * a + pr
            pr = pr * a + (c << shift)
    else:
        for c in terms:
            shift += k
            dr, di = dr * a - di * b + pr, dr * b + di * a + pi_
            pr, pi_ = pr * a - pi_ * b + (c << shift), pr * b + pi_ * a
    if not (pr or pi_):
        return 0j
    if not (pi_ or di):
        return complex(pr / (dr << k))
    norm = (dr * dr + di * di) << k
    return complex((pr * dr + pi_ * di) / norm, (pi_ * dr - pr * di) / norm)


def _exact_stage(cs: list[int], zs: list[complex], todo: list[int], reals: set, mates: dict):
    """Aberth sweeps with p/p' exact at each iterate's binary value.

    A real root moves along the real line, and the lower root of a pair
    follows its upper mate as its conjugate.  A root is done once its
    correction w, or the next one that Newton's quadratic convergence
    predicts, |w|^2 sum_j 1 / |z - z_j|, is below ``_ABERTH_TOL`` |z| or two
    ulps.  Returns (sweeps, reason), ``reason`` None once every root is done.
    """
    sweeps = 0
    while todo:
        if sweeps == _ABERTH_MAX_ITER:
            return sweeps, f"exact root refinement did not converge in {sweeps} sweeps"
        sweeps += 1
        left = []
        try:
            for i in todo:
                z = zs[i]
                terms = _aberth_terms(zs, i)
                newton = _exact_newton(cs, z)
                w = newton / (1 - newton * sum(terms))
                if i in reals:
                    w = complex(w.real)
                zs[i] = z - w
                if i in mates:
                    zs[mates[i]] = zs[i].conjugate()
                r, step = abs(z), abs(w)
                done = max(_ABERTH_TOL * r, 2 * ulp(r))
                if min(step, step * step * sum(map(abs, terms))) > done:
                    left.append(i)
        except (ZeroDivisionError, OverflowError):
            return sweeps, f"exact root refinement broke down in sweep {sweeps}"
        todo = left
    return sweeps, None


def _horner_float(cs: list[complex], z: complex) -> complex:
    pv = 0j
    for c in reversed(cs):
        pv = pv * z + c
    return pv


def roots(p: Union[Poly, Sequence]) -> RootSet:
    """All complex roots of the real polynomial ``p`` by Aberth-Ehrlich iteration.

    Accepts a Poly or any ascending sequence of real coefficients (floats
    taken at their exact binary values), carried as integers.  Three stages:

    1. start points on the circles of p's Newton polygon (``_start``);
    2. float Aberth rounds, each root frozen once |p(z)| falls within the
       rounding-error bound of float Horner, which runs in powers of z or,
       where that leaves a root uncertain beyond half precision, of z - c
       around the roots' centroid c (``_float_stage``);
    3. for each root whose error estimate (that bound over |p'(z)|) is above
       a few ulps, Aberth sweeps with p/p' evaluated exactly on the integer
       coefficients, until its correction, or the next one that Newton's
       quadratic convergence predicts, is below ``_ABERTH_TOL`` (1e-13) times
       its modulus or two ulps.  A root whose inclusion disk proves it real
       stays real, and a proved conjugate pair stays one.

    ``iterations`` counts the float rounds plus the exact sweeps;
    ``_ABERTH_MAX_ITER`` (200) bounds each stage.  Raises ConvergenceError if a stage does
    not finish, or as soon as an approximation stops being a finite number;
    the partial result is attached as ``partial``.
    """
    exact = _exact_coeffs(p)
    if len(exact) < 2:
        raise ValueError("root finding needs degree at least 1")
    cs = _monic_coeffs(exact)
    # Exact zero roots come off first: the Newton polygon needs c_0 != 0.
    zeros = 0
    while not exact[zeros]:
        zeros += 1
    exact = exact[zeros:]
    if len(exact) == 1:
        return RootSet((0j,) * zeros, 0.0, 0)
    zs = _start(exact)
    rounds, reason, residuals, errors = _float_stage(exact, cs[zeros:], zs)
    sweeps = 0
    if reason is None:
        reals, mates = _mirror(zs, residuals)
        # A root known to a few ulps is left as the float stage found it.
        lower = set(mates.values())
        todo = [i for i, e in enumerate(errors) if e > 4 * ulp(abs(zs[i])) and i not in lower]
        sweeps, reason = _exact_stage(exact, zs, todo, reals, mates)
    zs = sorted(zs + [0j] * zeros, key=lambda z: (z.real, z.imag))
    residual = max(hypot(v.real, v.imag) for v in (_horner_float(cs, z) for z in zs))
    found = RootSet(tuple(zs), residual, rounds + sweeps)
    if reason is not None:
        err = ConvergenceError(reason)
        err.partial = found
        raise err
    return found


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


def integral_rep_check(spec: FamilySpec, n: int, z: float) -> tuple[float, float]:
    """Evaluate one member two ways: directly, and through its integral form.

    A one-slot member is a beta average of the zero-slot member y0_n of its
    family, boldL(q) = 1F1(-n; q; x) or boldP(a, b) = 2F1(-n, n-1+a+b; a; x):

        scriptL(q, r) at z:  (r-1) * int_0^1 (1-t)^(r-2) y0_n(z t) dt
        scriptP(a, b, c) at z (|z| < 1):  the same with the slot c for r.

    The average multiplies x^k by (r-1) int_0^1 (1-t)^(r-2) t^k dt = k!/(r)_k,
    which is exactly the added (1; r) slot.  It is computed with the
    n // 2 + 1 point Gauss rule for the normalized weight (r-1)(1-t)^(r-2),
    the one exact for the degree-n integrand, so the two returned floats
    should agree to rounding error.  Needs r > 1 (resp. c > 1) for integrability.

    Both sides are exact until one rounding each: the member is evaluated at
    the binary value of z, and the average is ``sobolev._exact_rule_sum`` of
    y0_n(z t): the rule's exact moments dotted with its coefficients, the
    rational of the sum over the nodes, rounded once by an int / int division.
    """
    if n < 0:
        raise ValueError("member index must be nonnegative")
    if spec.kind not in (SCRIPT_L, SCRIPT_P):
        raise ValueError(f"no integral representation for family kind {spec.kind!r}")
    *weights, slot = spec.params
    if slot <= 1:
        raise ValueError(f"the integral representation needs {_LAYOUTS[spec.kind].slot} > 1")
    if spec.kind == SCRIPT_P and abs(z) >= 1:
        raise ValueError("the Jacobi-side representation needs |z| < 1")
    zero_slot = make_member((bold_l if spec.kind == SCRIPT_L else bold_p)(*weights), n)
    rule = gauss_rule(jacobi_weight(Fraction(1), slot - 1), n // 2 + 1)
    # Only the rule is float: both polynomials are evaluated exactly at the
    # binary values of z and of the nodes, so the residual between the two
    # returns reflects the rule's accuracy, not evaluation rounding.
    zf = Fraction(z)
    return float(make_member(spec, n)(zf)), _exact_rule_sum(rule, zero_slot, point=zf)


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
