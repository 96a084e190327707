"""Mixed recurrence relations linking consecutive family members.

Both families satisfy a five-polynomial relation of the shape

    phi1 y_{n-2} + phi2 y_{n-1} + phi3 y_n + phi4 y_{n+1}
        + phi5 x y_{n-1} + phi6 x y_n = 0,

with members of negative index read as zero.  For the Jacobi-side family
the coefficients phi_k(n; a, b, c) below take hard-coded values at n = 0, 1
and rational closed forms for n >= 2; the Laguerre-side coefficients are
low-degree polynomials in n for every n >= 0.  Every function here takes
its parameters through ``script_p``/``script_l``, so ``FamilySpec``'s rule
(a, b, c > 0 and q, r > 0, as in the paper) is the only one; anything else
raises ValueError.  ``phi4`` is nonzero on that domain except on the
boundary slices a+b = 1 (n <= 1) and a+b = 2 (n = 0), where the relation
degenerates to 0 = 0 and cannot be solved for the next member; generation
raises DomainError there.

A companion scaled system psi_k relates to phi_k by index-shift factors and
satisfies four short linear identities; ``psi_consistency`` evaluates their
residuals exactly.  Every phi, the psi and the residuals run in ints over
one scale L, the lcm of the parameter denominators, and each returned value
is the one Fraction built.  The five-term residual is one int pass over the
four members' zero-padded numerators over their lcm: each row is scaled once,
by its phi times the member's share of the lcm, and the two x rows read the
same numerators shifted up by one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactnum import Poly, _poly, _Record, _scaled
from .families import make_member, script_l, script_p

__all__ = [
    "DomainError",
    "PhiCoeffs",
    "PsiCoeffs",
    "phi_P",
    "phi_L",
    "psi_P",
    "recurrence_residual_P",
    "recurrence_residual_L",
    "generate_P_by_recurrence",
    "psi_consistency",
]


class DomainError(ValueError):
    """Parameters fall on a set where a recurrence coefficient is undefined."""


class PhiCoeffs(_Record):
    phi1: Fraction
    phi2: Fraction
    phi3: Fraction
    phi4: Fraction
    phi5: Fraction
    phi6: Fraction


class PsiCoeffs(_Record):
    psi1: Fraction
    psi2: Fraction
    psi3: Fraction
    psi4: Fraction
    psi5: Fraction
    psi6: Fraction


def _factors(A: int, B: int, C: int, L: int, n: int) -> tuple[int, ...]:
    """The linear factors of the Jacobi-side closed forms at (A/L, B/L, C/L) and n,
    each times L, as ints: a+n-j and c+n-j (j = 0, 1, 2), 2n+s-j (j = 0..4) and
    n+s-j (j = 1, 2, 3), in that order, with s = a + b."""
    a0, c0, g0 = A + n * L, C + n * L, A + B + n * L   # a+n, c+n, n+s
    e0 = g0 + n * L                                    # 2n+s
    return (a0, a0 - L, a0 - 2 * L, c0, c0 - L, c0 - 2 * L,
            e0, e0 - L, e0 - 2 * L, e0 - 3 * L, e0 - 4 * L, g0 - L, g0 - 2 * L, g0 - 3 * L)


def _phi_P_nums(A: int, B: int, C: int, L: int, n: int) -> tuple[tuple[int, ...], int]:
    """phi1..phi6 at (A/L, B/L, C/L) and n >= 0, as six ints over one positive int;
    each linear factor is carried times L, as ``_factors`` gives it."""
    if n < 0:
        raise ValueError("recurrence index must be nonnegative")
    a0, a1, a2, c0, c1, c2, e0, e1, e2, d3, d4, g1, g2, g3 = _factors(A, B, C, L, n)
    if n == 0:
        phi2, phi3, scale = 0, -a0 * c0 * g1 * g2, 1
    elif n == 1:  # here n+s-1 = s, n+s-2 = s-1 and 2n+s-1 = s+1
        bracket = (A + C + L) * L + a0 * c0
        phi2 = g2 * e1 * bracket - 3 * A * C * e1 * L - a0 * c0 * g2 * g1
        phi3 = -e1 * g2 * bracket + 3 * A * C * e1 * L
        scale = 1
    else:
        # phi_P's n >= 2 forms over 2 L^4 d3 d4, where d3 = L (2n+s-3), d4 = L (2n+s-4).
        core = n * L * ((2 * n - 1) * L + A + C) + a0 * c0
        phi3 = -2 * d4 * e1 * g2 * (core * d3 - 3 * n * L * a1 * c1)
        phi2 = n * d3 * (
            2 * d4 * d3 * e1 * core
            - 6 * n * L * d4 * e1 * a1 * c1
            - (n + 1) * d4 * a0 * c0 * d3 * e2
            - 2 * g3 * e1 * e0 * a2 * c2
            + (n + 1) * d4 * e1 * e0 * a2 * c2
        )
        scale = 2 * d3 * d4
    phi4 = a0 * c0 * g1 * g2 * scale
    phi5 = -n * g3 * e1 * e0 * L * scale
    phi6 = (n + 1) * e1 * e0 * g2 * L * scale
    return (-phi2 - phi3 - phi4, phi2, phi3, phi4, phi5, phi6), L ** 4 * scale


def phi_P(a, b, c, n: int) -> PhiCoeffs:
    """Recurrence coefficients for the Jacobi-side family at index n.

    With s = a + b, d3 = 2n+s-3 and d4 = 2n+s-4 (both positive for n >= 2):

        phi4 = (a+n)(c+n)(n+s-1)(n+s-2),  phi5 = -n(n+s-3)(2n+s-1)(2n+s)
        phi6 = (2n+s-1)(2n+s)(n+1)(n+s-2),  phi1 = -phi2 - phi3 - phi4

    At n = 0, phi2 = 0 and phi3 = -ac(s-1)(s-2).  At n = 1, with
    k = a + c + 1 + (a+1)(c+1):

        phi2 = (s-1)(s+1)k - 3ac(s+1) - (a+1)(c+1)(s-1)s
        phi3 = -(s+1)(s-1)k + 3ac(s+1)

    For n >= 2, with K = n(2n+a+c-1) + (a+n)(c+n):

        phi3 = -(2n+s-1)(n+s-2)(K - 3n(a+n-1)(c+n-1)/d3)
        phi2 = n[d3(2n+s-1)K - 3n(2n+s-1)(a+n-1)(c+n-1)
                 - (a+n)(c+n) d3(2n+s-2)(n+1)/2
                 - (n+s-3)(2n+s-1)(2n+s)(a+n-2)(c+n-2)/d4
                 + (2n+s-1)(2n+s)(n+1)(a+n-2)(c+n-2)/2]
    """
    nums, den = _phi_P_nums(*_scaled(*script_p(a, b, c).params), n)
    return PhiCoeffs(*(Fraction(v, den) for v in nums))


def _phi_L_nums(Q: int, R: int, L: int, n: int) -> tuple[tuple[int, ...], int]:
    """phi1..phi6 at (Q/L, R/L) and n >= 0, as six ints over L^2."""
    if n < 0:
        raise ValueError("recurrence index must be nonnegative")
    qn, rn = Q + n * L, R + n * L                  # q+n, r+n
    return ((n - 1) * n * L * L, -n * ((3 * n - 2) * L + Q + R) * L,
            n * ((2 * n - 1) * L + Q + R) * L + qn * rn, -qn * rn,
            n * L * L, -(n + 1) * L * L), L * L


def phi_L(q, r, n: int) -> PhiCoeffs:
    """Recurrence coefficients for the Laguerre-side family at index n:

        phi1 = (n-1) n,  phi2 = -n(3n+q+r-2),  phi3 = n(2n+q+r-1) + (n+q)(n+r)
        phi4 = -(n+q)(n+r),  phi5 = n,  phi6 = -(n+1)
    """
    nums, den = _phi_L_nums(*_scaled(*script_l(q, r).params), n)
    return PhiCoeffs(*(Fraction(v, den) for v in nums))


def _five_term_residual(member, n: int, phis, den: int = 1) -> Poly:
    """phi1 y_{n-2} + phi2 y_{n-1} + phi3 y_n + phi4 y_{n+1} + phi5 x y_{n-1} + phi6 x y_n,
    with ``phis`` ints over ``den`` and members of negative index read as zero, as one
    int pass over the four members' zero-padded numerators over their lcm.  Each row
    is scaled once, by its phi times lcm // den_j, and the two x rows read the same
    tuples shifted up by one."""
    ys = [member(k) if k >= 0 else Poly() for k in range(n - 2, n + 2)]
    top = lcm(*(y.den for y in ys))
    width = 1 + max(len(y.nums) for y in ys)
    y0, y1, y2, y3 = (y.nums + (0,) * (width - len(y.nums)) for y in ys)
    f0, f1, f2, f3 = (top // y.den for y in ys)
    p1, p2, p3, p4, p5, p6 = phis
    s1, s2, s3, s4, s5, s6 = p1 * f0, p2 * f1, p3 * f2, p4 * f3, p5 * f1, p6 * f2
    out = [s1 * a + s2 * b + s3 * c + s4 * d + s5 * xb + s6 * xc
           for a, b, c, d, xb, xc in zip(y0, y1, y2, y3, (0, *y1), (0, *y2))]
    return _poly(out, top * den)


def recurrence_residual_P(a, b, c, n: int) -> Poly:
    """Exact residual of the five-polynomial relation at index n (zero when it holds)."""
    spec = script_p(a, b, c)
    nums, den = _phi_P_nums(*_scaled(*spec.params), n)
    return _five_term_residual(lambda k: make_member(spec, k), n, nums, den)


def recurrence_residual_L(q, r, n: int) -> Poly:
    """Laguerre-side counterpart of :func:`recurrence_residual_P`."""
    spec = script_l(q, r)
    nums, den = _phi_L_nums(*_scaled(*spec.params), n)
    return _five_term_residual(lambda k: make_member(spec, k), n, nums, den)


def generate_P_by_recurrence(a, b, c, N: int) -> list[Poly]:
    """Members 0..N of the Jacobi-side family grown from the recurrence alone.

    Starts from the constant member and repeatedly solves the relation for
    the next one; independent of the hypergeometric construction, which is
    what makes coefficientwise agreement with it a meaningful check.
    """
    a, b, c = script_p(a, b, c).params
    if N < 0:
        raise ValueError("generation length must be nonnegative")
    scaled = _scaled(a, b, c)
    out = [Poly([1])]
    for n in range(N):
        nums, _ = _phi_P_nums(*scaled, n)  # phi1..phi6 times one scale, which cancels
        if nums[3] == 0:
            raise DomainError(f"phi4 vanishes at n={n} (a+b={a + b}); "
                              "the recurrence cannot be solved for the next member")
        # The residual with y_{n+1} read as zero is every term but phi4 y_{n+1}.
        rest = _five_term_residual(lambda k: out[k] if k <= n else Poly(), n, nums)
        out.append(rest * Fraction(-1, nums[3]))
    return out


def _psi_P_nums(A: int, B: int, C: int, L: int, n: int) -> tuple[tuple[int, ...], int]:
    """psi1..psi6 at (A/L, B/L, C/L) and n >= 2, as six ints over one positive int."""
    if n < 2:
        raise DomainError("psi coefficients are defined for n >= 2")
    (f1, f2, f3, f4, f5, f6), den = _phi_P_nums(A, B, C, L, n)
    *_, g1, g2, g3 = _factors(A, B, C, L, n)
    m = n - 1
    nums = (g3 * g2 * g1 * f1, g2 * g1 * L * m * f2, g1 * L * L * n * m * f3,
            L ** 3 * (n + 1) * n * m * f4, -g2 * g1 * L * m * f5, -g1 * L * L * n * m * f6)
    return nums, den * L ** 3 * (n + 1) * n * m


def psi_P(a, b, c, n: int) -> PsiCoeffs:
    """The scaled companion coefficients, defined for n >= 2:

        psi1 = (n+s-3)(n+s-2)(n+s-1) / ((n+1) n (n-1)) phi1
        psi2 = (n+s-2)(n+s-1) / ((n+1) n) phi2,  psi3 = (n+s-1) / (n+1) phi3
        psi4 = phi4,  psi5 = -(n+s-2)(n+s-1) / ((n+1) n) phi5
        psi6 = -(n+s-1) / (n+1) phi6

    with s = a + b.
    """
    nums, den = _psi_P_nums(*_scaled(*script_p(a, b, c).params), n)
    return PsiCoeffs(*(Fraction(v, den) for v in nums))


def psi_consistency(a, b, c, n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Residuals of the four linear identities the psi coefficients satisfy.

    All four are exactly zero for every n >= 2 on the family's domain
    a, b, c > 0; other parameters raise ValueError, as ``script_p`` does:

        psi4 (2n+s-1)(2n+s) + psi6 (a+n)(c+n)
        psi3 (2n+s-3)(2n+s-2) + psi4 (2n+s-3)(2n+s-2)(2n+s-1)
            + psi5 (a+n-1)(c+n-1) + psi6 (2n+s-3)(a+n-1)(c+n-1)
        2 psi2 (2n+s-4) + 2 psi3 (2n+s-4)(2n+s-3)
            + psi4 (2n+s-4)(2n+s-3)(2n+s-2)
            + 2 psi5 (a+n-2)(c+n-2) + psi6 (2n+s-4)(a+n-2)(c+n-2)
        psi5 (n+1)(a-1)(c-1) + psi6 (n+s-3)(a-1)(c-1)

    with s = a + b.  They are evaluated in ints, with every factor times L
    as ``_factors`` gives it.
    """
    A, B, C, L = _scaled(*script_p(a, b, c).params)
    (_, p2, p3, p4, p5, p6), den = _psi_P_nums(A, B, C, L, n)
    a0, a1, a2, c0, c1, c2, e0, e1, e2, d3, d4, _, _, g3 = _factors(A, B, C, L, n)
    r1 = p4 * e1 * e0 + p6 * a0 * c0
    r2 = p3 * d3 * e2 * L + p4 * d3 * e2 * e1 + p5 * a1 * c1 * L + p6 * d3 * a1 * c1
    r3 = (2 * p2 * d4 * L * L + 2 * p3 * d4 * d3 * L + p4 * d4 * d3 * e2
          + 2 * p5 * a2 * c2 * L + p6 * d4 * a2 * c2)
    r4 = (A - L) * (C - L) * (p5 * (n + 1) * L + p6 * g3)
    return (Fraction(r1, den * L * L), Fraction(r2, den * L ** 3),
            Fraction(r3, den * L ** 3), Fraction(r4, den * L ** 3))
