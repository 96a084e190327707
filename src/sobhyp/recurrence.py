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
residuals exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Poly
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


@dataclass(frozen=True)
class PhiCoeffs:
    phi1: Fraction
    phi2: Fraction
    phi3: Fraction
    phi4: Fraction
    phi5: Fraction
    phi6: Fraction


@dataclass(frozen=True)
class PsiCoeffs:
    psi1: Fraction
    psi2: Fraction
    psi3: Fraction
    psi4: Fraction
    psi5: Fraction
    psi6: Fraction


def phi_P(a, b, c, n: int) -> PhiCoeffs:
    """Recurrence coefficients for the Jacobi-side family at index n."""
    a, b, c = script_p(a, b, c).params
    if n < 0:
        raise ValueError("recurrence index must be nonnegative")
    s = a + b
    if n == 0:
        phi2 = Fraction(0)
        phi3 = -a * c * (s - 1) * (s - 2)
    elif n == 1:
        bracket = a + c + 1 + (a + 1) * (c + 1)
        phi2 = (s - 1) * (s + 1) * bracket - 3 * a * c * (s + 1) - (a + 1) * (c + 1) * (s - 1) * s
        phi3 = -(s + 1) * (s - 1) * bracket + 3 * a * c * (s + 1)
    else:
        # Both are positive for n >= 2, since a + b > 0.
        d3 = 2 * n + s - 3
        d4 = 2 * n + s - 4
        core = n * (2 * n + a + c - 1) + (a + n) * (c + n)
        phi3 = -(2 * n + s - 1) * (n + s - 2) * (core - 3 * n * (a + n - 1) * (c + n - 1) / d3)
        phi2 = n * (
            d3 * (2 * n + s - 1) * core
            - 3 * n * (2 * n + s - 1) * (a + n - 1) * (c + n - 1)
            - Fraction(1, 2) * (a + n) * (c + n) * d3 * (2 * n + s - 2) * (n + 1)
            - (n + s - 3) * (2 * n + s - 1) * (2 * n + s) * (a + n - 2) * (c + n - 2) / d4
            + Fraction(1, 2) * (2 * n + s - 1) * (2 * n + s) * (n + 1) * (a + n - 2) * (c + n - 2)
        )
    phi4 = (a + n) * (c + n) * (n + s - 1) * (n + s - 2)
    phi5 = -n * (n + s - 3) * (2 * n + s - 1) * (2 * n + s)
    phi6 = (2 * n + s - 1) * (2 * n + s) * (n + 1) * (n + s - 2)
    phi1 = -phi2 - phi3 - phi4
    return PhiCoeffs(phi1, phi2, phi3, phi4, phi5, phi6)


def phi_L(q, r, n: int) -> PhiCoeffs:
    """Recurrence coefficients for the Laguerre-side family at index n."""
    q, r = script_l(q, r).params
    if n < 0:
        raise ValueError("recurrence index must be nonnegative")
    return PhiCoeffs(
        phi1=Fraction((n - 1) * n),
        phi2=-n * (3 * n + q + r - 2),
        phi3=n * (2 * n + q + r - 1) + (n + q) * (n + r),
        phi4=-(n + q) * (n + r),
        phi5=Fraction(n),
        phi6=Fraction(-(n + 1)),
    )


def _five_term_residual(member, phi: PhiCoeffs, n: int) -> Poly:
    x = Poly.monomial(1)
    ym2 = member(n - 2) if n >= 2 else Poly()
    ym1 = member(n - 1) if n >= 1 else Poly()
    yn = member(n)
    yp1 = member(n + 1)
    return (
        phi.phi1 * ym2
        + phi.phi2 * ym1
        + phi.phi3 * yn
        + phi.phi4 * yp1
        + phi.phi5 * (x * ym1)
        + phi.phi6 * (x * yn)
    )


def recurrence_residual_P(a, b, c, n: int) -> Poly:
    """Exact residual of the five-polynomial relation at index n (zero when it holds)."""
    spec = script_p(a, b, c)
    return _five_term_residual(lambda k: make_member(spec, k), phi_P(a, b, c, n), n)


def recurrence_residual_L(q, r, n: int) -> Poly:
    """Laguerre-side counterpart of :func:`recurrence_residual_P`."""
    spec = script_l(q, r)
    return _five_term_residual(lambda k: make_member(spec, k), phi_L(q, r, n), n)


def generate_P_by_recurrence(a, b, c, N: int) -> list[Poly]:
    """Members 0..N of the Jacobi-side family grown from the recurrence alone.

    Starts from the constant member and repeatedly solves the relation for
    the next one; independent of the hypergeometric construction, which is
    what makes coefficientwise agreement with it a meaningful check.
    """
    a, b, c = script_p(a, b, c).params
    if N < 0:
        raise ValueError("generation length must be nonnegative")
    out = [Poly([1])]
    for n in range(N):
        phi = phi_P(a, b, c, n)
        if phi.phi4 == 0:
            raise DomainError(f"phi4 vanishes at n={n} (a+b={a + b}); "
                              "the recurrence cannot be solved for the next member")
        # The residual with y_{n+1} read as zero is every term but phi4 y_{n+1}.
        rest = _five_term_residual(lambda k: out[k] if k <= n else Poly(), phi, n)
        out.append(rest * (Fraction(-1) / phi.phi4))
    return out


def psi_P(a, b, c, n: int) -> PsiCoeffs:
    """The scaled companion coefficients, defined for n >= 2."""
    a, b, c = script_p(a, b, c).params
    if n < 2:
        raise DomainError("psi coefficients are defined for n >= 2")
    s = a + b
    f = phi_P(a, b, c, n)
    return PsiCoeffs(
        psi1=(n + s - 3) * (n + s - 2) * (n + s - 1) / Fraction((n + 1) * n * (n - 1)) * f.phi1,
        psi2=(n + s - 2) * (n + s - 1) / Fraction((n + 1) * n) * f.phi2,
        psi3=(n + s - 1) / Fraction(n + 1) * f.phi3,
        psi4=f.phi4,
        psi5=-(n + s - 2) * (n + s - 1) / Fraction((n + 1) * n) * f.phi5,
        psi6=-(n + s - 1) / Fraction(n + 1) * f.phi6,
    )


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

    with s = a + b.
    """
    a, b, c = script_p(a, b, c).params
    s = a + b
    p = psi_P(a, b, c, n)
    r1 = p.psi4 * (2 * n + s - 1) * (2 * n + s) + p.psi6 * (a + n) * (c + n)
    r2 = (
        p.psi3 * (2 * n + s - 3) * (2 * n + s - 2)
        + p.psi4 * (2 * n + s - 3) * (2 * n + s - 2) * (2 * n + s - 1)
        + p.psi5 * (a + n - 1) * (c + n - 1)
        + p.psi6 * (2 * n + s - 3) * (a + n - 1) * (c + n - 1)
    )
    r3 = (
        2 * p.psi2 * (2 * n + s - 4)
        + 2 * p.psi3 * (2 * n + s - 4) * (2 * n + s - 3)
        + p.psi4 * (2 * n + s - 4) * (2 * n + s - 3) * (2 * n + s - 2)
        + 2 * p.psi5 * (a + n - 2) * (c + n - 2)
        + p.psi6 * (2 * n + s - 4) * (a + n - 2) * (c + n - 2)
    )
    r4 = p.psi5 * (n + 1) * (a - 1) * (c - 1) + p.psi6 * (n + s - 3) * (a - 1) * (c - 1)
    return (r1, r2, r3, r4)
