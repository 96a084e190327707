"""Sobolev bilinear forms: a classical weight composed with a lowering operator.

The inner product of two polynomials u, v under a form is

    <u, v>  =  integral  (D u)(x) (D v)(x) w(x) dx

where D is the form's lowering operator and w one of the two normalized
classical densities

* ``laguerre(q)``:  x^(q-1) e^(-x) / Gamma(q)  on (0, inf),  moments (q)_k
* ``jacobi(a, b)``: x^(a-1) (1-x)^(b-1) / B(a, b)  on (0, 1),
  moments (a)_k / (a+b)_k.

The moments are terms of one hypergeometric series, (q)_k (1)_k / k! or
(a)_k (1)_k / ((a+b)_k k!), so they come from the members' own integer
series loop (``families._series_terms``) as integers over one denominator.

``verify_orthogonality`` proves the off-diagonal zeros rather than summing
them (``_proved_diagonal``): each lowered member D y_n is an eigenfunction
of the classical operator, which is symmetric under the moments, at
distinct eigenvalues, so every pair n != m is 0; the hypotheses are checked
exactly on the members at hand, and the diagonal is one dot product per n.
If a hypothesis fails, the call falls back to the Gram route below, which
also serves ``sobolev_inner_exact``.

The Gram route is a Gram matrix over the moments' Hankel matrix (Gautschi,
*Orthogonal Polynomials: Computation and Approximation*, 2004, section 2.1):
with U = D u and V = D v,  <u, v> = sum_{j,k} U_j V_k mu_{j+k}.  Each
lowered member is held the same way (FLINT's ``fmpq_poly`` layout), so a
Hankel row v_n = H U_n is integer work and each pair after it one integer
dot product, with one lowering per member and one ``Fraction`` per pair.
The row stops where the longest member read against it ends, at k <= n in
degree order.  On the Laguerre side mu_{j+k} = mu_k (q+k)_j, so the row is
Horner's rule in the rising-factorial basis (the Chu-Vandermonde sum of
Andrews, Askey & Roy, *Special Functions*, 1999, section 2.2, computed in
full, not assumed to vanish): each step multiplies a big integer by a small
one.  The diagonal closed forms ``a_n_normalized`` are products of ints.

The quadrature route recomputes <u, v> through a Gauss rule, purely as an
independent cross-check.  Every float node and weight is a dyadic rational,
so the rule sum is one integer dot product with the rule's exact moments,
cached per rule: the node-by-node rational, rounded once (``_exact_rule_sum``).
The rules come from the Golub-Welsch construction: the eigenvalues of the
Jacobi matrix of the three-term recurrence are the nodes and the squared
first eigenvector components the weights, found by implicit-shift QL with
Wilkinson shifts.  A weight that does not fit float64 has no rule.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from math import factorial, prod
from operator import add, mul

from .diffop import (
    DiffOp,
    _pencil_bands,
    _two_band_residual,
    _weight_and_orders,
    composed_lowering,
)
from .exactnum import Poly, _convolve, _Record, _scaled, as_rational
from .families import FamilySpec, _pairs, _series_terms, make_member

__all__ = [
    "ConvergenceError",
    "WeightSpec",
    "laguerre_weight",
    "jacobi_weight",
    "moment",
    "SobolevForm",
    "sobolev_form_for",
    "sobolev_inner_exact",
    "a_n_normalized",
    "OrthogonalityReport",
    "verify_orthogonality",
    "QuadRule",
    "gauss_rule",
    "sobolev_inner_quadrature",
]

LAGUERRE_WEIGHT = "laguerre"
JACOBI_WEIGHT = "jacobi"

# Most Gram entries are exactly 0; they share this one Fraction.
_ZERO = Fraction(0)


class ConvergenceError(RuntimeError):
    """An iterative numeric procedure failed to settle within its budget."""


class WeightSpec(_Record):
    """One of the two normalized classical weights, with exact parameters."""

    kind: str
    params: tuple[Fraction, ...]

    def __post_init__(self):
        params = tuple(as_rational(p) for p in self.params)
        object.__setattr__(self, "params", params)
        want = {LAGUERRE_WEIGHT: 1, JACOBI_WEIGHT: 2}.get(self.kind)
        if want is None:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if len(params) != want:
            raise ValueError(f"{self.kind} weight takes {want} parameter(s)")
        if any(p <= 0 for p in params):
            raise ValueError(f"{self.kind} weight parameters must be strictly positive")


def laguerre_weight(q) -> WeightSpec:
    return WeightSpec(LAGUERRE_WEIGHT, (q,))


def jacobi_weight(a, b) -> WeightSpec:
    return WeightSpec(JACOBI_WEIGHT, (a, b))


def _moments(weight: WeightSpec, K: int) -> Poly:
    """mu_0..mu_K as one Poly: the series terms (1)_k (q)_k / k! = (q)_k, or
    (1)_k (a)_k / ((a+b)_k k!) = (a)_k / (a+b)_k, with the integer first
    parameter 1."""
    lower = () if weight.kind == LAGUERRE_WEIGHT else (sum(weight.params),)
    return _series_terms(1, _pairs(weight.params[:1]), _pairs(lower), K)


def moment(weight: WeightSpec, k: int) -> Fraction:
    """k-th raw moment of the normalized weight: coefficient k of ``_moments``."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    return _moments(weight, k).coefficient(k)


class SobolevForm(_Record):
    weight: WeightSpec
    dop: DiffOp


@lru_cache(maxsize=None)
def sobolev_form_for(spec: FamilySpec) -> SobolevForm:
    """The form under which the family is orthogonal.

    Requires the r (Laguerre side) or c (Jacobi side) parameters to be
    positive integers, since they set lowering-operator orders.
    """
    head, orders = _weight_and_orders(spec)
    weight = laguerre_weight(*head) if len(head) == 1 else jacobi_weight(*head)
    return SobolevForm(weight, composed_lowering(orders))


def _gram_rows(form: SobolevForm, ys):
    """Yield, for each i, the list of <ys[i], ys[j]> over j = 0..i.

    Each member is lowered once and held as integers U_i over one
    denominator d_i; the moments are held as integers M over one
    denominator D.  Row i forms the Hankel row v_i[k] = sum_j U_i[j] mu_{j+k}
    once, and every pair in it is then one integer dot product:
    <y_i, y_j> = (U_j . v_i) / (d_i d_j D_i), D_i the row's denominator.

    The row stops below ``need``, the longest U_j over j <= i, since no pair
    of the row reads further; for members in degree order that is k <= i.
    On the Laguerre side mu_{j+k} = mu_k (q + k)_j, so with q = P/Q
    v_i[k] = mu_k sum_j U_i[j] (q + k)_j, Horner's rule in the rising-factorial
    basis: every k advances at once by acc <- U_i[j] Q^(J-j) + (P + (k+j) Q) acc,
    J = len(U_i) - 1, one big by small product per entry and step, and
    v_i[k] = mu_k acc[k] over D Q^J.  For a family member that sum vanishes
    below k = J by Chu-Vandermonde; it is computed all the same, since the
    check must not assume what it checks.  On the Jacobi side the moment ratio
    (a + k)_j / (a + b + k)_j has no such form, and each v_i[k] is an integer
    dot product of U_i with the moments from mu_k on.
    """
    lowered = [(u.nums, u.den) for u in map(form.dop, ys)]
    top = max((len(u) for u, _ in lowered), default=0)
    laguerre = form.weight.kind == LAGUERRE_WEIGHT
    # Every moment is positive, so none is stripped; at top 0 mu_0 goes unread.
    moments = _moments(form.weight, max(top - 1 if laguerre else 2 * top - 2, 0))
    mu, mu_den = moments.nums, moments.den
    P, Q = _scaled(form.weight.params[0])
    need = 0
    for i, (u, u_den) in enumerate(lowered):
        need = max(need, len(u))
        if not laguerre:
            v, v_den = [sum(map(mul, u, mu[k:])) for k in range(need)], mu_den
        elif not u:
            v, v_den = [], 1
        else:
            J = len(u) - 1
            acc = [u[J]] * need
            for j in range(J - 1, -1, -1):
                step = range(P + j * Q, P + (j + need) * Q, Q)  # P + (k+j) Q over k
                acc = list(map(add, repeat(u[j] * Q ** (J - j)), map(mul, step, acc)))
            v, v_den = list(map(mul, mu, acc)), mu_den * Q**J
        yield [
            Fraction(dot, u_den * w_den * v_den) if (dot := sum(map(mul, w, v))) else _ZERO
            for w, w_den in lowered[: i + 1]
        ]


def sobolev_inner_exact(form: SobolevForm, yn: Poly, ym: Poly) -> Fraction:
    """<yn, ym> as an exact rational, by the integer Gram rule of ``_gram_rows``."""
    *_, last = _gram_rows(form, (ym, yn))
    return last[0]


def a_n_normalized(spec: FamilySpec, n: int) -> Fraction:
    """Closed form of the diagonal value <y_n, y_n> under the family's form.

    Laguerre side n! / (q)_n, Jacobi side n! (b)_n / ((a)_n (2n+a+b-1) (a+b)_(n-1)),
    each times the squared product of (r-1)! over the lowering orders.  With the
    weight parameters over one denominator L (``_scaled``) every Pochhammer
    symbol is an integer product over L to a power, so the value is one
    Fraction of two ints.
    """
    if n < 0:
        raise ValueError("member index must be nonnegative")
    head, orders = _weight_and_orders(spec)
    pref = prod(factorial(r - 1) for r in orders) ** 2 * factorial(n)
    if len(head) == 1:
        P, Q = _scaled(*head)
        return Fraction(pref * Q**n, prod(range(P, P + n * Q, Q)))
    if n == 0:
        return Fraction(pref)
    A, B, L = _scaled(*head)
    S = A + B
    return Fraction(
        pref * prod(range(B, B + n * L, L)) * L**n,
        prod(range(A, A + n * L, L)) * (2 * n * L + S - L) * prod(range(S, S + (n - 1) * L, L)),
    )


class OrthogonalityReport(_Record):
    """Every pair checked by ``verify_orthogonality`` as (n, m, got, want).

    Entries run n = 0..nmax and, within each n, m = 0..n.  An off-diagonal
    ``got`` is proved 0 by the operator pencil, not summed, whenever the
    members meet the proof's hypotheses; otherwise every ``got`` comes from
    the Gram rows, the fallback, so a wrong member shows its computed values.
    """

    spec: FamilySpec
    nmax: int
    entries: tuple[tuple[int, int, Fraction, Fraction], ...]

    @property
    def pairs_checked(self) -> int:
        return len(self.entries)

    @property
    def failures(self) -> tuple[tuple[int, int, Fraction, Fraction], ...]:
        return tuple(e for e in self.entries if e[2] != e[3])

    @property
    def ok(self) -> bool:
        return not self.failures


def _proved_diagonal(spec: FamilySpec, form: SobolevForm, ys) -> list[Fraction] | None:
    """<y_n, y_n> for n = 0..N once every <y_n, y_m>, n != m, is proved 0;
    None if a hypothesis of the proof fails on these members.

    With U_n = D y_n and the classical operator A (``laguerre_operator`` /
    ``jacobi_operator``), <y_n, y_m> = mu(U_n U_m) for the weight's moment
    functional mu.  The hypotheses, each checked exactly:

    * y_n has degree n, so U_n has degree n (D x^k = lam(k) x^k, lam > 0);
    * the pencil residual A U_n - lambda_n U_n is zero: the pass of
      ``pencil_residual``, over its cached tables, on the member held here;
    * the lambda_n are pairwise distinct;
    * mu_0 = 1 and mu_m = mu_(m-1) (q + m - 1), or mu_(m-1) (a + m - 1) /
      (a + b + m - 1), for m = 1..2N.

    By the last, A is symmetric under mu on degrees up to N:
    mu(x^j A x^k) = -jk mu_(j+k-1) on the Laguerre side and
    -b jk mu_(j+k-1) / (a + b + j + k - 1) on the Jacobi side.  So
    (lambda_n - lambda_m) mu(U_n U_m) = mu(A U_n U_m) - mu(U_n A U_m) = 0,
    and every off-diagonal entry is 0 (Bochner, Math. Z. 29, 1929; Szego,
    *Orthogonal Polynomials*, sections 4.2 and 5.1).  U_0..U_(n-1) then span
    the degrees below n, all orthogonal to U_n, so
    mu(U_n U_n) = U_n[n] sum_j U_n[j] mu_(j+n): one integer dot product.
    """
    N = len(ys) - 1
    if any(y.degree != n for n, y in enumerate(ys)):
        return None
    if not all(_two_band_residual(_pencil_bands, spec, n, y).is_zero for n, y in enumerate(ys)):
        return None
    e = _pencil_bands(spec, 1 << N.bit_length())[1]  # lambda_n = -e_n / den
    if len(set(e[: N + 1])) <= N:
        return None
    moments = _moments(form.weight, 2 * N)
    mu, mu_den = moments.nums, moments.den
    if form.weight.kind == LAGUERRE_WEIGHT:
        P, Q = _scaled(*form.weight.params)
        up, down = range(P, P + 2 * N * Q, Q), repeat(Q)
    else:
        A, B, L = _scaled(*form.weight.params)
        up, down = range(A, A + 2 * N * L, L), range(A + B, A + B + 2 * N * L, L)
    if mu[0] != mu_den or any(d * m1 != u * m0 for u, d, m0, m1 in zip(up, down, mu, mu[1:])):
        return None
    out = []
    for n, u in enumerate(map(form.dop, ys)):
        dot = u.nums[n] * sum(map(mul, u.nums, mu[n:]))
        out.append(Fraction(dot, u.den * u.den * mu_den) if dot else _ZERO)
    return out


def verify_orthogonality(spec: FamilySpec, nmax: int) -> OrthogonalityReport:
    """Exact check of <y_n, y_m> = delta_{nm} A_n for all 0 <= m <= n <= nmax.

    Each member is built and lowered once.  The off-diagonal zeros are
    proved, not summed, by the operator pencil (``_proved_diagonal``), and
    the diagonal is one dot product per member.  If a hypothesis of that
    proof fails, the lower triangle of the Gram matrix comes from
    ``_gram_rows`` instead, so a wrong member shows its computed values.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    form = sobolev_form_for(spec)
    members = [make_member(spec, n) for n in range(nmax + 1)]
    proved = _proved_diagonal(spec, form, members)
    if proved is None:
        rows = _gram_rows(form, members)
    else:
        rows = ([_ZERO] * n + [d] for n, d in enumerate(proved))
    entries = []
    for n, row in enumerate(rows):
        diagonal = a_n_normalized(spec, n)
        entries += [(n, m, got, diagonal if n == m else _ZERO) for m, got in enumerate(row)]
    return OrthogonalityReport(spec, nmax, tuple(entries))


# --- Gauss rules -----------------------------------------------------------

_QL_MAX_SWEEPS = 50
_EPS = sys.float_info.epsilon


class QuadRule(_Record):
    """Nodes and weights of a Gauss rule for a normalized classical weight."""

    weight: WeightSpec
    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    @property
    def npoints(self) -> int:
        return len(self.nodes)


def _recurrence_coefficients(weight: WeightSpec, npoints: int):
    """Monic three-term recurrence coefficients (alpha_k, beta_k), beta_0 unused.

    Here the weight becomes floats: a parameter that rounds to 0.0 enters as
    NaN, so like an overflow it leaves a coefficient ``gauss_rule`` rejects.
    """
    ps = [float(p) or math.nan for p in weight.params]
    if weight.kind == LAGUERRE_WEIGHT:
        (q,) = ps
        alpha = [2.0 * k + q for k in range(npoints)]
        beta = [0.0] + [k * (k + q - 1.0) for k in range(1, npoints)]
        return alpha, beta
    a, b = ps
    s = a + b - 2.0
    alpha = [a / (a + b)]
    beta = [0.0]
    for k in range(1, npoints):
        alpha.append(0.5 * (1.0 + (a - b) * s / ((2 * k + s) * (2 * k + s + 2))))
        if k == 1:
            # The generic formula below is 0/0 at a+b = 1; this value (the
            # variance of the Beta(a, b) distribution) covers every case.
            beta.append(a * b / ((a + b) ** 2 * (a + b + 1)))
        else:
            beta.append(
                k * (k + b - 1) * (k + a - 1) * (k + s)
                / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
            )
    return alpha, beta


def _ql_implicit(diag, sub):
    """Eigenvalues of a symmetric tridiagonal matrix plus first-row eigenvector
    components, by implicit-shift QL with Wilkinson shifts."""
    n = len(diag)
    d = list(diag)
    e = list(sub) + [0.0]
    z = [0.0] * n
    z[0] = 1.0
    for low in range(n):
        sweeps = 0
        while True:
            m = low
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == low:
                break
            sweeps += 1
            if sweeps > _QL_MAX_SWEEPS:
                raise ConvergenceError(
                    f"tridiagonal eigenvalue {low} did not converge in {_QL_MAX_SWEEPS} sweeps"
                )
            g = (d[low + 1] - d[low]) / (2.0 * e[low])
            r = math.hypot(g, 1.0)
            g = d[m] - d[low] + e[low] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, low - 1, -1):
                f = s * e[i]
                bb = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bb
                p = s * r
                d[i + 1] = g + p
                g = c * r - bb
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            if underflow:
                continue
            d[low] -= p
            e[low] = g
            e[m] = 0.0
    order = sorted(range(n), key=lambda i: d[i])
    return [d[i] for i in order], [z[i] for i in order]


@lru_cache(maxsize=None)
def gauss_rule(weight: WeightSpec, npoints: int) -> QuadRule:
    """Gauss rule with the requested point count, exact for degree 2*npoints - 1."""
    if npoints < 1:
        raise ValueError("a quadrature rule needs at least one point")
    try:
        alpha, beta = _recurrence_coefficients(weight, npoints)
    except (OverflowError, ZeroDivisionError):
        alpha = beta = [math.inf]
    if not all(map(math.isfinite, alpha + beta)):
        raise ValueError(f"the {weight.kind} weight's Gauss rule does not fit float64")
    sub = [math.sqrt(b) for b in beta[1:]]
    nodes, firsts = _ql_implicit(alpha, sub)
    weights = [f * f for f in firsts]  # total mass is 1 for normalized weights
    # f * f is never negative, so a nonpositive weight is one whose true value
    # lies below the float64 range (the far Laguerre nodes carry e^-x).
    zeros = sum(w <= 0.0 for w in weights)
    if zeros:
        raise ConvergenceError(
            f"quadrature produced a nonpositive weight: {zeros} of {npoints} weights"
            " underflowed to zero in float64"
        )
    return QuadRule(weight, tuple(nodes), tuple(weights))


@lru_cache(maxsize=None)
def _rule_moments(rule: QuadRule, D: int) -> tuple[int, tuple[int, ...]]:
    """(E, M) with M[s] / 2^E = sum_i w_i x_i^s exactly, for s = 0..D.

    Floats are dyadic: x_i = a_i / 2^e_i and w_i = b_i / 2^f_i.  With E the
    largest f_i + e_i D, node i adds b_i a_i^s << (E - f_i - e_i s) to M[s],
    with b_i a_i^s kept as one running product.
    """
    parts = []
    for x, w in zip(rule.nodes, rule.weights):
        (a, two_e), (b, two_f) = x.as_integer_ratio(), w.as_integer_ratio()
        parts.append((a, two_e.bit_length() - 1, b, two_f.bit_length() - 1))
    E = max(f + e * D for _, e, _, f in parts)
    M = [0] * (D + 1)
    for a, e, b, f in parts:
        for s in range(D + 1):
            M[s] += b << (E - f - e * s)
            b *= a
    return E, tuple(M)


def _exact_rule_sum(rule: QuadRule, *polys: Poly, point: Fraction = Fraction(1)) -> float:
    """sum_i w_i prod_j polys[j](point * x_i) over the rule, rounded once.

    The product is sum_s c_s x^s / den (c the numerators' convolution, den the
    denominators' product, d its degree), so at point = P/Q the sum is
    sum_s c_s P^s Q^(d-s) M_s / (den Q^d 2^E), with the moments to degree d
    rounded up to odd: an n-point rule serves its degrees 2n - 2 and 2n - 1
    from one cache entry.  That is the node-by-node rational, and one int /
    int true division rounds it correctly, as ``float`` of the Fraction would.
    """
    c = reduce(_convolve, [f.nums for f in polys])
    if not c:
        return 0.0
    d = len(c) - 1
    E, M = _rule_moments(rule, d | 1)
    den = prod(f.den for f in polys)
    if point != 1:
        P, Q = point.numerator, point.denominator
        c = [n * P**s * Q ** (d - s) for s, n in enumerate(c)]
        den *= Q**d
    return sum(map(mul, c, M)) / (den << E)


@lru_cache(maxsize=None)
def _lowered(form: SobolevForm, y: Poly) -> Poly:
    """D y under the form, once per (form, member) on the quadrature route."""
    return form.dop(y)


def sobolev_inner_quadrature(form: SobolevForm, yn: Poly, ym: Poly) -> float:
    """<yn, ym> recomputed through a Gauss rule, as ``float`` of the exact
    rule sum over the lowered members (``_exact_rule_sum``).

    The rule has (deg u + deg v) // 2 + 1 points for the lowered members u
    and v, the fewest that are exact for their product.  Lowered members
    take small values near the nodes while their coefficients are large, so
    float evaluation would drown the comparison in cancellation noise; exact
    evaluation leaves the residual against ``sobolev_inner_exact`` to
    measure only the rule's accuracy, which is near machine precision.
    """
    u = _lowered(form, yn)
    v = _lowered(form, ym)
    if u.is_zero or v.is_zero:
        return 0.0
    return _exact_rule_sum(gauss_rule(form.weight, (u.degree + v.degree) // 2 + 1), u, v)
