"""The identity residuals and the Gauss rules against independent oracles.

Each member is summed from its pFq definition with ``sympy.rf``; the lowering
D_r y = (x^(r-1) y)^((r-1)), the classical operator L and the theta form
[theta prod_l (theta+l-1) - x prod_u (theta+u)] y / x are written with
``diff`` from their textbook formulas.  Nothing here reads the library's
series, bands or operators.  The arithmetic is ``sympy.Poly`` over QQ, not
expressions, to keep the file fast.  The float Gauss rules are checked
against ``mpmath.gauss_quadrature`` at 40 digits, and every member kind and
``limit_check`` against ``mpmath.hyper`` and mpmath's classical polynomials
at exact rational points.  The real roots that ``roots`` reports are checked
against sympy's exact count.
"""

from fractions import Fraction as F

import mpmath
import pytest
import sympy
from sympy import Rational, factorial, rf

import sobhyp.diffop
from sobhyp.diffop import ode3_residual, pencil_residual
from sobhyp.exactnum import Poly
from sobhyp.analysis import limit_check, roots
from sobhyp.families import (
    bold_l,
    bold_p,
    jacobi,
    jacobi_shifted,
    laguerre,
    make_member,
    script_l,
    script_p,
)
from sobhyp.sobolev import gauss_rule, jacobi_weight, laguerre_weight

x = sympy.Symbol("x")
NMAX = 6
SPECS = [script_l(F(1, 2), 3), script_p(F(1, 3), F(5, 7), 2),
         bold_l(F(2, 3), [2, 3]), bold_p(F(1, 3), F(2, 3), [2])]


def _q(v):
    return Rational(v.numerator, v.denominator)


def _split(spec):
    """(weights, slots) as sympy Rationals."""
    weights = 1 if spec.kind in ("scriptL", "boldL") else 2
    ps = [_q(v) for v in spec.params]
    return ps[:weights], ps[weights:]


def _series(spec, n):
    """Upper and lower parameters of the degree-n member's pFq."""
    (w, *b), slots = _split(spec)
    upper = [-n, *[n - 1 + w + v for v in b], *[1] * len(slots)]
    return upper, [w, *slots]


def _member(spec, n):
    upper, lower = _series(spec, n)
    coeffs = [sympy.prod([rf(u, k) for u in upper]) / sympy.prod([rf(v, k) for v in lower])
              / factorial(k) for k in range(n + 1)]
    return sympy.Poly(list(reversed(coeffs)), x, domain="QQ")


def _perturbation(n):
    return sympy.Poly(Rational(1, n + 7) * x ** ((5 * n + 2) % (n + 1)), x, domain="QQ")


def _pencil(spec, n, y):
    (w, *b), slots = _split(spec)
    for r in map(int, slots):
        y = (sympy.Poly(x ** (r - 1), x, domain="QQ") * y).diff((x, r - 1))
    if b:
        L = x * (1 - x) * y.diff((x, 2)) + (w - (w + b[0]) * x) * y.diff(x)
        eigenvalue = -n * (n + w + b[0] - 1)
    else:
        L = x * y.diff((x, 2)) + (w - x) * y.diff(x)
        eigenvalue = -n
    return L - eigenvalue * y


def _ode3(spec, n, y):
    upper, lower = _series(spec, n)
    left, right = x * y.diff(x), y
    for v in lower:
        left = x * left.diff(x) + (v - 1) * left
    for u in upper:
        right = x * right.diff(x) + u * right
    return (left - x * right).exquo(sympy.Poly(x, x, domain="QQ"))


def _as_poly(p):
    """A sympy Poly as the library's Poly, for comparison by nums and den."""
    return Poly([F(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


RESIDUALS = [(pencil_residual, _pencil), (ode3_residual, _ode3)]


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_members_match_the_pfq_definition(spec):
    for n in range(NMAX + 1):
        want = _as_poly(_member(spec, n))
        got = make_member(spec, n)
        assert (got.nums, got.den) == (want.nums, want.den), n


@pytest.mark.parametrize("residual, oracle", RESIDUALS, ids=["pencil", "ode3"])
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_true_members_give_zero(spec, residual, oracle):
    for n in range(NMAX + 1):
        assert oracle(spec, n, _member(spec, n)).is_zero, n
        assert residual(spec, n).is_zero, n


@pytest.mark.parametrize("residual, oracle", RESIDUALS, ids=["pencil", "ode3"])
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_perturbed_members_match_the_oracle(monkeypatch, spec, residual, oracle):
    def perturbed(spec, n):
        return make_member(spec, n) + _as_poly(_perturbation(n))

    monkeypatch.setattr(sobhyp.diffop, "make_member", perturbed)
    for n in range(NMAX + 1):
        want = _as_poly(oracle(spec, n, _member(spec, n) + _perturbation(n)))
        got = residual(spec, n)
        assert (got.nums, got.den) == (want.nums, want.den), n
        assert n == 0 or not got.is_zero, n


# --- Gauss rules against mpmath ------------------------------------------------
#
# mpmath's generalized Laguerre rule has the weight x^alpha e^-x, alpha = q - 1,
# of mass Gamma(q).  Its Jacobi rule has (1-x)^alpha (1+x)^beta on [-1, 1]:
# with t = (1 + x)/2, alpha = b - 1 and beta = a - 1 it is the Jacobi-side
# weight t^(a-1) (1-t)^(b-1) of mass 2^(a+b-1) B(a, b).

def _mpmath_rule(weight, npoints):
    """(nodes, weights) of the normalized rule, sorted by node, at 40 digits."""
    with mpmath.workdps(40):
        ps = [mpmath.mpf(p.numerator) / p.denominator for p in weight.params]
        if len(ps) == 1:
            nodes, weights = mpmath.mp.gauss_quadrature(npoints, "glaguerre", alpha=ps[0] - 1)
            mass = mpmath.gamma(ps[0])
        else:
            a, b = ps
            nodes, weights = mpmath.mp.gauss_quadrature(npoints, "jacobi", alpha=b - 1, beta=a - 1)
            nodes = [(1 + x) / 2 for x in nodes]
            mass = 2 ** (a + b - 1) * mpmath.beta(a, b)
        return zip(*sorted((x, w / mass) for x, w in zip(nodes, weights)))


def _relative_error(got, want):
    with mpmath.workdps(40):
        return max(abs(mpmath.mpf(g) - w) / abs(w) for g, w in zip(got, want))


WEIGHTS = [laguerre_weight(F(1, 2)), laguerre_weight(3),
           jacobi_weight(1, 2), jacobi_weight(F(1, 2), F(3, 2))]
# Large-q Laguerre rules whose weights are off by 9.1e-12 (q = 1e8, 16 points),
# 2.5e-11 (32 points) and 3.5e-7 (q = 1e20, 3 points).
FAR_LAGUERRE = [(laguerre_weight(10**8), 16), (laguerre_weight(10**8), 32),
                (laguerre_weight(10**20), 3)]
LOSES_WEIGHTS = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: QL loses the weights of large-q Laguerre rules")


def _case(weight, npoints, *marks):
    name = f"{weight.kind}({', '.join(map(str, weight.params))})-{npoints}"
    return pytest.param(weight, npoints, marks=marks, id=name)


@pytest.mark.parametrize("weight, npoints", [
    *(_case(w, n) for w in WEIGHTS for n in (3, 16, 32)),
    *(_case(w, n, LOSES_WEIGHTS) for w, n in FAR_LAGUERRE),
])
def test_gauss_rules_match_mpmath(weight, npoints):
    rule = gauss_rule(weight, npoints)
    nodes, weights = _mpmath_rule(weight, npoints)
    assert len(rule.nodes) == npoints
    assert _relative_error(rule.nodes, nodes) < 1e-12
    assert _relative_error(rule.weights, weights) < 1e-12


# --- Members and the limit relation against mpmath ------------------------------
#
# Each member kind is evaluated at exact rational points and compared with
# mpmath at 50 digits: the hypergeometric kinds with ``mpmath.hyper`` on their
# upper (-n, 1, .., 1) or (-n, n-1+a+b, 1, .., 1) and lower (q, r..) or
# (a, c..) parameters, the classical kinds with ``mpmath.laguerre`` and
# ``mpmath.jacobi``.  None of it reads the library's series.

XS = [F(1, 3), F(-5, 2), F(7, 4)]
HYPER_SPECS = [script_l(F(1, 2), 3), script_p(F(1, 3), F(5, 7), 2), bold_l(F(2, 3)),
               bold_l(F(7, 3), [F(5, 2), 3]), bold_p(F(1, 2), 2), bold_p(1, F(2, 3), [2, 3])]
CLASSICAL_SPECS = [
    *(laguerre(alpha) for alpha in (F(-1, 2), F(3, 2))),
    *(kind(alpha, beta) for kind in (jacobi, jacobi_shifted)
      for alpha in (F(-1, 2), F(3, 2)) for beta in (0, F(5, 3))),
]


def _mpf(v):
    return mpmath.mpf(v.numerator) / v.denominator


def _hyper(spec, n, x):
    """The degree-n member of a hypergeometric kind at x, by ``mpmath.hyper``."""
    weights = 1 if spec.kind in ("scriptL", "boldL") else 2
    w, *b = spec.params[:weights]
    slots = spec.params[weights:]
    upper = [-n, *(n - 1 + _mpf(w + v) for v in b), *[1] * len(slots)]
    return mpmath.hyper(upper, [_mpf(v) for v in (w, *slots)], _mpf(x))


def _classical(spec, n, x):
    """The degree-n classical member at x, by mpmath's own polynomials."""
    if spec.kind == "laguerre":
        return mpmath.laguerre(n, _mpf(spec.params[0]), _mpf(x))
    t = _mpf(x) if spec.kind == "jacobi" else 1 - 2 * _mpf(x)
    return mpmath.jacobi(n, *map(_mpf, spec.params), t)


@pytest.mark.parametrize("spec, oracle", [
    *(pytest.param(spec, _hyper, id=str(spec)) for spec in HYPER_SPECS),
    *(pytest.param(spec, _classical, id=str(spec)) for spec in CLASSICAL_SPECS),
])
def test_members_match_mpmath_at_rational_points(spec, oracle):
    with mpmath.workdps(50):
        for n in range(13):
            member = make_member(spec, n)
            for x in XS:
                got, want = _mpf(member(x)), oracle(spec, n, x)
                # The bound is absolute near zero: P_1^(-1/2, 0)(1/3) is exactly 0.
                assert abs(got - want) <= mpmath.mpf(10) ** -40 * max(1, abs(want)), (n, x)


@pytest.mark.parametrize("q, r, n, x", [
    (2, 3, 8, 1), (1, 3, 8, 1), (F(1, 2), 3, 5, F(-3, 2)), (2, 3, 4, F(7, 3)),
])
def test_limit_errors_match_mpmath(q, r, n, x):
    bs = [2 ** k for k in range(8, 13)]
    want = []
    with mpmath.workdps(60):
        q_, r_, x_ = map(_mpf, map(F, (q, r, x)))
        target = mpmath.hyper([-n, 1], [q_, r_], x_)
        for b in bs:
            approx = mpmath.hyper([-n, n - 1 + q_ + b, 1], [q_, r_], x_ / b)
            want.append(float(abs(approx - target)))
    assert limit_check(q, r, n, x, bs) == want


# The `table roots` points of the benchmark.  A row is reported real when its
# imaginary part is exactly 0.  Where the float inclusion disks overlap, a real
# root keeps a tiny imaginary part, so the rows may fall short of sympy's exact
# (Sturm) count, but none may be reported real beyond it.
@pytest.mark.parametrize("spec", [script_l(1, 1), script_l(3, 3), script_p(1, 2, 3)], ids=str)
def test_real_roots_never_exceed_the_exact_count(spec):
    for n in range(2, 25):
        member = make_member(spec, n)
        count = sympy.Poly(member.nums[::-1], x).count_roots()
        rows = sum(z.imag == 0 for z in roots(member).roots)
        assert rows <= count, (n, rows, count)
