"""The identity residuals against an independent oracle built in sympy.

Each member is summed from its pFq definition with ``sympy.rf``; the lowering
D_r y = (x^(r-1) y)^((r-1)), the classical operator L and the theta form
[theta prod_l (theta+l-1) - x prod_u (theta+u)] y / x are written with
``diff`` from their textbook formulas.  Nothing here reads the library's
series, bands or operators.  The arithmetic is ``sympy.Poly`` over QQ, not
expressions, to keep the file fast.
"""

from fractions import Fraction as F

import pytest
import sympy
from sympy import Rational, factorial, rf

import sobhyp.diffop
from sobhyp.diffop import ode3_residual, pencil_residual
from sobhyp.exactnum import Poly
from sobhyp.families import bold_l, bold_p, make_member, script_l, script_p

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
