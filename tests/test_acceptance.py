"""Acceptance gate: one test per core guarantee, each on its full grid.

``pytest -v tests/test_acceptance.py`` prints a single pass/fail line per
guarantee.  Identities in exact arithmetic are asserted with zero
tolerance; float cross-checks state their tolerance inline.
"""

import itertools
import math
from fractions import Fraction as F

import pytest

from sobhyp.analysis import (
    discriminant_L,
    discriminant_P,
    integral_rep_check,
    limit_check,
    roots,
)
from sobhyp.diffop import make_D_xi, ode3_residual, pencil_residual
from sobhyp.exactnum import pochhammer
from sobhyp.families import (
    SCRIPT_L,
    bold_l,
    bold_p,
    make_member,
    member_coeffs_float,
    script_l,
    script_p,
)
from sobhyp.recurrence import (
    generate_P_by_recurrence,
    psi_consistency,
    recurrence_residual_L,
    recurrence_residual_P,
)
from sobhyp.sobolev import (
    a_n_normalized,
    sobolev_form_for,
    sobolev_inner_exact,
    sobolev_inner_quadrature,
    verify_orthogonality,
)

_ORTHO_L_GRID = [
    (script_l(q, r), 12)
    for q in (F(1, 2), F(1), F(2), F(7, 3))
    for r in (2, 3, 4)
]
_ORTHO_P_GRID = [
    (script_p(a, b, c), 10)
    for a in (F(1, 2), F(1), F(3))
    for b in (F(1, 2), F(1), F(3))
    for c in (2, 3)
]


def test_01_laguerre_side_sobolev_orthogonality_exact():
    for spec, nmax in _ORTHO_L_GRID:
        report = verify_orthogonality(spec, nmax)
        assert report.ok, (spec.params, report.failures[:3])
        q, r = spec.params
        for n in range(nmax + 1):
            want = F(math.factorial(int(r) - 1)) ** 2 * math.factorial(n) / pochhammer(q, n)
            assert a_n_normalized(spec, n) == want


def test_02_jacobi_side_sobolev_orthogonality_exact():
    for spec, nmax in _ORTHO_P_GRID:
        report = verify_orthogonality(spec, nmax)
        assert report.ok, (spec.params, report.failures[:3])
        a, b, c = spec.params
        assert a_n_normalized(spec, 0) == F(math.factorial(int(c) - 1)) ** 2
        for n in range(1, nmax + 1):
            want = (
                F(math.factorial(int(c) - 1)) ** 2
                * math.factorial(n)
                * pochhammer(b, n)
                / (pochhammer(a, n) * (2 * n + a + b - 1) * pochhammer(a + b, n - 1))
            )
            assert a_n_normalized(spec, n) == want


def test_03_gauss_quadrature_reproduces_exact_inner_products():
    for spec, nmax in _ORTHO_L_GRID + _ORTHO_P_GRID:
        form = sobolev_form_for(spec)
        for n in range(nmax + 1):
            yn = make_member(spec, n)
            for m in range(n + 1):
                ym = make_member(spec, m)
                exact = float(sobolev_inner_exact(form, yn, ym))
                quad = sobolev_inner_quadrature(form, yn, ym)
                if exact == 0.0:
                    assert abs(quad) <= 1e-8, (spec.params, n, m, quad)
                else:
                    assert abs(quad - exact) <= 1e-10 * abs(exact), (spec.params, n, m)


def test_04_third_order_differential_equation_residuals_zero():
    values = (F(1, 2), F(1), F(2), F(7, 3), F(5))
    for q, r in itertools.product(values, repeat=2):
        spec = script_l(q, r)
        for n in range(16):
            assert ode3_residual(spec, n).is_zero, (q, r, n)
    for a, b, c in itertools.product(values, repeat=3):
        spec = script_p(a, b, c)
        for n in range(16):
            assert ode3_residual(spec, n).is_zero, (a, b, c, n)


def test_05_operator_pencil_residuals_zero_including_composed():
    indices = (1, 2, 3, 4, 6)
    for q in (F(1, 2), F(2)):
        for r in indices:
            spec = script_l(q, r)
            for n in range(16):
                assert pencil_residual(spec, n).is_zero, (q, r, n)
    for a, b in ((F(1, 2), F(2)), (F(1), F(1))):
        for c in indices:
            spec = script_p(a, b, c)
            for n in range(16):
                assert pencil_residual(spec, n).is_zero, (a, b, c, n)
    pairs = ((1, 2), (2, 3), (3, 4), (4, 6), (6, 6))
    for r1, r2 in pairs:
        spec = bold_l(F(1), [r1, r2])
        for n in range(16):
            assert pencil_residual(spec, n).is_zero, (r1, r2, n)
    for c1, c2 in pairs:
        spec = bold_p(F(1, 2), F(2), [c1, c2])
        for n in range(16):
            assert pencil_residual(spec, n).is_zero, (c1, c2, n)


def test_06_jacobi_side_recurrence_residuals_and_forward_generation():
    values = (F(1, 2), F(1), F(2), F(3), F(7, 3))
    for a, b, c in itertools.product(values, repeat=3):
        for n in range(21):
            assert recurrence_residual_P(a, b, c, n).is_zero, (a, b, c, n)
    for a, b, c in itertools.product(values, repeat=3):
        if a + b in (1, 2):
            continue  # leading coefficient vanishes at n <= 1: not solvable there
        members = generate_P_by_recurrence(a, b, c, 15)
        spec = script_p(a, b, c)
        for n, poly in enumerate(members):
            assert poly == make_member(spec, n), (a, b, c, n)


def test_07_laguerre_side_recurrence_residuals_zero():
    values = (F(1, 2), F(1), F(2), F(3), F(5))
    for q, r in itertools.product(values, repeat=2):
        for n in range(21):
            assert recurrence_residual_L(q, r, n).is_zero, (q, r, n)


def test_08_scaled_coefficient_linear_relations_exact():
    for a, b, c in itertools.product((F(1), F(2), F(3)), repeat=3):
        for n in range(2, 11):
            assert psi_consistency(a, b, c, n) == (0, 0, 0, 0), (a, b, c, n)


def test_09_quadratic_roots_follow_the_discriminants():
    # negative discriminant: conjugate non-real pair
    assert discriminant_L(3, 3) == -128
    pair = roots(make_member(script_l(3, 3), 2))
    assert all(abs(z.imag) > 1e-6 for z in pair.roots)
    assert pair.roots[0].conjugate() == pytest.approx(pair.roots[1], abs=1e-9)

    # positive discriminant: real pair
    assert discriminant_L(1, 1) == 32
    pair = roots(make_member(script_l(1, 1), 2))
    assert all(abs(z.imag) < 1e-9 for z in pair.roots)

    # vanishing discriminant on the float path: double root
    qq = 1.0 + math.sqrt(2.0)
    assert abs(discriminant_L(qq, qq)) < 1e-12
    pair = roots(member_coeffs_float(SCRIPT_L, [qq, qq], 2))
    assert abs(pair.roots[0] - pair.roots[1]) < 2e-6

    # Jacobi side: negative discriminant, non-real pair
    assert discriminant_P(3, 3, 3) == -14336
    pair = roots(make_member(script_p(3, 3, 3), 2))
    assert all(abs(z.imag) > 1e-6 for z in pair.roots)

    # equal-parameter factorization
    for a in (F(1), F(2), F(3), F(5)):
        want = 4 * (2 * a + 1) * (a + 1) ** 2 * (-2 * a**3 + a**2 + 4 * a + 1)
        assert discriminant_P(a, a, a) == want


def test_10_integral_representations_match_direct_evaluation():
    for q in (F(1, 2), F(1), F(2)):
        for r in (F(3, 2), F(2), F(3)):
            for z in (0.5, 1.0, 4.0):
                for n in range(11):
                    direct, viaint = integral_rep_check(script_l(q, r), n, z)
                    assert abs(direct - viaint) <= 1e-10 * max(1.0, abs(direct)), (q, r, z, n)
    for a, b in itertools.product((F(1, 2), F(1), F(2)), repeat=2):
        for c in (F(3, 2), F(2), F(3)):
            for z in (0.1, 0.5, 0.9):
                for n in range(11):
                    direct, viaint = integral_rep_check(script_p(a, b, c), n, z)
                    assert abs(direct - viaint) <= 1e-10 * max(1.0, abs(direct)), (a, b, c, z, n)


def test_11_large_b_limit_halves_error_under_doubling():
    bs = [F(2) ** k for k in range(8, 14)]
    for n in range(1, 9):
        errors = limit_check(2, 3, n, 1, bs)
        for e0, e1 in zip(errors, errors[1:]):
            assert e1 > 0, n
            assert 1.8 <= e0 / e1 <= 2.2, (n, e0 / e1)
    # exactly solvable case: the deviation is 1/(2b) on the nose
    for b in (2, 4, 8, 64, 1024):
        (err,) = limit_check(1, 2, 1, 1, [b])
        assert abs(err - 1 / (2 * b)) <= 1e-14, b


def test_12_removing_one_slot_lowers_the_composed_families():
    for q in (F(1, 2), F(2)):
        for delta in (1, 2, 3):
            for rs in itertools.product((2, 3), repeat=delta):
                big = bold_l(q, list(rs))
                small = bold_l(q, list(rs[:-1]))
                op = make_D_xi(rs[-1])
                factor = F(math.factorial(rs[-1] - 1))
                for n in range(11):
                    assert op(make_member(big, n)) == factor * make_member(small, n), (q, rs, n)
    for a, b in ((F(1), F(2)), (F(1, 2), F(3))):
        for delta in (1, 2, 3):
            for cs in itertools.product((2, 3), repeat=delta):
                big = bold_p(a, b, list(cs))
                small = bold_p(a, b, list(cs[:-1]))
                op = make_D_xi(cs[-1])
                factor = F(math.factorial(cs[-1] - 1))
                for n in range(11):
                    assert op(make_member(big, n)) == factor * make_member(small, n), (a, b, cs, n)
