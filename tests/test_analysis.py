"""Root finding, discriminants, integral representations, limit relation."""

import math
from fractions import Fraction as F

import pytest

from sobhyp.analysis import (
    RootSet,
    _monic_coeffs,
    discriminant_L,
    discriminant_P,
    integral_rep_check,
    limit_check,
    roots,
)
from sobhyp.exactnum import Poly
from sobhyp.families import (
    SCRIPT_L,
    bold_l,
    laguerre,
    make_member,
    member_coeffs_float,
    script_l,
    script_p,
)
from sobhyp.sobolev import ConvergenceError, gauss_rule, laguerre_weight


def _eval(coeffs, z):
    out = 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


def test_roots_conjugate_pair():
    # 2x^2 - 32x + 144 = 2((x-8)^2 + 8): roots 8 +/- 2*sqrt(2) i.
    rs = roots([144, -32, 2])
    assert isinstance(rs, RootSet)
    assert len(rs.roots) == 2
    lo, hi = rs.roots  # sorted by (re, im): conjugate with -im first
    assert lo == pytest.approx(8 - 2.8284271247461903j, abs=1e-9)
    assert hi == pytest.approx(8 + 2.8284271247461903j, abs=1e-9)
    assert lo.conjugate() == pytest.approx(hi, abs=1e-12)
    assert rs.residual_bound <= 1e-9
    assert all(abs(_eval([72, -16, 1], z)) < 1e-9 for z in rs.roots)


def test_roots_real_pair_sorted():
    rs = roots(Poly([6, -5, 1]))
    assert rs.roots[0] == pytest.approx(2 + 0j, abs=1e-10)
    assert rs.roots[1] == pytest.approx(3 + 0j, abs=1e-10)


def test_roots_degree_one():
    rs = roots(Poly([1, -1]))
    assert rs.roots == pytest.approx((1 + 0j,), abs=1e-12)
    assert rs.iterations >= 1


def test_roots_strips_trailing_zeros_from_sequences():
    a = roots([6, -5, 1, 0, 0])
    b = roots([6, -5, 1])
    assert a.roots == pytest.approx(b.roots, abs=1e-10)


def test_roots_rejects_constants():
    with pytest.raises(ValueError):
        roots([5])
    with pytest.raises(ValueError):
        roots([])
    with pytest.raises(ValueError):
        roots(Poly([3]))


def test_roots_match_gauss_nodes():
    # The degree-6 classical Laguerre polynomial with alpha = 2 vanishes at
    # the 6-point Gauss nodes of the laguerre(3) normalized weight.
    member = make_member(laguerre(2), 6)
    rs = roots(member)
    nodes = gauss_rule(laguerre_weight(3), 6).nodes
    assert all(abs(z.imag) < 1e-8 for z in rs.roots)
    for z, x in zip(rs.roots, nodes):
        assert z.real == pytest.approx(x, rel=1e-8)


def test_roots_conjugate_symmetry_higher_degree():
    member = make_member(script_l(3, 3), 5)
    rs = roots(member)
    assert len(rs.roots) == 5
    got = sorted(rs.roots, key=lambda z: (z.real, abs(z.imag)))
    for z in got:
        if abs(z.imag) > 1e-8:
            mate = min(rs.roots, key=lambda w: abs(w - z.conjugate()))
            assert mate == pytest.approx(z.conjugate(), abs=1e-7)


def test_roots_nonconvergence_attaches_partial():
    with pytest.raises(ConvergenceError) as info:
        roots([-120, 274, -225, 85, -15, 1], max_iter=1)
    partial = info.value.partial
    assert isinstance(partial, RootSet)
    assert len(partial.roots) == 5
    assert partial.iterations == 1


def test_roots_stop_at_the_first_non_finite_round():
    with pytest.raises(ConvergenceError, match="round 1") as info:
        roots(make_member(script_l(1, 1), 18))
    partial = info.value.partial
    assert len(partial.roots) == 18
    assert partial.iterations == 1


@pytest.mark.parametrize("p", [
    Poly([3, 0, F(1, 7), 0, F(-5, 2)]),  # negative lead over internal zeros
    Poly([0, F(2, 3), F(-1, 9)]),
    Poly([F(10**400, 3), 0, F(10**390, 7)]),  # numerators past the float range
    make_member(script_l(1, 1), 60),  # lead 1/60! with alternating signs
    -make_member(script_l(3, 3), 24),
])
def test_monic_coeffs_match_the_fraction_quotient_bitwise(p):
    # The numerators over the leading numerator, rounded once, give exactly
    # the floats of the Fraction quotients: same bits, signed zeros included.
    want = [complex(c / p.coeffs[-1]) for c in p.coeffs]
    got = _monic_coeffs(p)
    assert [(z.real.hex(), z.imag.hex()) for z in got] == [
        (z.real.hex(), z.imag.hex()) for z in want
    ]


def test_roots_monic_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="float range"):
        roots(make_member(script_l(1, 1), 200))


def test_discriminant_values_laguerre_side():
    assert discriminant_L(3, 3) == -128
    assert discriminant_L(1, 1) == 32
    assert discriminant_L(F(1, 2), F(2)) == F(45)
    assert isinstance(discriminant_L(F(1, 2), F(2)), F)
    assert isinstance(discriminant_L(1.5, 2.0), float)


def test_discriminant_values_jacobi_side():
    assert discriminant_P(3, 3, 3) == -14336
    got = discriminant_P(F(1), F(2), F(3))
    assert isinstance(got, F)


@pytest.mark.parametrize("a", [1, 2, 3, 5, F(1, 2)])
def test_discriminant_p_equal_parameter_identity(a):
    want = 4 * (2 * a + 1) * (a + 1) ** 2 * (-2 * a**3 + a**2 + 4 * a + 1)
    assert discriminant_P(a, a, a) == want


@pytest.mark.parametrize("q,r", [(1, 1), (3, 3), (F(1, 2), 2), (2, 4)])
def test_discriminant_sign_classifies_quadratic_roots(q, r):
    disc = discriminant_L(q, r)
    rs = roots(make_member(script_l(q, r), 2))
    if disc > 0:
        assert all(abs(z.imag) < 1e-9 for z in rs.roots)
    else:
        assert all(abs(z.imag) > 1e-9 for z in rs.roots)
        assert rs.roots[0].conjugate() == pytest.approx(rs.roots[1], abs=1e-9)


def test_double_root_at_vanishing_discriminant():
    qq = 1.0 + math.sqrt(2.0)
    assert abs(discriminant_L(qq, qq)) < 1e-12
    coeffs = member_coeffs_float(SCRIPT_L, [qq, qq], 2)
    rs = roots(coeffs, tol=1e-10)
    center = -coeffs[1] / (2 * coeffs[2])
    assert rs.roots[0].real == pytest.approx(center, abs=1e-6)
    assert rs.roots[1].real == pytest.approx(center, abs=1e-6)
    assert abs(rs.roots[0] - rs.roots[1]) < 2e-6


def test_integral_rep_simplest_case():
    # n=1, (q,r)=(1,2), z=1: the member value and the average both equal 1/2.
    direct, viaint = integral_rep_check(script_l(1, 2), 1, 1.0)
    assert direct == pytest.approx(0.5, abs=1e-14)
    assert viaint == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize(
    "spec,n,z",
    [
        (script_l(2, F(3, 2)), 7, 4.0),
        (script_l(F(1, 2), 3), 10, 0.5),
        (script_l(1, 2), 5, 1.0),
        (script_p(F(1, 2), 1, 2), 6, 0.9),
        (script_p(2, 2, F(3, 2)), 9, 0.1),
        (script_p(1, F(1, 2), 3), 4, 0.5),
    ],
)
def test_integral_rep_spot_checks(spec, n, z):
    direct, viaint = integral_rep_check(spec, n, z)
    assert viaint == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_integral_rep_n_zero():
    direct, viaint = integral_rep_check(script_l(1, 3), 0, 2.0)
    assert direct == 1.0
    assert viaint == pytest.approx(1.0, abs=1e-14)


def test_integral_rep_preconditions():
    with pytest.raises(ValueError):
        integral_rep_check(script_l(1, 1), 2, 0.5)  # needs r > 1
    with pytest.raises(ValueError):
        integral_rep_check(script_p(1, 1, 2), 2, 1.0)  # needs |z| < 1
    with pytest.raises(ValueError):
        integral_rep_check(script_p(1, 1, F(1, 2)), 2, 0.5)  # needs c > 1
    with pytest.raises(ValueError):
        integral_rep_check(bold_l(1, [2, 3]), 2, 0.5)  # single-parameter only
    with pytest.raises(ValueError):
        integral_rep_check(script_l(1, 2), -1, 0.5)


def test_limit_exact_halving_law():
    # n=1, (q,r)=(1,2), x=1: the deviation is exactly 1/(2b).
    errors = limit_check(1, 2, 1, 1, [2, 4, 8, 16])
    assert errors == [0.25, 0.125, 0.0625, 0.03125]


def test_limit_error_ratios_near_two():
    bs = [2**k for k in range(8, 14)]
    for n in (4, 8):
        errors = limit_check(2, 3, n, 1, bs)
        for e0, e1 in zip(errors, errors[1:]):
            assert e1 > 0
            assert 1.8 <= e0 / e1 <= 2.2


def test_limit_degree_zero_is_exact():
    assert limit_check(2, 3, 0, 1, [4, 8]) == [0.0, 0.0]
