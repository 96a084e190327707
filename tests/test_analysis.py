"""Root finding, discriminants, integral representations, limit relation."""

import cmath
import math
from fractions import Fraction as F

import pytest

import sobhyp.analysis as analysis
from sobhyp.analysis import (
    RootSet,
    _centered,
    _exact_coeffs,
    _exact_newton,
    _monic_coeffs,
    _start,
    discriminant_L,
    discriminant_P,
    integral_rep_check,
    limit_check,
    roots,
)
from sobhyp.exactnum import Poly, _horner
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


def test_roots_start_on_the_newton_polygon_hull():
    # The points (0, 0), (2, log 1e-12), (4, 0): the middle one lies below the
    # upper hull and is dropped, so every start point is on the unit circle,
    # where the roots are: x^2 = (-1e-12 +/- i sqrt(4 - 1e-24)) / 2 has modulus 1.
    coeffs = [1, 0, 1e-12, 0, 1]
    assert [abs(z) for z in _start(_exact_coeffs(coeffs))] == pytest.approx([1.0] * 4, abs=1e-15)
    rs = roots(coeffs)
    assert len(rs.roots) == 4
    assert all(abs(abs(z) - 1) <= 1e-14 for z in rs.roots)


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


def test_roots_nonconvergence_attaches_partial(monkeypatch):
    monkeypatch.setattr(analysis, "_ABERTH_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as info:
        roots([-120, 274, -225, 85, -15, 1])
    partial = info.value.partial
    assert isinstance(partial, RootSet)
    assert len(partial.roots) == 5
    assert partial.iterations == 1


def test_roots_stop_at_the_first_non_finite_round():
    # x^4 + 1e300 x^2 + 1e300 has a root pair near +-1e150 i: Horner's
    # partial sums there pass 1e450, so the first round leaves the float range.
    with pytest.raises(ConvergenceError, match="left the float range in round 1") as info:
        roots([1e300, 0, 1e300, 0, 1])
    partial = info.value.partial
    assert len(partial.roots) == 4
    assert partial.iterations == 1
    assert not all(map(cmath.isfinite, partial.roots))


def test_roots_nonconvergence_in_the_exact_stage_attaches_partial(monkeypatch):
    # A threefold root off the binary grid: the float stage freezes every
    # approximation within 20 rounds, but Aberth converges only linearly on
    # the multiple root, so the exact sweeps run out.
    p = Poly([-1, 5]) ** 3 * Poly([7, 1])
    monkeypatch.setattr(analysis, "_ABERTH_MAX_ITER", 20)
    with pytest.raises(ConvergenceError, match="refinement did not converge in 20") as info:
        roots(p)
    partial = info.value.partial
    assert len(partial.roots) == 4
    assert 20 < partial.iterations <= 40
    assert partial.roots[0] == pytest.approx(-7, abs=1e-12)
    assert all(abs(z - F(1, 5)) < 1e-3 for z in partial.roots[1:])
    monkeypatch.setattr(analysis, "_ABERTH_MAX_ITER", 40)
    assert roots(p).iterations > 20


def test_exact_stage_breaks_down_at_a_critical_point():
    # p = x^2 + 1 has p'(0) = 0 and p(0) = 1, so p / p' at the iterate 0 divides by zero.
    zs = [0j, 2j]
    assert analysis._exact_stage([1, 0, 1], zs, [0], set(), {}) == (
        1, "exact root refinement broke down in sweep 1")
    assert zs == [0j, 2j]


def test_roots_breakdown_in_the_exact_stage_attaches_partial(monkeypatch):
    def critical(cs, z):  # p / p' at an iterate where p' = 0
        raise ZeroDivisionError

    monkeypatch.setattr(analysis, "_exact_newton", critical)
    with pytest.raises(ConvergenceError, match="^exact root refinement broke down in sweep 1$") as info:
        roots(make_member(script_l(1, 1), 18))
    assert len(info.value.partial.roots) == 18


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
    got = _monic_coeffs(_exact_coeffs(p))
    assert [(z.real.hex(), z.imag.hex()) for z in got] == [
        (z.real.hex(), z.imag.hex()) for z in want
    ]


def test_roots_monic_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="float range"):
        roots(make_member(script_l(1, 1), 200))


def test_roots_reject_non_finite_coefficients():
    with pytest.raises(ValueError, match="finite"):
        roots([1.0, math.nan, 1.0])
    with pytest.raises(ValueError, match="finite"):
        roots([math.inf, 1.0])


@pytest.mark.parametrize("coeffs", [[-1 - 2j, 2 - 2j, 1], [1.0, complex(0.0, math.inf)]])
def test_roots_reject_complex_coefficients(coeffs):
    with pytest.raises(ValueError, match="real coefficients"):
        roots(coeffs)


def test_roots_take_exact_zero_roots_off_first():
    rs = roots(Poly([0, 0, F(2, 3), F(-1, 9)]))
    assert rs.roots[:2] == (0j, 0j)
    assert rs.roots[2] == 6 + 0j
    assert roots([0.0, 0.0, 1.0]).roots == (0j, 0j)


def _exact_quotient(cs, z):
    """p(z) / p'(z) in Fractions, each part rounded once."""
    x, y = F(z.real), F(z.imag)
    pr = pi_ = dr = di = F(0)
    for c in reversed(cs):
        dr, di = dr * x - di * y + pr, dr * y + di * x + pi_
        pr, pi_ = pr * x - pi_ * y + c, pr * y + pi_ * x
    norm = dr * dr + di * di
    return complex(float((pr * dr + pi_ * di) / norm), float((pi_ * dr - pr * di) / norm))


@pytest.mark.parametrize("cs,z", [
    ([72, -16, 1], 8.000000000000002 + 2.8284271247461903j),
    ([-6, 11, -6, 1], 2.0000000001 + 0j),  # the real path
    ([1, -3, 7], 1e-30 + 0j),  # a point far below 1
])
def test_exact_newton_is_the_fraction_quotient_rounded_once(cs, z):
    assert _exact_newton(cs, z) == _exact_quotient(cs, z)


@pytest.mark.parametrize("p", [make_member(script_p(1, 2, 3), 12), make_member(script_l(1, 1), 9),
                               Poly([5, 0, 0, 1]), Poly([F(-1, 3), 1])])
def test_centered_is_the_exact_taylor_shift_to_a_short_dyadic(p):
    center, qs = _centered(_exact_coeffs(p))
    c, centroid = F(center.real), F(-p.nums[-2], (len(p.nums) - 1) * p.nums[-1])
    assert center.imag == 0 and c.denominator & (c.denominator - 1) == 0  # dyadic
    assert abs(c - centroid) <= abs(centroid) / 2**8  # to 8 bits
    want = p(Poly([c, 1]))  # p(t + c)
    assert [F(a, qs[-1]) for a in qs] == [x / want.lead for x in want.coeffs]


def test_exact_newton_at_a_root_is_zero():
    assert _exact_newton([-6, 11, -6, 1], 2 + 0j) == 0j


# The table roots points of the benchmark: scriptL(1, 1) and scriptP(1, 2, 3)
# have only real roots, scriptL(3, 3) has conjugate pairs from n = 2 on.
ROOT_FAMILIES = {"scriptL(1,1)": script_l(1, 1), "scriptL(3,3)": script_l(3, 3),
                 "scriptP(1,2,3)": script_p(1, 2, 3)}


@pytest.mark.parametrize("name,n", [(name, n) for name in ROOT_FAMILIES for n in range(2, 25)])
def test_roots_pass_the_residual_and_root_sum_checks(name, n):
    member = make_member(ROOT_FAMILIES[name], n)
    found = roots(member)
    zs = found.roots
    assert len(zs) == n and all(map(cmath.isfinite, zs))
    monic = [float(c / member.coeffs[-1]) for c in member.coeffs]
    scale = max(sum(abs(c) * abs(z) ** k for k, c in enumerate(monic)) for z in zs)
    assert found.residual_bound <= 1e-8 * scale
    vieta = float(-member.coeffs[-2] / member.coeffs[-1])
    assert abs(sum(zs) - vieta) <= 1e-8 * max(1.0, sum(abs(z) for z in zs))


def _sign_at(member, x: F) -> int:
    acc, _ = _horner(member.nums, x.numerator, x.denominator)
    return (acc > 0) - (acc < 0)


@pytest.mark.parametrize("name", ["scriptL(1,1)", "scriptP(1,2,3)"])
def test_every_root_of_a_real_rooted_member_is_bracketed_exactly(name):
    # The member changes sign across x (1 -+ 2^-40) around every computed
    # root x, and the n brackets are disjoint: n distinct real roots, so all.
    width = F(1, 2**40)
    for n in range(2, 25):
        member = make_member(ROOT_FAMILIES[name], n)
        brackets = []
        for z in roots(member).roots:
            assert abs(z.imag) <= width * abs(z.real)
            x = F(z.real)
            lo, hi = sorted((x * (1 - width), x * (1 + width)))
            assert _sign_at(member, lo) * _sign_at(member, hi) < 0, (n, z)
            brackets.append((lo, hi))
        brackets.sort()
        assert all(a[1] < b[0] for a, b in zip(brackets, brackets[1:])), n


def test_conjugate_pairs_are_exactly_conjugate():
    for n in (2, 5, 12, 24):
        zs = roots(make_member(script_l(3, 3), n)).roots
        assert all(z.conjugate() in zs for z in zs if abs(z.imag) > 1e-6), n
    # n = 2: 8 -+ 2 sqrt(2) i, to the last bit (2 sqrt(2) = 2.82842712474619009...)
    lo, hi = roots(make_member(script_l(3, 3), 2)).roots
    assert (lo, hi) == (8 - 2.8284271247461903j, 8 + 2.8284271247461903j)
    y = F(2.8284271247461903)
    half_ulp = F(math.ulp(2.8284271247461903)) / 2
    assert (y - half_ulp) ** 2 < 8 < (y + half_ulp) ** 2


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
    rs = roots(coeffs)
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
