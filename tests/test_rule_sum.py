"""The integer Gauss-rule sum against a Fraction reference, bit for bit.

``sobolev._exact_rule_sum`` sums w_i * prod_j f_j(point * x_i) as one integer
dot product of the product's coefficients with the rule's exact moments
(``sobolev._rule_moments``, cached per rule and degree) and rounds once.
The reference below builds the same rational from ``Fraction`` values and
rounds it with ``float``; both roundings are correct, so the floats must be
identical, sign of zero included (compared by ``repr`` as well as ``==``).
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sobhyp.analysis import integral_rep_check
from sobhyp.exactnum import Poly
from sobhyp.families import bold_l, bold_p, make_member, script_l, script_p
from sobhyp.sobolev import (
    QuadRule,
    _exact_rule_sum,
    _rule_moments,
    gauss_rule,
    jacobi_weight,
    laguerre_weight,
    sobolev_form_for,
    sobolev_inner_quadrature,
)


def _reference_rule_sum(rule, integrand):
    return float(sum(F(w) * integrand(F(x)) for x, w in zip(rule.nodes, rule.weights)))


def _reference_product_sum(rule, polys, point=F(1)):
    def integrand(x):
        value = F(1)
        for f in polys:
            value *= f(point * x)
        return value

    return _reference_rule_sum(rule, integrand)


def _same(got, want):
    assert got == want
    assert repr(got) == repr(want)


def _reference_quadrature(form, yn, ym, npoints=None):
    u, v = form.dop(yn), form.dop(ym)
    if u.is_zero or v.is_zero:
        return 0.0
    if npoints is None:
        npoints = (u.degree + v.degree) // 2 + 1
    return _reference_rule_sum(gauss_rule(form.weight, npoints), lambda x: u(x) * v(x))


def _seeded_specs(seed):
    rng = random.Random(seed)

    def positive():
        return F(rng.randint(1, 12), rng.randint(1, 6))

    return [
        script_l(positive(), rng.randint(1, 4)),
        script_p(positive(), positive(), rng.randint(1, 4)),
        bold_l(positive(), [rng.randint(1, 3), rng.randint(2, 3)]),
        bold_p(positive(), positive(), [rng.randint(2, 4)]),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inner_quadrature_matches_fraction_reference(seed):
    # Laguerre (script_l, bold_l) and Jacobi (script_p, bold_p) weights, all
    # pairs of unequal and equal degree up to 6.
    for spec in _seeded_specs(seed):
        form = sobolev_form_for(spec)
        members = [make_member(spec, n) for n in range(7)]
        for n, yn in enumerate(members):
            for ym in members[: n + 1]:
                _same(sobolev_inner_quadrature(form, yn, ym), _reference_quadrature(form, yn, ym))


@pytest.mark.parametrize("npoints", [1, 3, 9, 20])
def test_inner_quadrature_point_override_matches_fraction_reference(npoints):
    # The rule sum that sobolev_inner_quadrature takes, at other point counts.
    for spec in _seeded_specs(3)[:2]:
        form = sobolev_form_for(spec)
        yn, ym = make_member(spec, 5), make_member(spec, 2)
        _same(
            _exact_rule_sum(gauss_rule(form.weight, npoints), form.dop(yn), form.dop(ym)),
            _reference_quadrature(form, yn, ym, npoints),
        )


def test_inner_quadrature_zero_operand_matches_fraction_reference():
    for spec in _seeded_specs(4)[:2]:
        form = sobolev_form_for(spec)
        y = make_member(spec, 3)
        for yn, ym in [(Poly(), y), (y, Poly()), (Poly(), Poly())]:
            _same(sobolev_inner_quadrature(form, yn, ym), _reference_quadrature(form, yn, ym))


@pytest.mark.parametrize("z", [1.0, -0.5, 0.0, 2, F(1, 3)])
def test_integral_rep_matches_fraction_reference(z):
    rng = random.Random(7)
    for _ in range(4):
        q, r = F(rng.randint(1, 9), rng.randint(1, 4)), rng.randint(2, 4)
        a, b, c = F(rng.randint(1, 9), 2), F(rng.randint(1, 9), 3), rng.randint(2, 4)
        cases = [(script_l(q, r), bold_l(q), r)]
        if abs(z) < 1:
            cases.append((script_p(a, b, c), bold_p(a, b), c))
        for spec, zero_spec, slot in cases:
            for n in range(9):
                zero_slot = make_member(zero_spec, n)
                rule = gauss_rule(jacobi_weight(1, slot - 1), n // 2 + 1)
                want = _reference_rule_sum(rule, lambda t: zero_slot(F(z) * t))
                _, got = integral_rep_check(spec, n, z)
                _same(got, want)


_polys = st.builds(
    lambda nums, den: Poly(F(k, den) for k in nums),
    st.lists(st.integers(min_value=-(10**12), max_value=10**12), max_size=9),
    st.integers(min_value=1, max_value=10**9),
)
_weights = st.sampled_from(
    [laguerre_weight(F(1, 2)), laguerre_weight(F(7, 3)), jacobi_weight(F(1, 2), F(1, 2)),
     jacobi_weight(3, F(5, 4))]
)


@st.composite
def _rules(draw):
    """A Gauss rule of 1-13 points, or 1-13 arbitrary float nodes and weights
    (any signs, widely spread binary exponents, subnormal weights)."""
    npoints = draw(st.integers(min_value=1, max_value=13))
    if draw(st.booleans()):
        return gauss_rule(draw(_weights), npoints)
    floats = st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=npoints, max_size=npoints
    )
    return QuadRule(draw(_weights), tuple(draw(floats)), tuple(draw(floats)))


_points = st.one_of(
    st.just(F(1)),
    st.integers(min_value=-5, max_value=5).map(F),
    st.fractions(min_value=-4, max_value=4, max_denominator=1000),
    st.floats(min_value=-4, max_value=4, allow_nan=False).map(F),
)


@settings(deadline=None)
@given(_rules(), st.lists(_polys, min_size=1, max_size=3), _points)
def test_rule_sum_matches_fraction_reference(rule, polys, point):
    _same(_exact_rule_sum(rule, *polys, point=point), _reference_product_sum(rule, polys, point))


def test_rule_sum_at_a_high_then_a_low_degree_and_the_reverse():
    # The degree-9 product reads the moments to degree 9 and the degree-2
    # one to degree 3: two entries for one rule, built in either order.
    rule = gauss_rule(laguerre_weight(F(7, 3)), 4)
    high = [Poly([1, -2, 3, F(4, 5), -5, 6, 7]), Poly([3, -1, 2, F(5, 3)])]
    low = [Poly([1, -2, 1])]
    for order in ([high, low], [low, high]):
        _rule_moments.cache_clear()
        for polys in order:
            _same(_exact_rule_sum(rule, *polys), _reference_product_sum(rule, polys))
        assert _rule_moments.cache_info().currsize == 2


def test_rule_sum_on_extreme_nodes_and_weights():
    # 3 * 2^53 is an integer float (binary exponent 0), 0.0 and a negative
    # node enter their powers as they are, and 5e-324 is the least subnormal.
    rule = QuadRule(
        laguerre_weight(1), (3.0 * 2**53, 0.0, -3.25, 1e-300), (0.5, 5e-324, 0.25, 1.5)
    )
    for polys in ([Poly([1])], [Poly([F(1, 3), -2, 1])], [Poly(range(1, 12)), Poly([0, 1])]):
        for point in (F(1), F(-5, 7)):
            got = _exact_rule_sum(rule, *polys, point=point)
            _same(got, _reference_product_sum(rule, polys, point))


def test_three_polys_at_a_non_dyadic_point():
    rule = gauss_rule(jacobi_weight(F(1, 2), 3), 5)
    polys = [Poly([F(1, 3), -2, F(5, 7)]), Poly([-1, 0, 0, F(2, 9)]), Poly([F(11, 5), 1])]
    for point in (F(-7, 3), F(2, 5)):
        got = _exact_rule_sum(rule, *polys, point=point)
        _same(got, _reference_product_sum(rule, polys, point))


def test_inner_quadrature_cold_and_warm():
    spec = script_p(F(3, 2), F(5, 3), 2)
    form = sobolev_form_for(spec)
    yn, ym = make_member(spec, 7), make_member(spec, 5)
    want = _reference_quadrature(form, yn, ym)
    _rule_moments.cache_clear()
    _same(sobolev_inner_quadrature(form, yn, ym), want)
    assert _rule_moments.cache_info().misses == 1
    _same(sobolev_inner_quadrature(form, yn, ym), want)
    assert _rule_moments.cache_info().hits == 1
    # Degrees 7 + 6 and 7 + 5 both take the 7-point rule, exact to degree 13,
    # and read one moment entry.
    y6 = make_member(spec, 6)
    _same(sobolev_inner_quadrature(form, yn, y6), _reference_quadrature(form, yn, y6))
    info = _rule_moments.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
