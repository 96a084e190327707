"""Exact polynomial arithmetic and the rising factorial."""

import copy
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from sobhyp.exactnum import Poly, _poly, _Record, _set, as_rational, pochhammer

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
polys = st.lists(rationals, max_size=8).map(Poly)


def test_pochhammer_values():
    assert pochhammer(F(5), 0) == 1
    assert pochhammer(F(3), 2) == 12
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert pochhammer(F(-5, 2), 2) == F(15, 4)
    assert pochhammer(F(-2), 3) == 0  # passes through zero
    assert pochhammer(F(1), 5) == 120


def test_pochhammer_type_follows_input():
    assert isinstance(pochhammer(F(1, 2), 2), F)
    assert isinstance(pochhammer(0.5, 2), float)


def test_pochhammer_rejects_negative_order():
    with pytest.raises(ValueError):
        pochhammer(F(1), -1)


def test_pochhammer_shift_recurrence():
    for c in [F(1, 3), F(2), F(-7, 2)]:
        for k in range(6):
            assert pochhammer(c, k + 1) == pochhammer(c, k) * (c + k)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)
    assert as_rational("7/3") == F(7, 3)
    assert as_rational(4) == 4


def test_zero_polynomial_degree_is_none():
    assert Poly().degree is None
    assert Poly([0, 0, 0]).degree is None
    assert Poly().is_zero
    assert not Poly()


@given(st.integers(0, 40), st.integers(2, 10**30))
def test_all_zero_numerators_give_the_canonical_zero(length, den):
    zero = _poly([0] * length, den)
    assert (zero.nums, zero.den) == ((), 1)
    assert zero == Poly() and hash(zero) == hash(Poly()) and zero.is_zero


@given(st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=8).filter(any),
       st.integers(0, 5), st.integers(1, 10**6))
def test_nonzero_numerators_keep_their_canonical_form(nums, zeros, den):
    # The reduction by Fractions: trailing zeros dropped, one lcm denominator.
    coeffs = [F(v, den) for v in nums]
    while not coeffs[-1]:
        coeffs.pop()
    lcd = math.lcm(*(c.denominator for c in coeffs))
    p = _poly(nums + [0] * zeros, den)
    assert (p.nums, p.den) == (tuple(int(c * lcd) for c in coeffs), lcd)


def test_trailing_zeros_are_stripped():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])


def test_lead_of_zero_polynomial_raises():
    with pytest.raises(ValueError):
        Poly().lead


def test_monomial():
    assert Poly.monomial(3, F(1, 2)) == Poly([0, 0, 0, F(1, 2)])
    assert Poly.monomial(0) == Poly([1])
    with pytest.raises(ValueError):
        Poly.monomial(-1)


def test_basic_arithmetic():
    p = Poly([1, 2, 3])
    q = Poly([0, -2])
    assert p + q == Poly([1, 0, 3])
    assert p - p == Poly()
    assert p * q == Poly([0, -2, -4, -6])
    assert 2 * p == Poly([2, 4, 6])
    assert p * F(1, 3) == Poly([F(1, 3), F(2, 3), 1])
    assert (1 - Poly([0, 1])) == Poly([1, -1])
    assert Poly([1, 1]) ** 2 == Poly([1, 2, 1])


def test_derivative():
    p = Poly([5, 3, 0, 2])  # 5 + 3x + 2x^3
    assert p.derivative() == Poly([3, 0, 6])
    assert p.derivative(2) == Poly([0, 12])
    assert p.derivative(3) == Poly([12])
    assert p.derivative(4) == Poly()
    assert p.derivative(0) == p
    with pytest.raises(ValueError):
        p.derivative(-1)


def test_evaluation_types():
    p = Poly([1, -2, 1])  # (x-1)^2
    assert p(F(3, 2)) == F(1, 4)
    assert isinstance(p(F(3, 2)), F)
    assert p(3.0) == pytest.approx(4.0)
    assert p(1 + 1j) == pytest.approx(-1 + 0j)
    assert Poly()(F(7)) == 0


def test_evaluation_at_poly_composes():
    p = Poly([0, 0, 1])  # x^2
    inner = Poly([1, 1])  # 1 + x
    assert p(inner) == Poly([1, 2, 1])


def test_immutability():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (F(9),)


def test_hashable():
    assert hash(Poly([1, 2])) == hash(Poly([1, 2, 0]))
    assert len({Poly([1]), Poly([1]), Poly([2])}) == 2


@pytest.mark.parametrize("p", [Poly(), Poly([F(-3, 4)]), Poly([1, F(1, 2), 0, F(-7, 6)])])
def test_pickle_and_copy_keep_equality_and_hash(p):
    p.coeffs  # a cached Fraction tuple must not break the round trip
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p),
              copy.deepcopy([p, p])[1]):
        assert type(q) is Poly
        assert q == p and hash(q) == hash(p)
        assert (q.nums, q.den) == (p.nums, p.den)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_degree_of_product_adds(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree
        assert (p * q).lead == p.lead * q.lead


@given(polys, polys)
def test_derivative_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(polys, polys, rationals)
def test_evaluation_is_a_homomorphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


# --- the integer-numerator layout -------------------------------------------

small_ints = st.integers(min_value=-50, max_value=50)
finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
float_points = finite_floats | st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


def assert_canonical(p):
    assert type(p.nums) is tuple
    assert all(type(n) is int for n in p.nums)
    assert type(p.den) is int and p.den > 0
    if p.nums:
        assert p.nums[-1] != 0
        assert math.gcd(p.den, *p.nums) == 1
    else:
        assert p.den == 1


def fraction_horner(coeffs, x):
    """Horner's rule over Fraction coefficients: the reference for evaluation."""
    result = 0
    for c in reversed(coeffs):
        result = result * x + c
    return result


def same_bits(u, v):
    """Equal type and equal bits, signed zeros included."""
    bits = [(type(z), complex(z).real.hex(), complex(z).imag.hex()) for z in (u, v)]
    return bits[0] == bits[1]


@given(polys, polys, rationals, small_ints, st.integers(min_value=0, max_value=9))
def test_every_operation_returns_the_canonical_form(p, q, r, k, order):
    results = [
        p, Poly(p.coeffs + (F(0),) * 2), p + q, p - q, -p, r - p, k + p, p * q,
        p * r, r * p, p * k, p * 0, p ** 2, p.derivative(order), p(q),
        Poly.monomial(order, r),
    ]
    for result in results:
        assert_canonical(result)


@given(polys, polys, polys)
def test_equal_polynomials_built_by_different_routes_hash_equal(p, q, r):
    routes = [
        ((p * q) * r, p * (q * r)),
        (p + q - q, p),
        (Poly(p.coeffs), p),
        ((p + q).derivative(), p.derivative() + q.derivative()),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)


def test_equal_scalings_hash_equal():
    half = Poly([F(1, 2), 1])
    assert half == Poly([1, 2]) * F(1, 2)
    assert hash(half) == hash(Poly([1, 2]) * F(1, 2))
    assert (half.nums, half.den) == ((1, 2), 2)
    assert Poly([F(2, 6), F(4, 6)]) == Poly([1, 2]) * F(1, 3)
    assert (Poly([3, 6]) * F(1, 3)).den == 1
    assert (Poly(), Poly().nums, Poly().den) == (Poly([0]), (), 1)


@pytest.mark.parametrize("scalar", [0, 3, -7, F(-3, 4), F(22, 7)])
def test_constant_hashes_as_the_scalar_it_equals(scalar):
    constant = Poly([scalar])
    assert constant == scalar and hash(constant) == hash(scalar)
    assert len({constant, scalar}) == 1
    assert {scalar: "x"}.get(constant) == "x"


@given(polys, rationals | finite_floats.map(F))
def test_exact_horner_matches_fraction_reference(p, x):
    got = p(x)
    assert got == fraction_horner(p.coeffs, x)
    assert isinstance(got, F)


@given(polys, polys)
def test_composition_matches_fraction_reference(p, q):
    assert p(q) == fraction_horner(p.coeffs, q)


def test_gauss_nodes_evaluate_exactly():
    from sobhyp.sobolev import gauss_rule, jacobi_weight

    p = Poly([F(1, 3), -7, F(5, 11), 2])
    for node in gauss_rule(jacobi_weight(1, 2), 8).nodes:
        assert p(F(node)) == fraction_horner(p.coeffs, F(node))


@given(polys, float_points)
def test_float_and_complex_evaluation_match_fraction_coefficients_bitwise(p, x):
    assert same_bits(p(x), fraction_horner(p.coeffs, x))


def test_float_evaluation_rounds_each_coefficient_once():
    # 10**400 / 3 and 1 / 10**400 lie outside the float range: the first
    # overflows and the second underflows exactly as float(Fraction) does.
    tiny = Poly([1, F(1, 10**400), 3])
    assert same_bits(tiny(0.75), fraction_horner(tiny.coeffs, 0.75))
    huge = Poly([F(10**400, 3)])
    with pytest.raises(OverflowError):
        fraction_horner(huge.coeffs, 0.5)
    with pytest.raises(OverflowError):
        huge(0.5)


@given(polys)
def test_coeffs_are_a_cached_tuple_of_fractions(p):
    cs = p.coeffs
    assert type(cs) is tuple
    assert all(type(c) is F for c in cs)
    assert cs == tuple(F(n, p.den) for n in p.nums)
    assert p.coeffs is cs


# --- immutable records -------------------------------------------------------


class _Pair(_Record):
    left: int
    right: tuple

    def __post_init__(self):
        if self.left < 0:
            raise ValueError("left must be nonnegative")
        _set(self, "right", tuple(self.right))


class _Single(_Record):
    value: int


def test_record_construction_and_validation():
    assert _Pair(1, [2, 3]) == _Pair(left=1, right=(2, 3)) == _Pair(1, right=[2, 3])
    assert _Pair(1, [2]).right == (2,)  # __post_init__ replaced the field
    with pytest.raises(ValueError, match="nonnegative"):
        _Pair(-1, ())
    for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"left": 1}),
                         ((), {"left": 1, "other": 2})]:
        with pytest.raises(TypeError):
            _Pair(*args, **kwargs)


def test_record_equality_hash_and_repr():
    a, b = _Pair(1, (2, 3)), _Pair(1, (2, 3))
    assert a == b and hash(a) == hash(b) and hash(a) == hash(a)
    assert a != _Pair(1, (2, 4)) and a != _Single(1) and _Single(1) == _Single(1)
    assert len({a, b, _Pair(2, ())}) == 2
    assert repr(a) == "_Pair(left=1, right=(2, 3))"
    assert repr(_Single(7)) == "_Single(value=7)"


def test_record_is_immutable():
    a = _Pair(1, ())
    with pytest.raises(AttributeError):
        a.left = 2
    with pytest.raises(AttributeError):
        del a.left
    assert a.left == 1


def test_record_pickle_and_copy_rebuild_from_the_fields():
    a = _Pair(1, (2, 3))
    hash(a)  # a cached hash must not travel
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert "_hash" not in vars(clone)
        assert clone == a and hash(clone) == hash(a)
