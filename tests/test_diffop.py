"""Differential operators: application, composition, lowering, pencils, ODEs."""

import copy
import itertools
import math
import pickle
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

import sobhyp.diffop
import sobhyp.recurrence
from sobhyp.diffop import (
    DiffOp,
    compose,
    composed_lowering,
    identity_op,
    jacobi_operator,
    laguerre_operator,
    make_D_xi,
    ode3_residual,
    pencil_residual,
)
from sobhyp.exactnum import Poly, pochhammer
from sobhyp.families import (
    FamilySpec,
    bold_l,
    bold_p,
    jacobi,
    jacobi_shifted,
    laguerre,
    make_member,
    script_l,
    script_p,
)
from sobhyp.recurrence import phi_L, phi_P, recurrence_residual_L, recurrence_residual_P

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
polys = st.lists(rationals, max_size=6).map(Poly)
ops = st.lists(st.lists(rationals, max_size=3).map(Poly), min_size=1, max_size=3).map(
    lambda cs: DiffOp(tuple(cs))
)


def test_identity_and_order():
    assert identity_op().order == 0
    assert identity_op()(Poly([1, 2, 3])) == Poly([1, 2, 3])
    assert DiffOp(()).order is None
    assert DiffOp((Poly(), Poly())).order is None


def test_apply_matches_hand_expansion():
    # (2 + x d/dx) applied to x^2 + 1 -> 2x^2 + 2 + 2x^2 = 4x^2 + 2
    op = DiffOp((Poly([2]), Poly([0, 1])))
    assert op(Poly([1, 0, 1])) == Poly([2, 0, 4])


def test_make_D_xi_small_orders():
    assert make_D_xi(1).coeffs == (Poly([1]),)
    assert make_D_xi(2).coeffs == (Poly([1]), Poly([0, 1]))
    assert make_D_xi(3).coeffs == (Poly([2]), Poly([0, 4]), Poly([0, 0, 1]))
    with pytest.raises(ValueError):
        make_D_xi(0)


def test_make_D_xi_is_the_weighted_derivative():
    # D y = (x^(r-1) y)^((r-1)), checked literally for r up to 6
    for r in range(1, 7):
        D = make_D_xi(r)
        assert D.order == r - 1
        for y in [Poly([1]), Poly([1, 2, 3]), Poly([0, 0, 0, F(1, 3), 5])]:
            direct = (Poly.monomial(r - 1) * y).derivative(r - 1)
            assert D(y) == direct


def test_make_D_xi_preserves_degree():
    D = make_D_xi(4)
    for n in [3, 5, 9]:
        y = make_member(script_l(2, 4), n)
        assert D(y).degree == n


@given(ops, ops, polys)
def test_compose_agrees_with_sequential_application(outer, inner, y):
    assert compose(outer, inner)(y) == outer(inner(y))


def test_pickle_and_copy_keep_the_operator():
    op = compose(laguerre_operator(F(3, 2))[0], composed_lowering([2, 3]))
    y = Poly([1, F(2, 3), -5, F(1, 7)])
    for clone in (pickle.loads(pickle.dumps(op)), copy.copy(op), copy.deepcopy(op)):
        assert clone == op and clone(y) == op(y)


def test_compose_example():
    ddx = DiffOp((Poly(), Poly([1])))
    mul_x = DiffOp((Poly([0, 1]),))
    # d/dx (x y) = y + x y'
    assert compose(ddx, mul_x).coeffs == (Poly([1]), Poly([0, 1]))
    # x (d/dx y) = x y'
    assert compose(mul_x, ddx).coeffs == (Poly(), Poly([0, 1]))


def test_composed_lowering_order_sums():
    assert composed_lowering([]).coeffs == identity_op().coeffs
    assert composed_lowering([3]).coeffs == make_D_xi(3).coeffs
    assert composed_lowering([2, 3, 4]).order == 1 + 2 + 3


def test_composed_lowering_application_order():
    # The last index acts first: compare against explicit nesting.
    y = make_member(bold_l(1, [2, 3]), 4)
    nested = make_D_xi(2)(make_D_xi(3)(y))
    assert composed_lowering([2, 3])(y) == nested


def _lowering_by_leibniz(rs):
    """D_{r_1} o ... o D_{r_d} from D_r y = (x^(r-1) y)^((r-1)), by ``compose``."""
    op = identity_op()
    for r in rs:
        derivative = DiffOp((*[Poly()] * (r - 1), Poly([1])))
        op = compose(op, compose(derivative, DiffOp((Poly.monomial(r - 1),))))
    return op


@pytest.mark.parametrize("length", range(4))
def test_composed_lowering_matches_the_compose_chain(length):
    for rs in itertools.product(range(1, 6), repeat=length):
        op = composed_lowering(rs)
        assert op == _lowering_by_leibniz(rs), rs
        assert composed_lowering(rs[::-1]) == op, rs


def test_composed_lowering_is_built_once_per_order_tuple():
    assert composed_lowering([2, 3]) is composed_lowering((2, 3))
    assert make_D_xi(4) is composed_lowering([4])


def test_lowered_script_l_is_a_laguerre_polynomial():
    # D_xi maps the degree-n member to (r-1)!/binom(n+q-1, n) * L_n^(q-1)
    import math

    for q, r in [(F(2), 3), (F(1, 2), 2), (F(7, 3), 4)]:
        for n in range(7):
            lowered = make_D_xi(r)(make_member(script_l(q, r), n))
            binom = pochhammer(q, n) / F(math.factorial(n))
            classical = make_member(laguerre(q - 1), n)
            assert lowered == classical * (F(math.factorial(r - 1)) / binom)


def test_pencil_residual_script_families():
    for n in range(9):
        assert pencil_residual(script_l(F(1, 2), 3), n).is_zero
        assert pencil_residual(script_p(F(7, 3), F(2), 4), n).is_zero


def test_pencil_residual_r_equal_one_identity_path():
    for n in range(6):
        assert pencil_residual(script_l(F(3), 1), n).is_zero
        assert pencil_residual(script_p(F(1), F(2), 1), n).is_zero


def test_pencil_residual_bold_families():
    for n in range(7):
        assert pencil_residual(bold_l(F(1), [2, 3]), n).is_zero
        assert pencil_residual(bold_p(F(1, 2), F(2), [3, 2]), n).is_zero


def test_pencil_rejects_fractional_operator_index():
    with pytest.raises(ValueError):
        pencil_residual(script_l(1, F(3, 2)), 2)


def test_classical_operator_eigen_equations():
    # The operators themselves: L y_n = lambda_n y_n for classical members.
    q = F(5, 2)
    op, eig = laguerre_operator(q)
    for n in range(8):
        y = make_member(laguerre(q - 1), n)
        assert op(y) == eig(n) * y
    a, b = F(3, 2), F(2)
    opj, eigj = jacobi_operator(a, b)
    for n in range(8):
        y = make_member(bold_p(a, b, []), n)
        assert opj(y) == eigj(n) * y


def test_ode3_residual_is_zero():
    for n in range(10):
        assert ode3_residual(script_l(F(1, 2), F(5)), n).is_zero
        assert ode3_residual(script_p(F(2), F(7, 3), F(1)), n).is_zero


def test_ode3_rejects_other_kinds():
    # The classical kinds are scaled series, not series of their own.
    for spec in (laguerre(F(1, 2)), jacobi(1, 2), jacobi_shifted(F(3, 2), 1)):
        with pytest.raises(ValueError, match="no third-order equation"):
            ode3_residual(spec, 3)


def test_ode3_residual_detects_wrong_member():
    # Feeding the equation a member of the wrong degree must not vanish.
    from sobhyp.diffop import ode3_residual as resid

    spec = script_l(2, 3)
    y_wrong = make_member(spec, 4)
    y5 = make_member(spec, 5)
    # Residual built for n = 5 but evaluated on the n = 4 member:
    d1, d2, d3 = y_wrong.derivative(), y_wrong.derivative(2), y_wrong.derivative(3)
    x = Poly.monomial(1)
    q, r = spec.params
    manual = (
        Poly.monomial(2) * d3
        + Poly([0, q + r + 1, -1]) * d2
        + Poly([q * r, -2]) * d1
        + 5 * (x * d1 + y_wrong)
    )
    assert not manual.is_zero
    assert resid(spec, 5).is_zero and not manual == resid(spec, 5)


# --- reference forms ----------------------------------------------------------
#
# Each identity residual is one integer pass over band weights.  The forms
# below build the same residuals as sums of Poly products and derivatives,
# term by term, and the passes must give the same Poly, field for field.


def _apply_by_products(op, y):
    """sum_k c_k (d^k y), one Poly product and sum per term."""
    out = Poly()
    for k, ck in enumerate(op.coeffs):
        if not ck.is_zero:
            out = out + ck * y.derivative(k)
    return out


def _same(got, want):
    return (got.nums, got.den) == (want.nums, want.den)


coefficient_polys = st.lists(rationals, max_size=4).map(Poly)  # the empty list is zero
operators = st.lists(coefficient_polys, max_size=6).map(lambda cs: DiffOp(tuple(cs)))
ORDER_ABOVE_DEGREE = DiffOp((Poly(), Poly(), Poly(), Poly([1, F(2, 3)])))


@given(operators, polys)
@example(ORDER_ABOVE_DEGREE, Poly([3, 1]))
@example(DiffOp((Poly([F(1, 2)]), Poly(), Poly([0, -1]))), Poly())  # zero y
@example(DiffOp(()), Poly([1, 2]))  # the zero operator
def test_apply_matches_products_and_derivatives(op, y):
    assert _same(op(y), _apply_by_products(op, y))


# --- band reference for compose ----------------------------------------------
#
# ``compose`` applies Leibniz's rule to the coefficients.  The reference below
# convolves the two operators' bands instead and reads the coefficients back
# by forward differences; the two must agree field for field.


def _from_bands(bands, den, order):
    """The operator of bands sigma_s / den, each of degree <= ``order`` in m: its
    x^(k+s) d^k coefficient is the forward difference (Delta^k sigma_s)(0) / k!."""
    terms = [[] for _ in range(order + 1)]
    for s, sigma in bands:
        diffs = [sigma(m) for m in range(order + 1)]
        for k in range(order + 1):
            if diffs[0]:
                terms[k].append(Poly.monomial(k + s, F(diffs[0], math.factorial(k) * den)))
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return DiffOp(tuple(sum(t, Poly()) for t in terms))


def _compose_by_bands(outer, inner):
    """Band s of outer(inner(y)) is sum_t outer_(s-t)(m+t) inner_t(m), with
    inner_t(m) = 0 where m + t < 0."""
    (outer_bands, outer_den), (inner_bands, inner_den) = outer._bands, inner._bands
    bands = [(u + t, lambda m, f=sigma, t=t, g=tau: f(m + t) * g(m) if m + t >= 0 else 0)
             for t, tau in inner_bands for u, sigma in outer_bands]
    return _from_bands(bands, outer_den * inner_den, (outer.order or 0) + (inner.order or 0))


def _same_op(got, want):
    return [(c.nums, c.den) for c in got.coeffs] == [(c.nums, c.den) for c in want.coeffs]


@given(operators, operators)
@example(DiffOp(()), ORDER_ABOVE_DEGREE)  # the zero operator
@example(ORDER_ABOVE_DEGREE, DiffOp(()))
@example(ORDER_ABOVE_DEGREE, DiffOp((Poly([0, F(1, 2), 3]), Poly([1]))))  # d^3 after degree 2
@example(DiffOp((Poly([0, 0, 1]),)), ORDER_ABOVE_DEGREE)
def test_compose_matches_the_band_convolution(outer, inner):
    assert _same_op(compose(outer, inner), _compose_by_bands(outer, inner))


def test_composed_lowering_matches_the_forward_differences_of_its_band():
    tuples = [rs for length in range(4) for rs in itertools.product(range(1, 6), repeat=length)]
    for rs in tuples + [(2, 2, 2, 2)]:
        lam = lambda m: math.prod(pochhammer(m + 1, r - 1) for r in rs)
        want = _from_bands([(0, lam)], 1, sum(rs) - len(rs))
        assert _same_op(composed_lowering(rs), want), rs


def _pencil_by_products(spec, n, y):
    if spec.kind in ("scriptL", "boldL"):
        (op, eig), orders = laguerre_operator(spec.params[0]), spec.params[1:]
    else:
        (op, eig), orders = jacobi_operator(*spec.params[:2]), spec.params[2:]
    u = y
    for r in map(int, orders):  # D_r u = (x^(r-1) u)^((r-1))
        u = (Poly.monomial(r - 1) * u).derivative(r - 1)
    return _apply_by_products(op, u) - eig(n) * u


def _ode3_by_products(spec, n, y):
    if spec.kind == "scriptL":
        q, r = spec.params
        lam = n
        coeffs = [[q * r, lam - 2], [0, q + r + 1, -1], [0, 0, 1]]
    else:
        a, b, c = spec.params
        lam = n * (n + a + b - 1)
        coeffs = [[a * c, lam - 2 * (a + b)], [0, a + c + 1, -(a + b + 3)], [0, 0, 1, -1]]
    return _apply_by_products(DiffOp((Poly([lam]), *map(Poly, coeffs))), y)


def _theta_form_by_products(spec, n, y):
    """[theta prod_l (theta+l-1) - x prod_u (theta+u)] y over x, with theta y = x y' and
    the series' upper and lower parameters u, l written out here."""
    if spec.kind in ("scriptL", "boldL"):
        q, *rs = spec.params
        upper, lower = [-n, *[1] * len(rs)], [q, *rs]
    else:
        a, b, *cs = spec.params
        upper, lower = [-n, n - 1 + a + b, *[1] * len(cs)], [a, *cs]
    x = Poly.monomial(1)
    left, right = x * y.derivative(), y
    for v in lower:
        left = x * left.derivative() + (v - 1) * left
    for u in upper:
        right = x * right.derivative() + u * right
    image = left - x * right
    assert image.coefficient(0) == 0
    return Poly(image.coeffs[1:])


def _recurrence_by_products(spec, n, member):
    phi = (phi_L if spec.kind == "scriptL" else phi_P)(*spec.params, n)
    x = Poly.monomial(1)
    ym2 = member(spec, n - 2) if n >= 2 else Poly()
    ym1 = member(spec, n - 1) if n >= 1 else Poly()
    yn, yp1 = member(spec, n), member(spec, n + 1)
    return (phi.phi1 * ym2 + phi.phi2 * ym1 + phi.phi3 * yn + phi.phi4 * yp1
            + phi.phi5 * (x * ym1) + phi.phi6 * (x * yn))


def _perturbed(spec, n):
    """The member with one coefficient moved, a different one for each n."""
    return make_member(spec, n) + Poly.monomial((5 * n + 2) % (n + 1), F(1, n + 7))


SCRIPT_SPECS = [script_l(F(1, 2), 3), script_l(F(7, 3), 1), script_p(F(1, 2), F(2, 3), 2),
                script_p(F(3), F(5, 4), 1), script_p(F(2, 5), F(1, 3), 4)]
BOLD_SPECS = [bold_l(F(2, 3), []), bold_l(F(1, 3), [2]), bold_l(F(3, 2), [2, 3]),
              bold_l(F(5, 4), [3, 1, 2]), bold_p(F(1, 2), F(3, 5), []), bold_p(F(1, 3), F(2), [2]),
              bold_p(F(2), F(1, 2), [3, 2]), bold_p(F(1, 2), F(2), [3, 2, 4])]
# Weights whose denominators share a factor, so that their lcm is less than their product.
SHARED_DENOMINATOR_SPECS = [bold_p(F(1, 2), F(3, 4), [2]), script_p(F(5, 6), F(3, 4), 3),
                            bold_p(F(1, 6), F(2, 9), []), bold_p(F(3, 4), F(5, 4), [2, 3])]


@pytest.fixture
def perturbed_members(monkeypatch):
    monkeypatch.setattr(sobhyp.diffop, "make_member", _perturbed)
    monkeypatch.setattr(sobhyp.recurrence, "make_member", _perturbed)


@pytest.mark.parametrize("spec", SCRIPT_SPECS + BOLD_SPECS + SHARED_DENOMINATOR_SPECS, ids=str)
def test_pencil_pass_matches_products_on_perturbed_members(perturbed_members, spec):
    for n in range(10):
        got = pencil_residual(spec, n)
        assert _same(got, _pencil_by_products(spec, n, _perturbed(spec, n))), n
        assert n == 0 or not got.is_zero, n


@pytest.mark.parametrize("spec", SCRIPT_SPECS + BOLD_SPECS, ids=str)
def test_ode3_pass_matches_products_on_perturbed_members(perturbed_members, spec):
    for n in range(10):
        got, y = ode3_residual(spec, n), _perturbed(spec, n)
        assert _same(got, _theta_form_by_products(spec, n, y)), n
        if spec.kind in ("scriptL", "scriptP"):
            assert _same(got, _ode3_by_products(spec, n, y)), n
        assert n == 0 or not got.is_zero, n  # every constant solves the n = 0 equation


@pytest.mark.parametrize("spec", SCRIPT_SPECS, ids=str)
def test_recurrence_pass_matches_products_on_perturbed_members(perturbed_members, spec):
    residual = recurrence_residual_L if spec.kind == "scriptL" else recurrence_residual_P
    for n in range(10):
        got = residual(*spec.params, n)
        assert _same(got, _recurrence_by_products(spec, n, _perturbed)), n
        assert not got.is_zero, n


# --- per-spec band tables -----------------------------------------------------
#
# Each residual reads its n-free band values from int tuples cached per equal
# spec and power-of-two size.  The reference below evaluates the bands afresh
# for every m, as rationals, from the residuals' own formulas.


def _band_formulas_pass(bands, y):
    """sum_s sigma_s(m) y_m x^(m+s) over the bands (s, sigma_s), one m at a time."""
    out = [F(0)] * len(y.coeffs)
    for s, sigma in bands:
        for m in range(max(0, -s), len(y.coeffs)):
            out[m + s] += sigma(m) * y.coeffs[m]
    return Poly(out)


def _split(spec):
    weights = 1 if spec.kind in ("scriptL", "boldL") else 2
    return spec.params[:weights], spec.params[weights:]


def _pencil_by_band_formulas(spec, n, y):
    (w, *b), orders = _split(spec)
    lam = lambda m: math.prod(pochhammer(m + 1, int(r) - 1) for r in orders)
    e = (lambda k: k) if not b else (lambda k: k * (k + w + b[0] - 1))
    return _band_formulas_pass(((-1, lambda m: m * (m - 1 + w) * lam(m)),
                                (0, lambda m: (e(n) - e(m)) * lam(m))), y)


def _ode3_by_band_formulas(spec, n, y):
    (w, *b), slots = _split(spec)
    upper = [-n, *[n - 1 + w + v for v in b], *[1] * len(slots)]
    lower = [w, *slots]
    return _band_formulas_pass(((-1, lambda m: m * math.prod(l + m - 1 for l in lower)),
                                (0, lambda m: -math.prod(u + m for u in upper))), y)


positive = st.fractions(min_value=0, max_value=6, max_denominator=12).filter(lambda v: v > 0)


@st.composite
def series_specs(draw):
    """(kind, params) of a series kind, 0-3 slots on the bold kinds, a + b often 1 or 2."""
    kind = draw(st.sampled_from(["scriptL", "scriptP", "boldL", "boldP"]))
    if kind.endswith("L"):
        weights = [draw(positive)]
    else:
        total = draw(st.sampled_from([None, 1, 2]))
        if total is None:
            weights = [draw(positive), draw(positive)]
        else:
            a = draw(st.fractions(min_value=0, max_value=total, max_denominator=12)
                     .filter(lambda v: 0 < v < total))
            weights = [a, total - a]
    count = 1 if kind.startswith("script") else draw(st.integers(0, 3))
    slot = st.integers(1, 5) if draw(st.booleans()) else positive
    return kind, (*weights, *draw(st.lists(slot, min_size=count, max_size=count)))


def _lifted(spec, n):
    """The perturbed member plus a term of degree n + 1, one past y_n's degree."""
    return _perturbed(spec, n) + Poly.monomial(n + 1, F(1, n + 3))


def _long(spec, n):
    """The perturbed member plus a term of degree 2n + 3, past any table sized from n."""
    return _perturbed(spec, n) + Poly.monomial(2 * n + 3, F(1, n + 5))


@given(series_specs(), st.lists(st.integers(0, 14), min_size=1, max_size=6))
@example(("boldP", (F(1, 2), F(1, 2), 2)), [14, 0, 7, 3])  # a + b = 1
@example(("boldP", (F(1, 3), F(5, 3), 3, 1, 2)), [9, 9, 2])  # a + b = 2
@example(("boldL", (F(7, 3),)), [12, 1])
@example(("scriptL", (F(1, 2), F(5, 2))), [6, 2])  # fractional slot: no pencil
def test_band_tables_match_the_band_formulas(kind_params, ns):
    specs = [FamilySpec(*kind_params), FamilySpec(*kind_params)]  # equal, one shared table
    assert specs[0] == specs[1] and specs[0] is not specs[1]
    integral = all(v.denominator == 1 for v in _split(specs[0])[1])

    def check(member):
        for i, n in enumerate(ns):
            spec, y = specs[i % 2], member(specs[i % 2], n)
            assert _same(ode3_residual(spec, n), _ode3_by_band_formulas(spec, n, y)), n
            if integral:
                assert _same(pencil_residual(spec, n), _pencil_by_band_formulas(spec, n, y)), n
            else:
                with pytest.raises(ValueError, match="must be a positive integer"):
                    pencil_residual(spec, n)

    check(make_member)
    # The tables now exist; a member swapped in afterwards must still be the one
    # used, read in full however long it is.  Its residuals are never zero, so
    # the true member's would not pass.
    for member in (_lifted, _long):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sobhyp.diffop, "make_member", member)
            check(member)


TABLES = [(sobhyp.diffop._pencil_bands, pencil_residual),
          (sobhyp.diffop._ode3_bands, ode3_residual)]


@pytest.mark.parametrize("bands", [bands for bands, _ in TABLES], ids=["pencil", "ode3"])
def test_equal_specs_share_one_table(bands):
    first, second = bold_p(F(1, 2), F(7, 3), [2, 3]), bold_p(F(1, 2), F(7, 3), [2, 3])
    assert first == second and first is not second
    for size in (1, 2, 8, 64):
        tables = bands(first, size)
        assert tables is bands(second, size)
        den, *rows = tables
        assert type(den) is int
        assert all(len(row) == size and all(type(v) is int for v in row) for row in rows)


@pytest.mark.parametrize("bands, residual", TABLES, ids=["pencil", "ode3"])
def test_a_sweep_builds_logarithmically_many_tables(bands, residual):
    N, spec = 40, bold_p(F(3, 11), F(29, 13), [2, 4])  # a spec no other test uses
    before = bands.cache_info().currsize
    for n in range(N + 1):
        assert residual(spec, n).is_zero
    # Sizes 1, 2, 4, .., 64: seven tables, the bound floor(log2(N + 1)) + 2 exactly.
    assert bands.cache_info().currsize - before <= math.floor(math.log2(N + 1)) + 2


def test_a_fractional_slot_raises_on_every_call():
    spec = script_l(1, F(3, 2))
    for _ in range(3):  # a cached table builder keeps no exception
        with pytest.raises(ValueError, match="lowering-operator index must be a positive integer"):
            pencil_residual(spec, 2)


def test_spec_checks_come_before_the_member_index():
    with pytest.raises(ValueError, match="lowering-operator index must be a positive integer"):
        pencil_residual(script_l(1, F(3, 2)), -1)
    with pytest.raises(ValueError, match="no third-order equation"):
        ode3_residual(laguerre(F(1, 2)), -1)


def test_threads_sharing_one_spec_read_whole_tables():
    """Four threads start at once on one fresh spec per trial, each taking every
    fourth n from the top down, so that they build and extend the same tables
    together while the interpreter switches threads as often as it can."""
    ns, trials, got = range(40, 0, -1), [], {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(50):
            spec = bold_p(F(1, 2), F(2 * trial + 5, 3), [2, 3])
            barrier = threading.Barrier(4, timeout=10)
            for n in ns:  # the members first, so that the threads meet at the tables
                make_member(spec, n)

            def run(part):
                barrier.wait()
                for n in part:
                    got[spec, n] = pencil_residual(spec, n), ode3_residual(spec, n)

            threads = [threading.Thread(target=run, args=(ns[i::4],)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            trials.append(spec)
    finally:
        sys.setswitchinterval(interval)
    residuals = [(spec, n, i, r) for spec in trials for n in ns for i, r in enumerate(got[spec, n])]
    wrong = sum(not r.is_zero for *_, r in residuals)
    assert wrong == 0, f"{wrong} of {len(residuals)} residuals of true members are nonzero"
    for spec, n, i, r in residuals:
        alone = (pencil_residual, ode3_residual)[i](spec, n)
        assert _same(r, alone), (spec, n, i)
