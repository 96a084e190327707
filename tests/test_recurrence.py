"""Five-polynomial recurrences, generation, and the psi identities."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from sobhyp.exactnum import Poly, _poly, _scaled
from sobhyp.families import FamilySpec, make_member, script_l, script_p
from sobhyp.recurrence import (
    DomainError,
    _five_term_residual,
    _phi_L_nums,
    _phi_P_nums,
    generate_P_by_recurrence,
    phi_L,
    phi_P,
    psi_P,
    psi_consistency,
    recurrence_residual_L,
    recurrence_residual_P,
)


def test_phi_P_hardcoded_n0():
    a, b, c = F(1), F(2), F(3)
    f = phi_P(a, b, c, 0)
    s = a + b
    assert f.phi2 == 0
    assert f.phi3 == -a * c * (s - 1) * (s - 2)
    assert f.phi4 == a * c * (s - 1) * (s - 2)
    assert f.phi6 == (s - 1) * s * (s - 2)
    assert f.phi1 == -f.phi2 - f.phi3 - f.phi4


def test_phi_P_negative_index_rejected():
    with pytest.raises(ValueError):
        phi_P(1, 1, 1, -1)


def test_phi_L_and_generation_reject_a_negative_index():
    with pytest.raises(ValueError, match="^recurrence index must be nonnegative$"):
        phi_L(1, 1, -1)
    with pytest.raises(ValueError, match="^generation length must be nonnegative$"):
        generate_P_by_recurrence(1, 2, 3, -1)


@pytest.mark.parametrize("func,args,family", [
    (generate_P_by_recurrence, (F(-1, 2), 3, 1, 5), "scriptP"),
    (generate_P_by_recurrence, (F(-1, 2), 3, 1, 0), "scriptP"),
    (psi_consistency, (F(-1, 2), 1, 1, 4), "scriptP"),
    (psi_P, (1, 0, 1, 4), "scriptP"),
    (phi_P, (1, 2, -3, 2), "scriptP"),
    (recurrence_residual_P, (0, 1, 1, 2), "scriptP"),
    (phi_L, (-3, 0, 2), "scriptL"),
    (recurrence_residual_L, (1, 0, 2), "scriptL"),
])
def test_parameters_follow_the_family_rule(func, args, family):
    # The relations are the families' own: their domain is script_p's/script_l's.
    with pytest.raises(ValueError, match=f"{family} parameters must be strictly positive"):
        func(*args)


def test_parameters_are_coerced_as_the_family_coerces():
    assert phi_P("1", "2", "3", 4) == phi_P(F(1), F(2), F(3), 4)
    assert phi_L("2/3", 5, 3) == phi_L(F(2, 3), F(5), 3)
    with pytest.raises(TypeError):
        phi_P(1.0, 2, 3, 4)


def test_phi_L_values():
    q, r, n = F(2), F(3), 4
    f = phi_L(q, r, n)
    assert f.phi1 == (n - 1) * n
    assert f.phi2 == -n * (3 * n + q + r - 2)
    assert f.phi3 == n * (2 * n + q + r - 1) + (n + q) * (n + r)
    assert f.phi4 == -(n + q) * (n + r)
    assert f.phi5 == n
    assert f.phi6 == -(n + 1)


def test_residual_P_zero_small_grid():
    for a, b, c in [(F(1), F(2), F(3)), (F(1, 2), F(1, 2), F(1, 2)), (F(3), F(3), F(3))]:
        for n in range(9):
            assert recurrence_residual_P(a, b, c, n).is_zero


def test_residual_P_zero_on_degenerate_boundary():
    # a+b in {1, 2}: all coefficients of the n = 0 relation vanish together,
    # so the residual is still the zero polynomial.
    for a, b in [(F(1, 2), F(1, 2)), (F(1), F(1)), (F(3, 2), F(1, 2))]:
        for n in range(6):
            assert recurrence_residual_P(a, b, F(2), n).is_zero


def test_residual_L_zero_small_grid():
    for q, r in [(F(1), F(2)), (F(7, 3), F(1)), (F(5), F(5))]:
        for n in range(9):
            assert recurrence_residual_L(q, r, n).is_zero


def test_residual_L_n0_case():
    # qr y_0 - qr y_1 - x y_0 must cancel exactly.
    assert recurrence_residual_L(F(3), F(4), 0).is_zero


def test_wrong_phi5_breaks_the_recurrence():
    # Replacing phi5 by phi6 (an easy transcription slip) must not verify.
    a, b, c, n = F(1), F(2), F(3), 3
    f = phi_P(a, b, c, n)
    x = Poly.monomial(1)
    spec = script_p(a, b, c)
    members = [make_member(spec, k) for k in range(n + 2)]
    residual = (
        f.phi1 * members[n - 2]
        + f.phi2 * members[n - 1]
        + f.phi3 * members[n]
        + f.phi4 * members[n + 1]
        + f.phi6 * (x * members[n - 1])  # wrong slot on purpose
        + f.phi6 * (x * members[n])
    )
    assert not residual.is_zero


def test_generation_matches_direct_construction():
    for a, b, c in [(F(1), F(2), F(3)), (F(1, 2), F(3), F(2)), (F(7, 3), F(5), F(1))]:
        spec = script_p(a, b, c)
        got = generate_P_by_recurrence(a, b, c, 12)
        assert len(got) == 13
        for k, poly in enumerate(got):
            assert poly == make_member(spec, k), (a, b, c, k)


@pytest.mark.parametrize("func,args", [
    (generate_P_by_recurrence, (F(1, 2), F(3), F(2), 8)),
    (recurrence_residual_P, (F(1, 2), F(3), F(2), 4)),
    (recurrence_residual_L, (F(2, 3), F(3), 4)),
])
def test_each_call_validates_its_parameters_once(monkeypatch, func, args):
    # One FamilySpec per call, however many indices the call runs over.
    built = []
    check = FamilySpec.__post_init__
    monkeypatch.setattr(FamilySpec, "__post_init__",
                        lambda spec: (built.append(spec), check(spec)))
    func(*args)
    assert len(built) == 1


def test_generation_blocked_on_degenerate_boundary():
    # phi4(0) = 0 when a+b = 2 and phi4(0) = phi4(1) = 0 when a+b = 1:
    # the relation holds but cannot be solved for the next member.
    with pytest.raises(DomainError):
        generate_P_by_recurrence(F(1), F(1), F(2), 5)
    with pytest.raises(DomainError):
        generate_P_by_recurrence(F(1, 2), F(1, 2), F(2), 5)
    # Length-zero generation never needs phi4.
    assert generate_P_by_recurrence(F(1), F(1), F(2), 0) == [Poly([1])]


def test_psi_consistency_exact():
    for a, b, c in itertools.product([F(1), F(2), F(3)], repeat=3):
        for n in range(2, 8):
            assert psi_consistency(a, b, c, n) == (0, 0, 0, 0)


def test_psi_consistency_rational_parameters():
    assert psi_consistency(F(1, 2), F(7, 3), F(5), 4) == (0, 0, 0, 0)


def test_psi_trivial_when_c_is_one():
    # The fourth relation carries a factor (c-1); at c = 1 it is trivially
    # zero while the others still pin the coefficients down.
    res = psi_consistency(F(2), F(3), F(1), 5)
    assert res == (0, 0, 0, 0)


def test_psi_requires_n_at_least_two():
    with pytest.raises(DomainError):
        psi_P(1, 2, 3, 1)


def test_phi4_nonzero_off_degenerate_slices():
    # phi4 = (a+n)(c+n)(n+s-1)(n+s-2) vanishes only on the slices
    # (n=0, a+b in {1,2}) and (n=1, a+b=1); it is strictly positive once
    # n >= 2 but can take either sign at n = 0.
    for a, b, c in itertools.product([F(1, 2), F(1), F(3)], repeat=3):
        s = a + b
        for n in range(0, 12):
            f = phi_P(a, b, c, n)
            on_slice = (n == 0 and s in (1, 2)) or (n == 1 and s == 1)
            if on_slice:
                assert f.phi4 == 0, (a, b, c, n)
            else:
                assert f.phi4 != 0, (a, b, c, n)
            if n >= 2:
                assert f.phi4 > 0, (a, b, c, n)


# --- the closed forms as Fraction arithmetic, the reference for the int forms -----


def _phi_L_fractions(q, r, n):
    return (F((n - 1) * n), -n * (3 * n + q + r - 2),
            n * (2 * n + q + r - 1) + (n + q) * (n + r), -(n + q) * (n + r), F(n), F(-(n + 1)))


def _phi_P_fractions(a, b, c, n):
    s = a + b
    if n == 0:
        phi2 = F(0)
        phi3 = -a * c * (s - 1) * (s - 2)
    elif n == 1:
        bracket = a + c + 1 + (a + 1) * (c + 1)
        phi2 = (s - 1) * (s + 1) * bracket - 3 * a * c * (s + 1) - (a + 1) * (c + 1) * (s - 1) * s
        phi3 = -(s + 1) * (s - 1) * bracket + 3 * a * c * (s + 1)
    else:
        d3 = 2 * n + s - 3
        d4 = 2 * n + s - 4
        core = n * (2 * n + a + c - 1) + (a + n) * (c + n)
        phi3 = -(2 * n + s - 1) * (n + s - 2) * (core - 3 * n * (a + n - 1) * (c + n - 1) / d3)
        phi2 = n * (
            d3 * (2 * n + s - 1) * core
            - 3 * n * (2 * n + s - 1) * (a + n - 1) * (c + n - 1)
            - F(1, 2) * (a + n) * (c + n) * d3 * (2 * n + s - 2) * (n + 1)
            - (n + s - 3) * (2 * n + s - 1) * (2 * n + s) * (a + n - 2) * (c + n - 2) / d4
            + F(1, 2) * (2 * n + s - 1) * (2 * n + s) * (n + 1) * (a + n - 2) * (c + n - 2)
        )
    phi4 = (a + n) * (c + n) * (n + s - 1) * (n + s - 2)
    phi5 = -n * (n + s - 3) * (2 * n + s - 1) * (2 * n + s)
    phi6 = (2 * n + s - 1) * (2 * n + s) * (n + 1) * (n + s - 2)
    return (-phi2 - phi3 - phi4, phi2, phi3, phi4, phi5, phi6)


def _psi_P_fractions(a, b, c, n):
    s = a + b
    f1, f2, f3, f4, f5, f6 = _phi_P_fractions(a, b, c, n)
    return (
        (n + s - 3) * (n + s - 2) * (n + s - 1) / F((n + 1) * n * (n - 1)) * f1,
        (n + s - 2) * (n + s - 1) / F((n + 1) * n) * f2,
        (n + s - 1) / F(n + 1) * f3,
        f4,
        -(n + s - 2) * (n + s - 1) / F((n + 1) * n) * f5,
        -(n + s - 1) / F(n + 1) * f6,
    )


def _psi_consistency_fractions(a, b, c, n):
    s = a + b
    _, p2, p3, p4, p5, p6 = _psi_P_fractions(a, b, c, n)
    return (
        p4 * (2 * n + s - 1) * (2 * n + s) + p6 * (a + n) * (c + n),
        p3 * (2 * n + s - 3) * (2 * n + s - 2)
        + p4 * (2 * n + s - 3) * (2 * n + s - 2) * (2 * n + s - 1)
        + p5 * (a + n - 1) * (c + n - 1)
        + p6 * (2 * n + s - 3) * (a + n - 1) * (c + n - 1),
        2 * p2 * (2 * n + s - 4)
        + 2 * p3 * (2 * n + s - 4) * (2 * n + s - 3)
        + p4 * (2 * n + s - 4) * (2 * n + s - 3) * (2 * n + s - 2)
        + 2 * p5 * (a + n - 2) * (c + n - 2)
        + p6 * (2 * n + s - 4) * (a + n - 2) * (c + n - 2),
        p5 * (n + 1) * (a - 1) * (c - 1) + p6 * (n + s - 3) * (a - 1) * (c - 1),
    )


def _assert_matches_the_fraction_forms(a, b, c, n):
    f = phi_P(a, b, c, n)
    got = [(f.phi1, f.phi2, f.phi3, f.phi4, f.phi5, f.phi6)]
    assert got[0] == _phi_P_fractions(a, b, c, n)
    if n >= 2:
        p = psi_P(a, b, c, n)
        got += [(p.psi1, p.psi2, p.psi3, p.psi4, p.psi5, p.psi6), psi_consistency(a, b, c, n)]
        assert got[1] == _psi_P_fractions(a, b, c, n)
        assert got[2] == _psi_consistency_fractions(a, b, c, n)
    assert all(type(v) is F for values in got for v in values)


def _rational_grid(seed, count):
    rng = random.Random(seed)
    points = [tuple(F(rng.randint(1, 30), rng.randint(1, 8)) for _ in range(3))
              for _ in range(count)]
    # The degenerate slices a + b = 1 and a + b = 2, where phi4 vanishes at n <= 1.
    for s in (1, 2):
        for _ in range(count // 4):
            a = F(rng.randint(1, 7), 8) * s
            points.append((a, s - a, F(rng.randint(1, 30), rng.randint(1, 8))))
    return points


def test_int_forms_match_the_fraction_forms_on_a_seeded_grid():
    for a, b, c in _rational_grid(2019, 40):
        for n in range(0, 13):
            _assert_matches_the_fraction_forms(a, b, c, n)


@given(
    st.tuples(*[st.fractions(min_value=0, max_value=40, max_denominator=60)
                .filter(lambda v: v > 0)] * 3),
    st.integers(0, 40),
)
def test_int_forms_match_the_fraction_forms_property(params, n):
    _assert_matches_the_fraction_forms(*params, n)


def _assert_phi_L_matches_the_fraction_forms(q, r, n):
    f = phi_L(q, r, n)
    got = (f.phi1, f.phi2, f.phi3, f.phi4, f.phi5, f.phi6)
    assert got == _phi_L_fractions(q, r, n)
    assert all(type(v) is F for v in got)


def test_phi_L_int_form_matches_the_fraction_forms_on_a_seeded_grid():
    for q, r, _ in _rational_grid(2019, 40):
        for n in range(0, 13):
            _assert_phi_L_matches_the_fraction_forms(q, r, n)


@given(
    st.tuples(*[st.fractions(min_value=0, max_value=40, max_denominator=60)
                .filter(lambda v: v > 0)] * 2),
    st.integers(0, 40),
)
def test_phi_L_int_form_matches_the_fraction_forms_property(params, n):
    _assert_phi_L_matches_the_fraction_forms(*params, n)


def _row_loop_residual(member, n, phis, den=1):
    """The five-term residual as six numerator rows added one at a time over the
    members' lcm, the two x rows shifted up by one: the reference for the fused pass."""
    ys = [member(k) if k >= 0 else Poly() for k in range(n - 2, n + 2)]
    rows = (*zip(phis, ys, (0, 0, 0, 0)), (phis[4], ys[1], 1), (phis[5], ys[2], 1))
    top = math.lcm(*(y.den for y in ys))
    out = [0] * (1 + max(len(y.nums) for y in ys))
    for f, y, s in rows:
        scale = f * (top // y.den)
        for k, v in enumerate(y.nums, s):
            out[k] += scale * v
    return _poly(out, top * den)


def _perturbations(spec, n):
    """Member maps for index n: the true members, each member plus a degree-(n+2)
    term, and each member with its constant or its leading coefficient zeroed."""
    def true(k):
        return make_member(spec, k)

    def longer(k):
        return make_member(spec, k) + Poly.monomial(n + 2, F(k + 1, 7))

    def zeroed(j):
        def member(k):
            y = make_member(spec, k)
            nums = list(y.nums)
            nums[j if j >= 0 else k] = 0
            return Poly([F(v, y.den) for v in nums])
        return member

    return true, longer, zeroed(0), zeroed(-1)


@pytest.mark.parametrize("spec", [script_p(F(7, 3), F(5, 4), 3), script_p(F(1, 2), F(1, 2), 2),
                                  script_l(F(7, 3), 3), script_l(F(1, 2), F(5, 3))])
def test_fused_five_term_pass_matches_the_row_loop(spec):
    scaled = _scaled(*spec.params)
    phi_nums = _phi_P_nums if spec.kind == "scriptP" else _phi_L_nums
    for n in range(13):  # below n = 2 the missing members read as zero
        phis, den = phi_nums(*scaled, n)
        got = [_five_term_residual(member, n, phis, den) for member in _perturbations(spec, n)]
        want = [_row_loop_residual(member, n, phis, den) for member in _perturbations(spec, n)]
        assert [(r.nums, r.den) for r in got] == [(r.nums, r.den) for r in want], (spec, n)
        assert got[0].is_zero
        # On the degenerate slice a + b = 1 every phi vanishes at n = 0.
        assert got[1].is_zero == (not any(phis))
