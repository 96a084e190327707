"""Five-polynomial recurrences, generation, and the psi identities."""

import itertools
from fractions import Fraction as F

import pytest

from sobhyp.exactnum import Poly
from sobhyp.families import make_member, script_p
from sobhyp.recurrence import (
    DomainError,
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
