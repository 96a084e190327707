"""Sobolev forms: moments, exact orthogonality, Gauss rules, quadrature."""

import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import sobhyp
import sobhyp.sobolev
from sobhyp.exactnum import Poly, pochhammer
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
from sobhyp.diffop import (
    DiffOp,
    composed_lowering,
    jacobi_operator,
    laguerre_operator,
    make_D_xi,
    pencil_residual,
)
from sobhyp.sobolev import (
    ConvergenceError,
    OrthogonalityReport,
    QuadRule,
    SobolevForm,
    WeightSpec,
    _exact_rule_sum,
    _gram_rows,
    _proved_diagonal,
    _ql_implicit,
    a_n_normalized,
    gauss_rule,
    jacobi_weight,
    laguerre_weight,
    moment,
    sobolev_form_for,
    sobolev_inner_exact,
    sobolev_inner_quadrature,
    verify_orthogonality,
)


def test_weight_validation():
    with pytest.raises(ValueError):
        laguerre_weight(0)
    with pytest.raises(ValueError):
        jacobi_weight(1, -2)
    with pytest.raises(ValueError):
        WeightSpec("cauchy", (F(1),))
    with pytest.raises(ValueError, match=r"^laguerre weight takes 1 parameter\(s\)$"):
        WeightSpec("laguerre", (1, 2))


def _closed_form_moment(weight, k):
    """mu_k from the Pochhammer closed form, independent of ``moment``."""
    if weight.kind == "laguerre":
        return F(pochhammer(weight.params[0], k))
    a, b = weight.params
    return F(pochhammer(a, k)) / pochhammer(a + b, k)


def test_moments_closed_forms():
    weights = [
        laguerre_weight(F(7, 3)),
        laguerre_weight(1),
        jacobi_weight(F(1, 2), F(3, 2)),
        jacobi_weight(F(1, 3), F(5, 7)),  # a + b = 22/21, not an integer
    ]
    for weight in weights:
        # verify orthogonality at nmax 32 reads mu_k up to k = 64.
        for k in range(71):
            got = moment(weight, k)
            assert isinstance(got, F)  # exact even at k = 0
            assert got == _closed_form_moment(weight, k), (weight, k)
        with pytest.raises(ValueError):
            moment(weight, -1)


def test_moment_is_coefficient_k_of_the_moment_series():
    for weight in (laguerre_weight(F(7, 3)), jacobi_weight(F(1, 2), F(3, 2)),
                   jacobi_weight(F(1, 3), F(5, 7))):
        for k in range(41):
            got = moment(weight, k)
            assert isinstance(got, F) and got == sobhyp.sobolev._moments(weight, k).coeffs[k]


def _fraction_moments(weight, K):
    """mu_0..mu_K by the Fraction ratio mu_{k+1} = mu_k (q+k), or mu_k (a+k)/(a+b+k)."""
    out = [F(1)]
    for k in range(K):
        if weight.kind == "laguerre":
            out.append(out[-1] * (weight.params[0] + k))
        else:
            a, b = weight.params
            out.append(out[-1] * (a + k) / (a + b + k))
    return Poly(out)


_moment_param = st.fractions(min_value=F(1, 9), max_value=12, max_denominator=9)


@given(
    st.one_of(
        st.builds(laguerre_weight, _moment_param),
        st.builds(jacobi_weight, _moment_param, _moment_param),
        # a + b = 1
        _moment_param.filter(lambda a: a < 1).map(lambda a: jacobi_weight(a, 1 - a)),
    ),
    st.integers(0, 60),
)
@example(jacobi_weight(F(1, 3), F(2, 3)), 60)
@example(laguerre_weight(F(7, 3)), 60)
def test_moment_series_matches_the_fraction_ratio(weight, K):
    got, want = sobhyp.sobolev._moments(weight, K), _fraction_moments(weight, K)
    assert (got.nums, got.den) == (want.nums, want.den)


def test_moment_uniform_case():
    # jacobi(1, 1) is the uniform density on (0, 1): moments 1/(k+1).
    w = jacobi_weight(1, 1)
    for k in range(6):
        assert moment(w, k) == F(1, k + 1)


def test_sobolev_form_requires_integer_operator_index():
    with pytest.raises(ValueError):
        sobolev_form_for(script_l(1, F(3, 2)))


def test_sobolev_form_is_cached_and_still_validates():
    for build in (lambda: script_l(F(1, 2), 3), lambda: bold_p(1, 2, [2, 3])):
        assert sobolev_form_for(build()) is sobolev_form_for(build())
    # A cache stores no exception, so an invalid order is rejected every time.
    # (An order of 0 is already rejected when the spec is built.)
    for spec in (script_l(1, F(3, 2)), bold_p(1, 2, [2, F(5, 2)])):
        for _ in range(3):
            with pytest.raises(ValueError, match="positive integer"):
                sobolev_form_for(spec)
    assert sobhyp.sobolev_form_for is sobolev_form_for


def test_diagonal_closed_form_script_l():
    assert a_n_normalized(script_l(2, 3), 2) == F(4, 3)
    for q, r in [(F(1, 2), 2), (F(2), 4)]:
        spec = script_l(q, r)
        for n in range(6):
            want = F(math.factorial(r - 1)) ** 2 * math.factorial(n) / pochhammer(q, n)
            assert a_n_normalized(spec, n) == want


def test_diagonal_closed_form_script_p():
    a, b, c = F(1), F(2), F(3)
    spec = script_p(a, b, c)
    assert a_n_normalized(spec, 0) == F(math.factorial(2)) ** 2
    for n in range(1, 6):
        want = (
            F(math.factorial(2)) ** 2
            * math.factorial(n)
            * pochhammer(b, n)
            / (pochhammer(a, n) * (2 * n + a + b - 1) * pochhammer(a + b, n - 1))
        )
        assert a_n_normalized(spec, n) == want


def test_exact_orthogonality_reports():
    for spec in [script_l(F(1, 2), 2), script_p(F(1), F(1), 2), bold_l(F(1), [2, 3])]:
        report = verify_orthogonality(spec, 6)
        assert report.ok, report.failures
        assert report.pairs_checked == 28


def test_orthogonality_report_entries():
    spec = bold_p(1, 2, [2, 3])
    report = verify_orthogonality(spec, 4)
    assert len(report.entries) == report.pairs_checked == 15
    assert [(n, m) for n, m, _, _ in report.entries] == [
        (n, m) for n in range(5) for m in range(n + 1)
    ]
    for n, m, got, want in report.entries:
        assert got == want == (a_n_normalized(spec, n) if n == m else 0)
    assert report.failures == ()


def test_orthogonality_report_failures_follow_entries():
    entries = ((0, 0, F(1), F(1)), (1, 0, F(1, 3), F(0)), (1, 1, F(2), F(2)))
    report = OrthogonalityReport(script_l(1, 2), 1, entries)
    assert report.pairs_checked == 3
    assert report.failures == ((1, 0, F(1, 3), F(0)),)
    assert not report.ok


def test_verify_orthogonality_rejects_negative_nmax():
    with pytest.raises(ValueError, match="nmax must be nonnegative"):
        verify_orthogonality(script_l(1, 2), -1)


def _reference_inner(form, yn, ym):
    """<yn, ym> computed independently of the Gram route: the product of the
    two lowered members, dotted with the Pochhammer closed-form moments."""
    product = form.dop(yn) * form.dop(ym)
    return sum(
        (c * _closed_form_moment(form.weight, k) for k, c in enumerate(product.coeffs)), F(0)
    )


_positive = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)
_orders = st.integers(min_value=1, max_value=3)  # r = 1 lowers by the identity


@st.composite
def _hypergeometric_specs(draw):
    side = draw(st.sampled_from(["L", "P"]))
    if draw(st.booleans()):  # script: one slot
        slot = draw(_orders)
        return script_l(draw(_positive), slot) if side == "L" else script_p(
            draw(_positive), draw(_positive), slot)
    slots = draw(st.lists(_orders, min_size=1, max_size=3))
    return bold_l(draw(_positive), slots) if side == "L" else bold_p(
        draw(_positive), draw(_positive), slots)


@settings(max_examples=40, deadline=None)
@given(_hypergeometric_specs(), st.integers(min_value=0, max_value=6))
def test_gram_entries_match_pairwise_reference(spec, nmax):
    form = sobolev_form_for(spec)
    report = verify_orthogonality(spec, nmax)
    assert [(n, m) for n, m, _, _ in report.entries] == [
        (n, m) for n in range(nmax + 1) for m in range(n + 1)
    ]
    for n, m, got, _ in report.entries:
        want = _reference_inner(form, make_member(spec, n), make_member(spec, m))
        assert got == want, (n, m)


@pytest.mark.parametrize("spec", [script_l(F(2, 3), 3), bold_p(F(1, 2), 2, [2, 3])])
def test_inner_exact_matches_reference_on_any_polynomials(spec):
    form = sobolev_form_for(spec)
    polys = [Poly(), Poly([1]), Poly([F(1, 2), 0, -3]), Poly([0, F(-2, 7), 5, 0, F(1, 9)])]
    for u in polys:
        for v in polys:
            assert sobolev_inner_exact(form, u, v) == _reference_inner(form, u, v)


def test_wrong_member_fails_exactly_its_pairs(monkeypatch):
    original = sobhyp.sobolev.make_member

    def perturbed(spec, n):
        # Set the x^5 coefficient of y_3.  A change below degree 5 would stay
        # orthogonal to y_4 and y_5 and rightly pass those pairs.
        y = original(spec, n)
        return y + Poly.monomial(5) if n == 3 else y

    monkeypatch.setattr(sobhyp.sobolev, "make_member", perturbed)
    report = verify_orthogonality(script_l(F(1, 2), 3), 5)
    assert not report.ok
    assert [(n, m) for n, m, _, _ in report.failures] == [
        (3, 0), (3, 1), (3, 2), (3, 3), (4, 3), (5, 3)
    ]


def _gram_entries(spec, members):
    """(n, m, <y_n, y_m>) for m <= n, straight from ``_gram_rows``."""
    rows = _gram_rows(sobolev_form_for(spec), members)
    return [(n, m, got) for n, row in enumerate(rows) for m, got in enumerate(row)]


@settings(max_examples=40, deadline=None)
@given(_hypergeometric_specs(), st.integers(min_value=0, max_value=6))
def test_proved_entries_equal_the_gram_rows(spec, nmax):
    members = [make_member(spec, n) for n in range(nmax + 1)]
    assert _proved_diagonal(spec, sobolev_form_for(spec), members) is not None
    entries = verify_orthogonality(spec, nmax).entries
    assert [(n, m, got) for n, m, got, _ in entries] == _gram_entries(spec, members)


@pytest.mark.parametrize("weight", [
    laguerre_weight(F(7, 3)),
    laguerre_weight(F(1, 2)),
    jacobi_weight(F(1, 3), F(5, 7)),
    jacobi_weight(F(1, 3), F(2, 3)),  # a + b = 1
])
def test_classical_operator_is_symmetric_under_the_moments(weight):
    """mu(x^j A x^k) = -jk mu_(j+k-1), or -b jk mu_(j+k-1) / (a+b+j+k-1),
    summed over A x^k from the operator that the pencil tables read."""
    K = 60
    mu = [_closed_form_moment(weight, k) for k in range(2 * K + 1)]
    laguerre = weight.kind == "laguerre"
    A = (laguerre_operator if laguerre else jacobi_operator)(*weight.params)[0]
    for k in range(K + 1):
        Ak = A(Poly.monomial(k))
        for j in range(K + 1):
            got = sum((c * mu[j + i] for i, c in enumerate(Ak.coeffs)), F(0))
            want = -j * k * mu[j + k - 1] if j * k else F(0)
            if j * k and not laguerre:
                a, b = weight.params
                want *= b / (a + b + j + k - 1)
            assert got == want, (j, k)


def _add_x5_to_y3(spec, n, y):
    return y + Poly.monomial(5) if n == 3 else y


def _zero_y2(spec, n, y):
    return Poly() if n == 2 else y


def _add_x2_to_y4(spec, n, y):
    return y + Poly.monomial(2, F(1, 7)) if n == 4 else y


def _shifted_moments(original):
    """The moments of the weight with every parameter plus one: mu_0 = 1, wrong ratio."""
    return lambda weight, K: original(WeightSpec(weight.kind, tuple(p + 1 for p in weight.params)), K)


def _doubled_moments(original):
    """The weight's moments times 2: the right ratio, mu_0 = 2."""
    return lambda weight, K: 2 * original(weight, K)


def _scalar_operator_bands(original):
    """Pencil tables of the operator 0: every polynomial is an eigenfunction,
    each at the one eigenvalue 0."""
    return lambda spec, size: (1, (0,) * size, (1,) * size, (0,) * size)


@pytest.mark.parametrize("spec", [script_l(F(1, 2), 3), bold_p(1, 2, [2, 3])], ids=str)
@pytest.mark.parametrize("member, name, patch", [
    (_add_x5_to_y3, None, None),  # degree 5, not 3
    (_zero_y2, None, None),  # degree None, not 2; its pencil residual is 0
    (_add_x2_to_y4, None, None),  # degree 4, pencil residual not 0
    (_add_x2_to_y4, "_pencil_bands", _scalar_operator_bands),  # residual 0, eigenvalues equal
    (None, "_moments", _shifted_moments),
    (None, "_moments", _doubled_moments),
], ids=["degree", "zero-member", "pencil", "repeated-eigenvalue", "moment-ratio", "mu0"])
def test_a_failed_hypothesis_takes_the_gram_route(monkeypatch, spec, member, name, patch):
    original = sobhyp.sobolev.make_member
    if member:
        monkeypatch.setattr(sobhyp.sobolev, "make_member",
                            lambda spec, n: member(spec, n, original(spec, n)))
    if patch:
        monkeypatch.setattr(sobhyp.sobolev, name, patch(getattr(sobhyp.sobolev, name)))
    members = [sobhyp.sobolev.make_member(spec, n) for n in range(7)]
    assert _proved_diagonal(spec, sobolev_form_for(spec), members) is None
    report = verify_orthogonality(spec, 6)
    assert [(n, m, got) for n, m, got, _ in report.entries] == _gram_entries(spec, members)
    assert not report.ok


_polys = st.lists(
    st.fractions(min_value=-8, max_value=8, max_denominator=9), max_size=9
).map(Poly)
_laguerre_weights = st.builds(
    lambda p, q: laguerre_weight(F(p, q)),
    st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12),
)
_jacobi_weights = st.builds(jacobi_weight, _positive, _positive)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(_laguerre_weights, _jacobi_weights),
    st.lists(_orders, max_size=3),
    _polys,
    _polys,
)
def test_inner_exact_matches_reference_on_random_polynomials(weight, orders, u, v):
    # u and v come in either degree order, so a row must reach past its own
    # member whenever the other operand is longer.
    form = SobolevForm(weight, composed_lowering(orders))
    assert sobolev_inner_exact(form, u, v) == _reference_inner(form, u, v)
    assert sobolev_inner_exact(form, v, u) == _reference_inner(form, u, v)


def _closed_form_diagonal(spec, n):
    """A_n from Fraction Pochhammer symbols, independent of ``a_n_normalized``."""
    kind_l = spec.kind in ("scriptL", "boldL")
    head = spec.params[:1] if kind_l else spec.params[:2]
    pref = F(math.prod(math.factorial(int(r) - 1) for r in spec.params[len(head):])) ** 2
    if kind_l:
        return pref * math.factorial(n) / pochhammer(head[0], n)
    a, b = head
    if n == 0:
        return pref
    return (
        pref * math.factorial(n) * pochhammer(b, n)
        / (pochhammer(a, n) * (2 * n + a + b - 1) * pochhammer(a + b, n - 1))
    )


@pytest.mark.parametrize("spec", [
    script_l(F(1, 2), 3),
    script_l(F(7, 12), 1),  # r = 1: no factorial prefactor
    bold_l(F(7, 3)),  # no slot
    bold_l(5, [1, 2, 4]),
    script_p(F(1, 3), F(2, 3), 2),  # a + b = 1
    script_p(F(1, 3), F(5, 7), 1),
    bold_p(F(3, 4), F(1, 4)),  # a + b = 1, no slot
    bold_p(2, F(5, 6), [3, 1]),
])
def test_diagonal_matches_fraction_closed_form(spec):
    for n in range(81):
        got = a_n_normalized(spec, n)
        assert type(got) is F, (n, type(got))
        assert got == _closed_form_diagonal(spec, n), n


# SHA-256 of repr(verify_orthogonality(spec, nmax).entries), recorded before the
# Gram rows were trimmed and the Laguerre rows moved to rising-factorial Horner.
_ENTRY_DIGESTS = [
    (script_l(F(1, 2), 3), 32, "997cfc41f5ff2b634980a0cfcd450201920ab8e7333d971acf22804fea7525b7"),
    (script_l(F(1, 2), 3), 100, "84fc935670175da6b5c0a9ddb624ffb62090886f155d36528aa41263df87ad7a"),
    (bold_l(F(7, 3), [2, 3]), 32, "a73e5c5bbfc2c17ca6ba144fa537fbfdab1559f6b152acaed8e8776dfeec7668"),
    (bold_l(F(7, 3), [2, 3]), 100, "95788be8ca29a254d31481f18b6cd553abe949a916f09a883222c5ed44712640"),
    (bold_p(1, 2, [2, 3]), 32, "06a7e6585e1f322ee4880076c85cb41b3391181e6d7b9d62d23dd60a9cef5b6e"),
    (bold_p(1, 2, [2, 3]), 100, "0f99b621f46800ffe6cd1f74dfbad0a2638b92b3e1c6b77c291721e426e445b2"),
    (script_p(F(1, 3), F(5, 7), 2), 32,
     "1bb466eac444db37f2d9197bb8bf3e830ead82b5e822d2a2b3ba2a5d846f0c7c"),
    (script_p(F(1, 3), F(5, 7), 2), 100,
     "fa51f0bc2f1f57d8edf15fde209bba059e5b6ade2f168e1ee6ba8022db1e3b29"),
]


@pytest.mark.parametrize("spec,nmax,digest", _ENTRY_DIGESTS)
def test_orthogonality_entries_are_pinned(spec, nmax, digest):
    entries = verify_orthogonality(spec, nmax).entries
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == digest
    # The exact zeros share one Fraction; every entry is still a Fraction.
    assert all(type(got) is F and type(want) is F for _, _, got, want in entries)


def _perturb_member_4(monkeypatch):
    """Add 1/7 to the x^2 coefficient of y_4 wherever ``sobolev`` builds it."""
    original = sobhyp.sobolev.make_member

    def perturbed(spec, n):
        y = original(spec, n)
        if n != 4:
            return y
        coeffs = list(y.coeffs)
        coeffs[2] += F(1, 7)
        return Poly(coeffs)

    monkeypatch.setattr(sobhyp.sobolev, "make_member", perturbed)


@pytest.mark.parametrize("spec", [script_l(F(1, 2), 3), bold_p(1, 2, [2, 3])])
def test_perturbed_coefficient_gives_nonzero_off_diagonal_entries(monkeypatch, spec):
    _perturb_member_4(monkeypatch)
    report = verify_orthogonality(spec, 6)
    assert all(type(got) is F and type(want) is F for _, _, got, want in report.entries)
    off = {(n, m): got for n, m, got, want in report.failures if n != m}
    # A degree-2 change is orthogonal to y_3 and above, so only m <= 2 fail.
    assert set(off) == {(4, 0), (4, 1), (4, 2)}
    assert all(got != 0 for got in off.values())
    assert not report.ok
    entries = {(n, m): (got, want) for n, m, got, want in report.entries}
    assert entries[4, 3] == (0, 0)


@pytest.mark.parametrize("spec", [script_l(1, F(3, 2)), bold_p(1, 2, [2, F(5, 2)])])
def test_non_integer_order_rejected_with_one_message(spec):
    messages = []
    for check in (sobolev_form_for, lambda s: a_n_normalized(s, 1), lambda s: pencil_residual(s, 1)):
        with pytest.raises(ValueError) as info:
            check(spec)
        messages.append(str(info.value))
    assert len(set(messages)) == 1, messages
    assert "positive integer" in messages[0]
    # The operator builders share the validator, so a zero order reads the same.
    for check in (lambda: make_D_xi(0), lambda: composed_lowering([2, 0])):
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == messages[0].replace(str(spec.params[-1]), "0")


@pytest.mark.parametrize(
    "spec", [laguerre(F(1, 2)), jacobi(1, F(3, 2)), jacobi_shifted(F(3, 2), 1)]
)
def test_classical_kind_has_no_lowering_operator(spec):
    # A classical kind is a scaled zero-slot member, not a family of its own form.
    checks = (sobolev_form_for, lambda s: a_n_normalized(s, 1), lambda s: pencil_residual(s, 1))
    for check in checks:
        with pytest.raises(ValueError, match="^no lowering operator for family kind "):
            check(spec)


def test_a_n_normalized_rejects_a_negative_index():
    with pytest.raises(ValueError, match="^member index must be nonnegative$"):
        a_n_normalized(script_l(1, 2), -1)


def test_exact_inner_product_values():
    spec = script_l(2, 3)
    form = sobolev_form_for(spec)
    y2 = make_member(spec, 2)
    y3 = make_member(spec, 3)
    assert sobolev_inner_exact(form, y2, y3) == 0
    assert sobolev_inner_exact(form, y2, y2) == F(4, 3)
    assert sobolev_inner_exact(form, y3, y2) == 0  # symmetric


def test_degenerate_r_equal_one_is_classical():
    # r = 1 lowers by the identity, so the form is plainly the weighted L2
    # product and members reduce to normalized classical polynomials.
    report = verify_orthogonality(script_l(F(5, 2), 1), 6)
    assert report.ok


def test_bold_p_orthogonality_composed():
    report = verify_orthogonality(bold_p(F(1), F(2), [2, 2]), 5)
    assert report.ok


def test_gauss_rule_one_point_laguerre():
    rule = gauss_rule(laguerre_weight(1), 1)
    assert rule.nodes == (1.0,)
    assert rule.weights == (1.0,)


def test_gauss_rule_two_point_laguerre():
    rule = gauss_rule(laguerre_weight(1), 2)
    assert rule.nodes[0] == pytest.approx(2 - math.sqrt(2), abs=1e-14)
    assert rule.nodes[1] == pytest.approx(2 + math.sqrt(2), abs=1e-14)
    assert rule.weights[0] == pytest.approx((2 + math.sqrt(2)) / 4, abs=1e-14)
    assert rule.weights[1] == pytest.approx((2 - math.sqrt(2)) / 4, abs=1e-14)


def test_gauss_rule_symmetric_jacobi():
    # a = b: the density is symmetric about 1/2, so nodes pair up.
    rule = gauss_rule(jacobi_weight(2, 2), 5)
    for x, y in zip(rule.nodes, reversed(rule.nodes)):
        assert x == pytest.approx(1 - y, abs=1e-13)
    assert rule.nodes[2] == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize(
    "weight",
    [
        laguerre_weight(F(1, 2)),
        laguerre_weight(1),
        laguerre_weight(F(7, 3)),
        jacobi_weight(F(1, 2), F(1, 2)),  # a+b = 1 exercises the special beta_1
        jacobi_weight(1, F(3, 2)),
        jacobi_weight(3, 1),
        jacobi_weight(F(1), F(1, 2)),
    ],
)
@pytest.mark.parametrize("npoints", [1, 2, 3, 5, 8, 13])
def test_gauss_rule_reproduces_moments(weight, npoints):
    rule = gauss_rule(weight, npoints)
    for k in range(2 * npoints):
        got = sum(w * x**k for x, w in zip(rule.nodes, rule.weights))
        want = float(moment(weight, k))
        assert got == pytest.approx(want, rel=1e-11), (weight, npoints, k)


def test_quad_rule_invariants():
    for weight, inside in [
        (laguerre_weight(F(3, 2)), lambda x: x > 0),
        (jacobi_weight(F(1, 2), 2), lambda x: 0 < x < 1),
    ]:
        rule = gauss_rule(weight, 9)
        assert isinstance(rule, QuadRule)
        assert rule.npoints == 9
        assert all(w > 0 for w in rule.weights)
        assert all(inside(x) for x in rule.nodes)
        assert all(a < b for a, b in zip(rule.nodes, rule.nodes[1:]))
        assert sum(rule.weights) == pytest.approx(1.0, rel=1e-13)


def test_ql_underflow_branch_keeps_both_blocks_spectra():
    # e[0] = 1 deflates against 1e300, and e[2] = 5e-324 does not deflate
    # (its bound eps * 1e-323 underflows to 0).  The sweep over rows 1..4
    # rotates the block [[5e-324, 2], [2, 3]] with shift p = 1, then meets
    # r = hypot(0, 0) == 0.0 at i = 2 and must take p back off d[3].
    nodes, firsts = _ql_implicit([1e300, 0.0, 5e-324, 5e-324, 3.0], [1.0, -1.0, 5e-324, 2.0])
    assert nodes == pytest.approx([-1.0, -1.0, 1.0, 4.0, 1e300], rel=1e-12)
    assert math.fsum(z * z for z in firsts) == pytest.approx(1.0, rel=1e-15)


def test_ql_sweep_limit_names_the_eigenvalue(monkeypatch):
    monkeypatch.setattr(sobhyp.sobolev, "_QL_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="^tridiagonal eigenvalue 0 did not converge in 1 sweeps$"):
        _ql_implicit([2.0, 1.0, 3.0], [1.0, 1.0])


def test_gauss_rule_rejects_empty():
    with pytest.raises(ValueError):
        gauss_rule(laguerre_weight(1), 0)


def test_gauss_rule_names_the_weights_that_underflow():
    # The largest of the 256 Laguerre(1/2) nodes is about 988, and a weight
    # near e^-988 is far below the smallest float64 (about 5e-324).
    with pytest.raises(ConvergenceError, match="17 of 256 weights underflowed to zero in float64"):
        gauss_rule(laguerre_weight(F(1, 2)), 256)


@pytest.mark.parametrize(
    "weight",
    [
        laguerre_weight(F(10**400)),  # q overflows float64
        laguerre_weight(F(1, 10**400)),  # q rounds to 0.0
        jacobi_weight(F(1, 10**400), F(10**300)),  # a rounds to 0.0
        jacobi_weight(F(10**300), F(10**300)),  # (a + b)^2 overflows
        jacobi_weight(F(1, 10**200), F(1, 10**200)),  # (a + b)^2 underflows to 0.0
        jacobi_weight(1, F(10**400)),  # the integral-rep rule of r = 10^400
    ],
)
def test_gauss_rule_rejects_a_weight_beyond_float64(weight):
    with pytest.raises(ValueError, match=f"the {weight.kind} weight's Gauss rule does not fit"):
        gauss_rule(weight, 3)


def test_quadrature_matches_exact_inner_product():
    for spec in [script_l(F(7, 3), 3), script_p(F(1, 2), F(3), 2)]:
        form = sobolev_form_for(spec)
        for n in range(7):
            yn = make_member(spec, n)
            for m in range(n + 1):
                ym = make_member(spec, m)
                exact = float(sobolev_inner_exact(form, yn, ym))
                quad = sobolev_inner_quadrature(form, yn, ym)
                if exact == 0.0:
                    assert abs(quad) <= 1e-8
                else:
                    assert quad == pytest.approx(exact, rel=1e-10)


def test_quadrature_point_override():
    spec = script_l(2, 2)
    form = sobolev_form_for(spec)
    y4 = make_member(spec, 4)
    exact = float(sobolev_inner_exact(form, y4, y4))
    # More points than necessary must not change the answer materially.
    rule = gauss_rule(form.weight, 20)
    assert _exact_rule_sum(rule, form.dop(y4), form.dop(y4)) == pytest.approx(exact, rel=1e-10)


def test_quadrature_zero_operand_shortcut():
    form = sobolev_form_for(script_l(1, 2))
    assert sobolev_inner_quadrature(form, Poly(), Poly([1])) == 0.0


def test_quadrature_lowers_each_member_once(monkeypatch):
    calls = []
    apply = DiffOp.apply

    def counted(self, y):
        calls.append(y)
        return apply(self, y)

    # DiffOp.__call__ is an alias of DiffOp.apply: patch both names.
    monkeypatch.setattr(DiffOp, "apply", counted)
    monkeypatch.setattr(DiffOp, "__call__", counted)
    form = sobolev_form_for(script_l(F(5, 3), 2))
    ys = [Poly([k, F(1, 11 * k), 3, -k, F(k, 13)]) for k in range(1, 4)]
    first = [sobolev_inner_quadrature(form, y, z) for y in ys for z in ys]
    again = [sobolev_inner_quadrature(form, y, z) for y in ys for z in ys]
    assert calls == ys
    assert first == again
