"""Family construction: terminating series, closed-form leads, float twin."""

import copy
import hashlib
import pickle
import sys
import threading
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import example, given, strategies as st

import sobhyp.families as families
from sobhyp.exactnum import Poly, pochhammer
from sobhyp.families import (
    FamilySpec,
    PoleError,
    bold_l,
    bold_p,
    jacobi,
    jacobi_shifted,
    laguerre,
    leading_coefficient,
    make_member,
    member_coeffs_float,
    script_l,
    script_p,
    terminating_series,
)


def test_script_l_frozen_example():
    assert make_member(script_l(3, 3), 2) == Poly([1, F(-2, 9), F(1, 72)])


def test_script_l_general_small_degrees():
    q, r = F(7, 3), F(2)
    assert make_member(script_l(q, r), 0) == Poly([1])
    assert make_member(script_l(q, r), 1) == Poly([1, -1 / (q * r)])


def test_script_p_degree_one_matches_closed_form():
    for a, b, c in [(F(1), F(2), F(3)), (F(1, 2), F(1, 2), F(2))]:
        got = make_member(script_p(a, b, c), 1)
        assert got == Poly([1, -(a + b) / (a * c)])


def test_script_p_quadratic_example():
    # 3F2 with n = 2 at (3, 3, 3): 1 - 14x/9 + 7x^2/9
    assert make_member(script_p(3, 3, 3), 2) == Poly([1, F(-14, 9), F(7, 9)])


def test_laguerre_includes_binomial_prefactor():
    assert make_member(laguerre(0), 2) == Poly([1, -2, F(1, 2)])
    # L_2^(1): binom(3,2) * 1F1(-2; 2; x) = 3 - 3x + x^2/2
    assert make_member(laguerre(1), 2) == Poly([3, -3, F(1, 2)])


def test_jacobi_legendre_case():
    assert make_member(jacobi(0, 0), 2) == Poly([F(-1, 2), 0, F(3, 2)])
    assert make_member(jacobi(0, 0), 3) == Poly([0, F(-3, 2), 0, F(5, 2)])


def test_jacobi_shifted_is_jacobi_at_mapped_argument():
    spec_s = jacobi_shifted(F(1, 2), F(3, 2))
    spec_j = jacobi(F(1, 2), F(3, 2))
    for n in range(6):
        shifted = make_member(spec_s, n)
        plain = make_member(spec_j, n)
        # shifted(x) = plain(1 - 2x) as polynomials
        assert shifted == plain(Poly([1, -2]))


def test_bold_families_with_empty_extra_slots():
    # boldL(q) with no r-slots is the 1F1 normalized form; likewise boldP.
    q = F(2)
    one_f_one = make_member(bold_l(q, []), 3)
    assert one_f_one == terminating_series([-3], [q], 3)
    a, b = F(1), F(2)
    two_f_one = make_member(bold_p(a, b, []), 3)
    assert two_f_one == terminating_series([-3, 3 - 1 + a + b], [a], 3)


def test_bold_reduces_to_script():
    assert make_member(bold_l(2, [3]), 5) == make_member(script_l(2, 3), 5)
    assert make_member(bold_p(1, 2, [3]), 5) == make_member(script_p(1, 2, 3), 5)
    for n in range(6):
        assert leading_coefficient(bold_l(2, [3]), n) == leading_coefficient(script_l(2, 3), n)
        assert leading_coefficient(bold_p(1, 2, [3]), n) == leading_coefficient(
            script_p(1, 2, 3), n
        )


@pytest.mark.parametrize(
    "spec",
    [
        script_l(F(1, 2), 4),
        script_p(F(7, 3), F(1), F(5)),
        bold_l(F(1), [2, 3]),
        bold_p(F(1, 2), F(3), [2, 2]),
        laguerre(F(3, 2)),
        jacobi(F(-1, 2), F(1, 2)),
        jacobi_shifted(F(0), F(5)),
    ],
)
@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 25])
def test_members_have_exact_degree_n(spec, n):
    assert make_member(spec, n).degree == n


@pytest.mark.parametrize(
    "spec",
    [
        script_l(F(1, 2), 4),
        script_p(F(7, 3), F(1), F(5)),
        bold_l(F(1), [2, 3]),
        bold_p(F(1, 2), F(3), [2, 2]),
        laguerre(F(3, 2)),
        jacobi(F(-1, 2), F(1, 2)),
        jacobi_shifted(F(0), F(5)),
    ],
)
@pytest.mark.parametrize("n", [0, 1, 3, 7, 11])
def test_leading_coefficient_matches_expansion(spec, n):
    assert leading_coefficient(spec, n) == make_member(spec, n).lead


def test_terminating_series_requires_minus_n_upper():
    with pytest.raises(ValueError, match="^no upper parameter equals -3; the series would not "
                                         "terminate there$"):
        terminating_series([F(1)], [F(2)], 3)
    with pytest.raises(ValueError, match="^series length must be nonnegative$"):
        terminating_series([1], [F(2)], -1)
    # n = 0 with another upper parameter passing through zero is legal
    assert terminating_series([0, 0, 1], [F(1, 2), 2], 0) == Poly([1])


def test_terminating_series_pole_detection():
    with pytest.raises(PoleError, match="^lower parameter -1 is a pole within 3 terms$"):
        terminating_series([-3, 1], [F(-1), 2], 3)
    with pytest.raises(PoleError, match="^lower parameter 0 is a pole within 2 terms$"):
        terminating_series([-2, 1], [0, 2], 2)
    # a pole sitting beyond the needed terms is harmless
    assert terminating_series([-1, 1], [F(-5), 2], 1).degree == 1


def _fraction_series(upper, lower, n):
    """The series as a loop over Fraction terms: term_{k+1} = term_k prod (u+k) / ((k+1) prod (l+k))."""
    term = F(1)
    coeffs = [term]
    for k in range(n):
        num = 1
        for u in upper:
            num *= u + k
        den = k + 1
        for v in lower:
            den *= v + k
        term = term * num / den
        coeffs.append(term)
    return Poly(coeffs)


_series_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)


@st.composite
def series_cases(draw):
    n = draw(st.integers(0, 10))
    upper = [-n, *draw(st.lists(_series_rationals, max_size=2))]
    if n >= 2 and draw(st.booleans()):
        upper.append(-draw(st.integers(1, n - 1)))  # the terms past it are zero
    lower = draw(st.lists(_series_rationals, max_size=3))
    return draw(st.permutations(upper)), lower, n


@given(series_cases())
@example(([-3, F(-7, 2), F(-1, 3)], [F(-5, 3)], 3))  # negative numerators
@example(([-3, 1], [F(-1, 2)], 3))  # a negative lower parameter: negative denominator
@example(([-4, 1], [F(-5, 2), F(-1, 3)], 4))
@example(([-5, -2, 1], [F(1, 2)], 5))  # trailing zero terms
@example(([0, 0, 1], [F(1, 2), 2], 0))  # another upper parameter at zero, n = 0
@example(([-3, 1], [F(-1), 2], 3))  # a pole in range
def test_terminating_series_matches_the_fraction_loop(case):
    upper, lower, n = case
    try:
        want = _fraction_series(upper, lower, n)
    except ZeroDivisionError:
        with pytest.raises(PoleError):
            terminating_series(upper, lower, n)
        return
    got = terminating_series(upper, lower, n)
    assert (got.nums, got.den) == (want.nums, want.den)


def test_spec_validation():
    with pytest.raises(ValueError):
        script_l(0, 2)
    with pytest.raises(ValueError):
        script_p(1, -1, 2)
    with pytest.raises(ValueError):
        laguerre(-1)
    with pytest.raises(ValueError):
        FamilySpec("scriptL", (F(1),))
    with pytest.raises(ValueError):
        FamilySpec("nonsense", (F(1),))
    with pytest.raises(TypeError):
        script_l(0.5, 2)  # floats must go through the float path


def test_negative_member_index_rejected():
    with pytest.raises(ValueError):
        make_member(script_l(1, 2), -1)
    with pytest.raises(ValueError, match="^member index must be nonnegative$"):
        leading_coefficient(script_l(1, 2), -1)


def test_float_path_agrees_with_exact():
    cases = [
        ("scriptL", [2.0, 3.0], script_l(2, 3)),
        ("scriptP", [0.5, 3.0, 2.0], script_p(F(1, 2), 3, 2)),
        ("boldL", [1.0, 2.0, 3.0], bold_l(1, [2, 3])),
        ("laguerre", [1.5], laguerre(F(3, 2))),
        ("jacobi", [0.5, 0.5], jacobi(F(1, 2), F(1, 2))),
        ("jacobi_shifted", [0.5, 0.5], jacobi_shifted(F(1, 2), F(1, 2))),
    ]
    for kind, params, spec in cases:
        for n in [0, 1, 4, 9]:
            approx = member_coeffs_float(kind, params, n)
            exact = make_member(spec, n)
            assert len(approx) == n + 1
            for k, got in enumerate(approx):
                want = float(exact.coefficient(k))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (kind, n, k)


def test_float_path_validation():
    with pytest.raises(ValueError):
        member_coeffs_float("scriptL", [-1.0, 2.0], 3)
    with pytest.raises(ValueError):
        member_coeffs_float("mystery", [1.0], 3)


@pytest.mark.parametrize(
    "kind,params",
    [("scriptL", [1]), ("scriptP", [1, 2, 3, 4]), ("boldL", []), ("laguerre", [1, 2])],
)
def test_float_path_rejects_wrong_parameter_count_like_exact(kind, params):
    with pytest.raises(ValueError) as exact:
        FamilySpec(kind, tuple(F(p) for p in params))
    with pytest.raises(ValueError) as approx:
        member_coeffs_float(kind, [float(p) for p in params], 3)
    assert "parameters, got" in str(exact.value)
    assert str(approx.value) == str(exact.value)


def _rounded_exact(kind, params, n):
    """The exact member at the floats' binary values, each coefficient rounded once."""
    return [float(c) for c in make_member(FamilySpec(kind, tuple(map(F, params))), n).coeffs]


@pytest.mark.parametrize(
    "kind,params",
    [
        ("scriptL", [0.1, 2.3]),
        ("scriptP", [0.7, 0.1, 2.3]),
        ("boldL", [2.3, 0.7, 0.1]),
        ("boldP", [0.1, 2.3, 0.7, 0.7]),
        ("laguerre", [-0.7]),
        ("jacobi", [0.1, -0.7]),
        ("jacobi_shifted", [2.3, 0.7]),
    ],
)
def test_float_path_is_the_rounded_exact_member(kind, params):
    # Non-dyadic floats: the float path is exact at their binary values,
    # so it must agree bit for bit, not just to a relative tolerance.
    for n in range(12):
        assert member_coeffs_float(kind, params, n) == _rounded_exact(kind, params, n), n


@pytest.mark.parametrize(
    "kind,params",
    [
        ("scriptL", [float("nan"), 2.0]),
        ("scriptP", [1.0, float("inf"), 2.0]),
        ("jacobi", [float("inf"), 0.5]),
        ("laguerre", [float("-inf")]),
    ],
)
def test_float_path_rejects_non_finite_parameters(kind, params):
    with pytest.raises(ValueError, match=f"{kind} parameters must be finite"):
        member_coeffs_float(kind, params, 3)


def test_float_path_overflow_is_a_value_error():
    # x^3 has coefficient -1/((q)_3 (r)_3), about -1e600 at q = r = 1e-300.
    with pytest.raises(ValueError, match="scriptL coefficient exceeds the float range"):
        member_coeffs_float("scriptL", [1e-300, 1e-300], 3)


def test_member_cache_keeps_only_the_members_asked_for():
    before = make_member.cache_info().currsize
    member_coeffs_float("jacobi", [0.1, 0.7], 5)
    assert make_member.cache_info().currsize == before
    # An exact classical member is cached, its shifted and bold members are not.
    make_member(jacobi(F(1, 7), F(9, 7)), 5)
    assert make_member.cache_info().currsize == before + 1


# Kind -> (fewest, most) parameters drawn, and the bound each must exceed.
FLOAT_KINDS = {
    "scriptL": (2, 2, 0.0), "scriptP": (3, 3, 0.0), "boldL": (1, 3, 0.0), "boldP": (2, 4, 0.0),
    "laguerre": (1, 1, -1.0), "jacobi": (2, 2, -1.0), "jacobi_shifted": (2, 2, -1.0),
}


@st.composite
def float_members(draw):
    kind = draw(st.sampled_from(sorted(FLOAT_KINDS)))
    low, high, floor = FLOAT_KINDS[kind]
    ps = st.floats(min_value=floor, max_value=1e6, exclude_min=True)
    return kind, draw(st.lists(ps, min_size=low, max_size=high)), draw(st.integers(0, 8))


@given(float_members())
def test_float_path_property_rounds_the_exact_member(case):
    kind, params, n = case
    try:
        want = _rounded_exact(kind, params, n)
    except OverflowError:
        with pytest.raises(ValueError, match="exceeds the float range"):
            member_coeffs_float(kind, params, n)
    else:
        assert member_coeffs_float(kind, params, n) == want


def _gbinom(z, m):
    """Generalized binomial coefficient C(z, m) for an integer m >= 0."""
    out = F(1)
    for i in range(m):
        out *= z - i
    return out / factorial(m)


def _textbook_jacobi(alpha, beta, n, z):
    """sum_s C(n+alpha, n-s) C(n+beta, s) ((z-1)/2)^s ((z+1)/2)^(n-s) (Szego 4.3.2)."""
    down, up = (z - 1) * F(1, 2), (z + 1) * F(1, 2)
    return sum(
        (_gbinom(n + alpha, n - s) * _gbinom(n + beta, s) * down**s * up ** (n - s)
         for s in range(n + 1)),
        Poly(),
    )


GRID = [F(-1, 2), F(0), F(1, 3), F(2), F(7, 2)]


@pytest.mark.parametrize("alpha", GRID)
def test_laguerre_matches_textbook_sum(alpha):
    for n in range(13):
        textbook = Poly(
            (-1) ** k * _gbinom(n + alpha, n - k) / factorial(k) for k in range(n + 1)
        )
        assert make_member(laguerre(alpha), n) == textbook, n


@pytest.mark.parametrize("alpha", GRID)
@pytest.mark.parametrize("beta", GRID)
def test_jacobi_kinds_match_textbook_sum(alpha, beta):
    for n in range(13):
        assert make_member(jacobi(alpha, beta), n) == _textbook_jacobi(
            alpha, beta, n, Poly([0, 1])
        ), n
        assert make_member(jacobi_shifted(alpha, beta), n) == _textbook_jacobi(
            alpha, beta, n, Poly([1, -2])
        ), n


def test_specs_are_hashable_and_comparable():
    assert script_l(2, 3) == script_l(F(2), F(6, 2))
    assert len({script_l(2, 3), script_l(2, 3), script_l(2, 4)}) == 2


def test_leading_coefficient_closed_forms_spotcheck():
    # scriptL: (-n)_n / ((q)_n (r)_n)
    q, r, n = F(3), F(3), 2
    assert leading_coefficient(script_l(q, r), n) == pochhammer(F(-n), n) / (
        pochhammer(q, n) * pochhammer(r, n)
    )
    assert leading_coefficient(script_l(3, 3), 2) == F(1, 72)


_rational_param = st.fractions(min_value=F(1, 9), max_value=12, max_denominator=9)
_param = st.one_of(st.integers(1, 12).map(F), _rational_param)


@st.composite
def hypergeometric_specs(draw):
    """A spec of one of the four hypergeometric kinds: 0-3 integral or rational
    slots on the bold side, and a + b in {1, 2} on some Jacobi-side draws."""
    kind = draw(st.sampled_from(["scriptL", "scriptP", "boldL", "boldP"]))
    slots = 1 if kind.startswith("script") else draw(st.integers(0, 3))
    rest = draw(st.lists(_param, min_size=slots, max_size=slots))
    if kind.endswith("L"):
        return FamilySpec(kind, (draw(_param), *rest))
    s = draw(st.sampled_from([None, 1, 2]))
    if s is None:
        a, b = draw(_param), draw(_param)
    else:
        a = draw(st.fractions(min_value=F(1, 9), max_value=s - F(1, 9), max_denominator=9))
        b = s - a
    return FamilySpec(kind, (a, b, *rest))


def _reference_member(spec, n):
    """The member as ``_fraction_series`` builds it from the kind's parameters."""
    weights = 1 if spec.kind.endswith("L") else 2
    slots = spec.params[weights:]
    upper = [-n, *[n - 1 + sum(spec.params[:2])] * (weights - 1), *[1] * len(slots)]
    return _fraction_series(upper, [spec.params[0], *slots], n)


@given(hypergeometric_specs(), st.integers(0, 40))
@example(script_p(F(1, 2), F(1, 2), 3), 0)  # n-1+a+b = 0 at n = 0
@example(bold_p(F(2, 3), F(4, 3), []), 40)
@example(bold_l(F(1, 9), [F(8, 9), 12, F(5, 7)]), 40)
def test_member_matches_the_fraction_series(spec, n):
    got, want = make_member(spec, n), _reference_member(spec, n)
    assert (got.nums, got.den) == (want.nums, want.den)


# Classical specs at and near the lower end of their domain, (-1, 0] among them.
CLASSICAL = [laguerre(F(-1, 2)), laguerre(0), laguerre(F(-5, 7)), jacobi(F(-1, 2), 0),
             jacobi(0, F(-2, 3)), jacobi_shifted(F(-1, 3), F(-1, 2)), jacobi_shifted(0, 0)]


def test_classical_members_keep_their_digest():
    # sha256 over repr((nums, den)) of n = 0..40 of each spec in CLASSICAL, in order,
    # recorded before the series core carried the binomial in place of k!.
    h = hashlib.sha256()
    for spec in CLASSICAL:
        for n in range(41):
            member = make_member(spec, n)
            h.update(repr((member.nums, member.den)).encode())
    assert h.hexdigest() == "f07e3aafaa2f54d41d414571ba5aef9932000d0ce97b756bc5b169fb0b1d374b"


@pytest.mark.parametrize("spec", CLASSICAL)
def test_classical_members_match_the_fraction_series(spec):
    alpha = spec.params[0]
    for n in range(21):
        upper = [-n] if spec.kind == "laguerre" else [-n, n + 1 + sum(spec.params)]
        want = _fraction_series(upper, [alpha + 1], n) * (F(pochhammer(alpha + 1, n)) / factorial(n))
        if spec.kind == "jacobi":
            want = want(Poly([F(1, 2), F(-1, 2)]))
        got = make_member(spec, n)
        assert (got.nums, got.den) == (want.nums, want.den), (spec, n)


@st.composite
def classical_specs(draw):
    kind = draw(st.sampled_from(["laguerre", "jacobi", "jacobi_shifted"]))
    value = st.fractions(min_value=F(-8, 9), max_value=12, max_denominator=9)
    return FamilySpec(kind, tuple(draw(value) for _ in range(1 if kind == "laguerre" else 2)))


@given(st.one_of(hypergeometric_specs(), classical_specs()), st.integers(0, 12))
def test_member_series_never_meets_a_pole(spec, n):
    # Every lower parameter reaching the series core is positive, so _member
    # needs no pole test: FamilySpec keeps a hypergeometric kind's parameters
    # positive, and a classical kind's (> -1) arrive plus one.
    lowers = []
    core = families._series_terms
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "_series_terms",
                      lambda first, up, low, m: (lowers.append(low), core(first, up, low, m))[1])
        families._member(spec, n)
    assert lowers and all(p > 0 and d > 0 for low in lowers for p, d in low)


def test_spec_equality_and_hash_read_the_values():
    specs = [bold_p(2, "3/4", [F(5), "6/2"]), bold_p(F(2), F(3, 4), ["5", 3]),
             FamilySpec("boldP", ("4/2", F(6, 8), 5, F(3)))]
    assert all(spec == specs[0] and hash(spec) == hash(specs[0]) for spec in specs)
    assert specs[0] != bold_p(2, "3/4", [5, 3, 1])  # another parameter count
    assert bold_l(2, [3]) != script_l(2, 3)  # another kind, the same parameters
    assert laguerre(2) != bold_l(2)
    assert script_l(2, 3) != script_l(3, 2)
    assert script_l(F(1, 2), 3) != script_l(1, 3)  # the same numerators
    assert script_l(F(1, 2), 3) != script_l(F(1, 3), 3)  # the same denominators
    assert (script_l(2, 3) == object()) is False
    assert script_l(2, 3) != object()


@pytest.mark.parametrize("spec", [script_l(F(1, 2), 3), bold_p(F(2, 3), 2, [F(7, 5), 3]),
                                  jacobi(F(-1, 2), 0)])
def test_spec_round_trips_stay_equal(spec):
    hash(spec)  # the twins rebuild their key and hash from the fields, not from this one
    for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert twin == spec and hash(twin) == hash(spec)


def test_cached_member_through_an_equal_spec_compares_no_fraction(monkeypatch):
    spec = bold_p(F(2, 3), F(7, 5), [F(5, 2), 3])
    first = make_member(spec, 9)
    twin = bold_p("2/3", "7/5", ["5/2", "3"])  # equal parameters, distinct objects
    calls = []
    eq = F.__eq__
    monkeypatch.setattr(F, "__eq__", lambda self, other: (calls.append(other), eq(self, other))[1])
    hits = make_member.cache_info().hits
    assert make_member(twin, 9) is first
    assert make_member.cache_info().hits == hits + 1
    assert calls == []


def test_threads_sharing_one_fresh_spec_build_the_same_members():
    """Four threads start at once on one fresh bold spec per trial and each build
    members 0..30 uncached, so that each call reads the spec's cached series
    parameters and its key while the interpreter switches threads as often as it can."""
    ns, got = range(31), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            spec = bold_p(F(1, 2), F(2 * trial + 5, 3), [F(7, 3), 3])
            barrier = threading.Barrier(4, timeout=10)
            built = [[] for _ in range(4)]

            def run(out):
                barrier.wait()
                out.extend(families._member(spec, n) for n in ns)

            threads = [threading.Thread(target=run, args=(out,)) for out in built]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            got.append((trial, built))
    finally:
        sys.setswitchinterval(interval)
    for trial, built in got:
        alone = [families._member(bold_p(F(1, 2), F(2 * trial + 5, 3), [F(7, 3), 3]), n) for n in ns]
        for out in built:
            assert [(m.nums, m.den) for m in out] == [(m.nums, m.den) for m in alone], trial
