"""Outcome checks for benchmark jobs, computed by the benchmark itself.

Every job is judged on every seed by a semantic check that uses only the
benchmark's own closed forms (hypergeometric coefficients from their
Pochhammer definition, the diagonal A_n, the weight moments), never the
library under test.  On the default seed the exact jobs must also match the
stdout digests in ``golden.json``, since the CLI output is byte-deterministic.

``check`` returns ``None`` for a passing job and a one-line reason otherwise.
A non-zero exit, a ``ConvergenceError``, an uncaught exception or a wrong
output is a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from math import factorial

# Tolerances for float results.  The quadrature ones are the acceptance
# suite's (test_03); the roots ones bound the monic residual relative to the
# size of the terms summed at the root, and the Vieta sum relative to the
# root magnitudes.
QUAD_ZERO_ABS = 1e-8
QUAD_DIAG_REL = 1e-10
ROOT_RESIDUAL_REL = 1e-8
ROOT_VIETA_REL = 1e-8
QUAD_RULE_MOMENT_REL = 1e-9
LIMIT_RATIO_WINDOW = (1.8, 2.2)

# CLI jobs whose stdout does not depend on float library rounding; these
# carry golden digests on the default seed.
EXACT_CHECKS = ("orthogonality", "ode3", "pencil", "recurrence", "psi", "coeffs",
                "eval-grid", "limit")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _poch(c, k: int):
    out = Fraction(1)
    for i in range(k):
        out *= c + i
    return out


def member_coeffs(family: str, params, n: int) -> list[Fraction]:
    """Coefficients of the degree-n member from the pFq definition:
    c_k = prod (u)_k / (prod (l)_k k!)."""
    ps = [Fraction(p) for p in params]
    if family == "scriptL":
        upper, lower = [-n, 1], ps
    elif family == "scriptP":
        a, b, c = ps
        upper, lower = [-n, n - 1 + a + b, 1], [a, c]
    elif family == "boldL":
        upper, lower = [-n] + [1] * (len(ps) - 1), ps
    elif family == "boldP":
        a, b, *cs = ps
        upper, lower = [-n, n - 1 + a + b] + [1] * len(cs), [a, *cs]
    else:
        raise ValueError(f"unknown family {family!r}")
    out = []
    for k in range(n + 1):
        num = Fraction(1)
        for u in upper:
            num *= _poch(Fraction(u), k)
        den = Fraction(factorial(k))
        for v in lower:
            den *= _poch(v, k)
        out.append(num / den)
    return out


def evaluate(coeffs, x: Fraction) -> Fraction:
    return sum((c * x**k for k, c in enumerate(coeffs)), Fraction(0))


def diagonal(family: str, params, n: int) -> Fraction:
    """Closed form of <y_n, y_n> under the family's Sobolev form."""
    ps = [Fraction(p) for p in params]
    if family in ("scriptL", "boldL"):
        q, orders = ps[0], ps[1:]
        value = Fraction(factorial(n)) / _poch(q, n)
    else:
        a, b, orders = ps[0], ps[1], ps[2:]
        value = Fraction(1) if n == 0 else (
            factorial(n) * _poch(b, n) / (_poch(a, n) * (2 * n + a + b - 1) * _poch(a + b, n - 1))
        )
    for r in orders:
        value *= factorial(int(r) - 1) ** 2
    return value


def weight_moment(weight: str, params, k: int) -> Fraction:
    ps = [Fraction(p) for p in params]
    if weight == "laguerre":
        return _poch(ps[0], k)
    return _poch(ps[0], k) / _poch(ps[0] + ps[1], k)


def _grid(spec: str) -> list[Fraction]:
    lo, hi, count = spec.split(":")
    lo, hi, count = Fraction(lo), Fraction(hi), int(count)
    if count == 1:
        return [lo]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


# --- per-kind checks on a parsed CLI document ------------------------------


def _check_orthogonality(job, doc):
    nmax = job["nmax"]
    want_rows = []
    for n in range(nmax + 1):
        a_n = str(diagonal(job["family"], job["params"], n))
        for m in range(n + 1):
            value = a_n if n == m else "0"
            want_rows.append([n, m, value, value, True])
    rows = doc["results"]["rows"]
    for got, want in zip(rows, want_rows):
        if got != want:
            return f"orthogonality row n={want[0]} m={want[1]} is {got[2:]}, want {want[2]}"
    if len(rows) != len(want_rows):
        return f"{len(rows)} rows, want {len(want_rows)}"
    if doc["results"]["pairs_checked"] != len(want_rows) or doc["results"]["failures"] != 0:
        return "pairs_checked or failures disagree with the rows"
    return None


def _check_residual_table(job, doc):
    want = [[n, "0", True] for n in range(job["nmax"] + 1)]
    rows = doc["results"]["rows"]
    if rows != want:
        bad = next((r for r, w in zip(rows, want) if r != w), None)
        return f"{len(rows)} residual rows (want {len(want)}); first bad row {bad}"
    return None


def _check_psi(job, doc):
    want = [[n, "0", "0", "0", "0", True] for n in range(2, job["nmax"] + 1)]
    if doc["results"]["rows"] != want:
        return "psi relations are not all exactly zero over n = 2..nmax"
    return None


def _check_coeffs(job, doc):
    want = [str(c) for c in member_coeffs(job["family"], job["params"], job["n"])]
    if doc["results"]["coefficients"] != want or doc["results"]["degree"] != job["n"]:
        return "coefficients differ from the pFq definition"
    return None


def _check_integral_rep(job, doc):
    zf = Fraction(job["z"])
    tol = doc["params"]["tol"]
    rows = doc["results"]["rows"]
    if [r[0] for r in rows] != list(range(job["nmax"] + 1)):
        return f"{len(rows)} rows, want n = 0..{job['nmax']}"
    for n, direct, integral, _err, ok in rows:
        want = float(evaluate(member_coeffs(job["family"], job["params"], n), zf))
        if direct != want:
            return f"direct value at n={n} is {direct!r}, want {want!r}"
        if not _finite(integral) or abs(direct - integral) > tol * max(1.0, abs(direct)) or not ok:
            return f"integral form at n={n} is off by {abs(direct - integral)!r}"
    return None


def _check_roots(job, doc):
    n = job["n"]
    rows = doc["results"]["rows"]
    zs = [complex(re, im) for _i, re, im in rows]
    if len(zs) != n:
        return f"{len(zs)} roots for degree {n}"
    if not all(_finite(z.real, z.imag) for z in zs):
        return "non-finite roots"
    residual = doc["results"]["residual_bound"]
    cs = member_coeffs(job["family"], job["params"], n)
    monic = [float(c / cs[-1]) for c in cs]
    scale = max(sum(abs(c) * abs(z) ** k for k, c in enumerate(monic)) for z in zs)
    if not _finite(residual) or residual > ROOT_RESIDUAL_REL * scale:
        return f"residual {residual!r} exceeds {ROOT_RESIDUAL_REL} x {scale:.3g}"
    vieta = float(-cs[-2] / cs[-1])
    total = sum(zs)
    if abs(total - vieta) > ROOT_VIETA_REL * max(1.0, sum(abs(z) for z in zs)):
        return f"root sum {total!r} differs from -c[n-1]/c[n] = {vieta!r}"
    return None


def _check_quad_rule(job, doc):
    rows = doc["results"]["rows"]
    if len(rows) != job["points"]:
        return f"{len(rows)} nodes, want {job['points']}"
    nodes = [x for _i, x, _w in rows]
    weights = [w for _i, _x, w in rows]
    upper = math.inf if job["weight"] == "laguerre" else 1.0
    if not all(_finite(x, w) and 0.0 < x < upper and w > 0.0 for x, w in zip(nodes, weights)):
        return "a node lies outside the support or a weight is not positive"
    if any(x1 >= x2 for x1, x2 in zip(nodes, nodes[1:])):
        return "nodes are not strictly increasing"
    for k in range(4):
        want = float(weight_moment(job["weight"], job["params"], k))
        got = math.fsum(w * x**k for x, w in zip(nodes, weights))
        if abs(got - want) > QUAD_RULE_MOMENT_REL * want:
            return f"rule gives moment {k} = {got!r}, want {want!r}"
    return None


def _check_eval_grid(job, doc):
    cs = member_coeffs(job["family"], job["params"], job["n"])
    want = [[float(x), float(evaluate(cs, x))] for x in _grid(job["x_range"])]
    if doc["results"]["rows"] != want:
        return "grid values differ from the pFq definition"
    return None


def _check_limit(job, doc):
    q, r = (Fraction(p) for p in job["params"])
    n, x = job["n"], Fraction(1)
    target = evaluate(member_coeffs("scriptL", [q, r], n), x)
    rows = doc["results"]["rows"]
    if not rows:
        return "no rows"
    for b_text, error in rows:
        b = Fraction(b_text)
        want = float(abs(evaluate(member_coeffs("scriptP", [q, b, r], n), x / b) - target))
        if error != want:
            return f"error at b={b_text} is {error!r}, want {want!r}"
    lo, hi = LIMIT_RATIO_WINDOW
    errors = [e for _b, e in rows]
    if not all(e > 0 and lo <= e0 / e <= hi for e0, e in zip(errors, errors[1:])):
        return "errors do not halve as b doubles"
    return None


_DOC_CHECKS = {
    "orthogonality": _check_orthogonality,
    "ode3": _check_residual_table,
    "pencil": _check_residual_table,
    "recurrence": _check_residual_table,
    "psi": _check_psi,
    "coeffs": _check_coeffs,
    "integral-rep": _check_integral_rep,
    "roots": _check_roots,
    "quad-rule": _check_quad_rule,
    "eval-grid": _check_eval_grid,
    "limit": _check_limit,
}


# --- library-call checks ---------------------------------------------------


def _check_quadrature(job, outcome):
    value = float(outcome["value"])
    n, m = job["n"], job["m"]
    if not math.isfinite(value):
        return f"non-finite inner product {value!r}"
    if n != m:
        if abs(value) > QUAD_ZERO_ABS:
            return f"off-diagonal <y_{n}, y_{m}> = {value!r}, want 0"
        return None
    want = float(diagonal(job["family"], job["params"], n))
    if abs(value - want) > QUAD_DIAG_REL * abs(want):
        return f"<y_{n}, y_{n}> = {value!r}, want {want!r}"
    return None


def _check_generate_p(job, outcome):
    if not outcome["same"]:
        return "generate_P_by_recurrence disagrees with make_member"
    for n, got in enumerate(outcome["members"]):
        if got != [str(c) for c in member_coeffs("scriptP", job["params"], n)]:
            return f"member {n} differs from the pFq definition"
    if len(outcome["members"]) != job["nmax"] + 1:
        return f"{len(outcome['members'])} members, want {job['nmax'] + 1}"
    return None


def check(job: dict, outcome: dict, golden: str | None = None) -> str | None:
    """None when the job's outcome is correct, else the reason it is not."""
    if "exception" in outcome:
        return f"uncaught {outcome['exception']}"
    if job["kind"] == "quadrature":
        return _check_quadrature(job, outcome)
    if job["kind"] == "generate_p":
        return _check_generate_p(job, outcome)
    if outcome["rc"] != 0:
        return f"exit code {outcome['rc']}: {outcome['err'].strip()[-200:]}"
    if golden is not None and digest(outcome["out"]) != golden:
        return "stdout differs from the golden digest"
    try:
        doc = json.loads(outcome["out"])
    except json.JSONDecodeError as exc:
        return f"stdout is not a JSON document ({exc})"
    if doc.get("pass") is not True:
        return "the document reports pass: false"
    try:
        return _DOC_CHECKS[job["check"]](job, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed document ({type(exc).__name__}: {exc})"
