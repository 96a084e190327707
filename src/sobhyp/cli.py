"""Command-line interface: exact coefficients, verification runs, data tables.

Three top-level commands:

* ``coeffs``  -- exact member coefficients for one family member
* ``verify``  -- re-derive an identity over a range of indices and report
  one line per check (orthogonality, ode3, pencil, recurrence,
  integral-rep, limit, psi)
* ``table``   -- numeric data emissions (roots, eval-grid, quad-rule,
  discriminant-grid)

Output formats: ``text`` (default), ``csv``, and ``json``.  The JSON
document is always the record {command, params, results, pass}; rational
numbers cross the boundary as "p/q" strings, floats are printed with 17
significant digits in the delimited formats.  Output is deterministic:
identical invocations produce identical bytes.

Exit codes: 0 success, 1 a verification failed (or an iteration did not
converge), 2 usage or parameter errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import discriminant_L, discriminant_P, integral_rep_check, limit_check, roots
from .diffop import ode3_residual, pencil_residual
from .families import _LAYOUTS, SCRIPT_L, SCRIPT_P, FamilySpec, PoleError, make_member
from .recurrence import (
    DomainError,
    psi_consistency,
    recurrence_residual_L,
    recurrence_residual_P,
)
from .sobolev import (
    ConvergenceError,
    WeightSpec,
    gauss_rule,
    verify_orthogonality,
)

__all__ = ["main"]

RATIO_WINDOW = (1.8, 2.2)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _rational_list(text: str) -> list[Fraction]:
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of rationals")
    return [_rational(part.strip()) for part in items]


def _rational_range(text: str) -> list[Fraction]:
    """Parse ``lo:hi:count`` into an inclusive, exactly spaced rational grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {text!r}")
    lo, hi = _rational(parts[0]), _rational(parts[1])
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid count must be an integer in {text!r}") from exc
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be at least 1")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


# Family kind -> (required head flags, optional slot-list flag).  A one-slot
# family takes its slot as one more head flag (--r, --c); the others take
# their slots as a list (--rs, --cs).
_FAMILY_FLAGS = {
    kind: (weights + (slot,), None) if slots == 1 else (weights, slot)
    for kind, (weights, slot, slots) in _LAYOUTS.items()
}
_ALL_FAMILIES = tuple(_FAMILY_FLAGS)
_SCRIPT_FAMILIES = (SCRIPT_L, SCRIPT_P)
_HEAD_FLAGS = tuple(dict.fromkeys(name for heads, _ in _FAMILY_FLAGS.values() for name in heads))


def _flags(names) -> str:
    """``--a, --b and --c`` for the names a, b, c."""
    flags = [f"--{name}" for name in names]
    return flags[0] if len(flags) == 1 else ", ".join(flags[:-1]) + " and " + flags[-1]


def _family_from_args(args, allowed) -> FamilySpec:
    kind = args.family
    if kind not in allowed:
        raise ValueError(f"family must be one of {', '.join(allowed)} here, got {kind}")
    heads, slot = _FAMILY_FLAGS[kind]
    values = [getattr(args, name) for name in heads]
    if any(v is None for v in values):
        optional = f" (and optionally --{slot})" if slot else ""
        raise ValueError(f"{kind} needs {_flags(heads)}{optional}")
    slots = (getattr(args, slot) or []) if slot else []
    return FamilySpec(kind, (*values, *slots))


def _spec_params(spec: FamilySpec) -> dict:
    """The family and its parameters as the JSON ``params`` record shows them."""
    heads, slot = _FAMILY_FLAGS[spec.kind]
    params = {"family": spec.kind, **{name: str(v) for name, v in zip(heads, spec.params)}}
    if slot:
        params[slot] = [str(p) for p in spec.params[len(heads):]]
    return params


def _document(command: str, params: dict, results: dict, passed: bool) -> dict:
    return {"command": command, "params": params, "results": results, "pass": passed}


# --- handlers --------------------------------------------------------------


def _member_from_args(args, command: str):
    """The family spec and its member of degree ``--n``, for single-member commands."""
    spec = _family_from_args(args, _ALL_FAMILIES)
    if args.n is None:
        raise ValueError(f"{command} needs --n")
    return spec, make_member(spec, args.n)


def _cmd_coeffs(args):
    spec, member = _member_from_args(args, "coeffs")
    coefficients = [str(member.coefficient(k)) for k in range(args.n + 1)]
    params = {**_spec_params(spec), "n": args.n}
    results = {
        "columns": ["k", "coefficient"],
        "rows": [[k, coefficients[k]] for k in range(args.n + 1)],
        "degree": member.degree,
        "coefficients": coefficients,
    }
    return _document("coeffs", params, results, True)


def _cmd_verify_orthogonality(args):
    spec = _family_from_args(args, _ALL_FAMILIES)
    report = verify_orthogonality(spec, args.nmax)
    if report.failures:
        n, m, got, want = report.failures[0]
        print(f"first failure: <y_{n}, y_{m}> = {got}, want {want}", file=sys.stderr)
    rows = [[n, m, str(got), str(want), got == want] for n, m, got, want in report.entries]
    params = {**_spec_params(spec), "nmax": args.nmax}
    results = {
        "columns": ["n", "m", "inner_product", "expected", "ok"],
        "rows": rows,
        "pairs_checked": report.pairs_checked,
        "failures": len(report.failures),
    }
    return _document("verify orthogonality", params, results, report.ok)


def _recurrence_residual(spec: FamilySpec, n: int):
    if spec.kind == SCRIPT_L:
        return recurrence_residual_L(*spec.params, n)
    return recurrence_residual_P(*spec.params, n)


# Subject -> (help, allowed families, residual(spec, n)) for the verify
# subjects whose rows are the largest residual coefficient per index.  The
# lambdas look their function up at call time, so a wrapper installed on the
# module-level name is honoured.
_RESIDUAL_SUBJECTS = {
    "ode3": ("third-order differential equation residuals", _SCRIPT_FAMILIES,
             lambda spec, n: ode3_residual(spec, n)),
    "pencil": ("operator-pencil eigenfunction residuals", _ALL_FAMILIES,
               lambda spec, n: pencil_residual(spec, n)),
    "recurrence": ("five-polynomial recurrence residuals", _SCRIPT_FAMILIES,
                   _recurrence_residual),
}


def _cmd_verify_residuals(args):
    _, allowed, residual = _RESIDUAL_SUBJECTS[args.subject]
    spec = _family_from_args(args, allowed)
    rows = []
    for n in range(args.nmax + 1):
        res = residual(spec, n)
        peak = max((abs(cc) for cc in res.coeffs), default=Fraction(0))
        rows.append([n, str(peak), res.is_zero])
    params = {**_spec_params(spec), "nmax": args.nmax}
    results = {"columns": ["n", "residual_max_coeff", "ok"], "rows": rows}
    return _document(f"verify {args.subject}", params, results, all(row[-1] for row in rows))


def _cmd_verify_integral_rep(args):
    spec = _family_from_args(args, _SCRIPT_FAMILIES)
    z = args.z
    if z is None:
        raise ValueError("integral-rep needs --z (the evaluation point)")
    rows = []
    for n in range(args.nmax + 1):
        lhs, rhs = integral_rep_check(spec, n, z, args.points)
        err = abs(lhs - rhs)
        ok = err <= args.tol * max(1.0, abs(lhs))
        rows.append([n, lhs, rhs, err, ok])
    params = {
        **_spec_params(spec),
        "nmax": args.nmax,
        "z": z,
        "tol": args.tol,
    }
    results = {"columns": ["n", "direct", "integral", "abs_err", "ok"], "rows": rows}
    return _document("verify integral-rep", params, results, all(row[-1] for row in rows))


def _cmd_verify_limit(args):
    x = args.z if args.z is not None else Fraction(1)
    bs = args.b_values or [Fraction(2) ** k for k in range(8, 13)]
    errors = limit_check(args.q, args.r, args.n, x, bs)
    rows = [[str(b), e] for b, e in zip(bs, errors)]
    ratios = [
        errors[i] / errors[i + 1] if errors[i + 1] else None
        for i in range(len(errors) - 1)
    ]
    if all(e == 0.0 for e in errors):
        passed = True  # already exact at every tested b
        ratios = []
    else:
        lo, hi = RATIO_WINDOW
        passed = bool(ratios) and all(rr is not None and lo <= rr <= hi for rr in ratios)
    params = {
        "q": str(args.q),
        "r": str(args.r),
        "n": args.n,
        "x": str(x),
        "b_values": [str(b) for b in bs],
    }
    results = {
        "columns": ["b", "error"],
        "rows": rows,
        "ratios": ratios,
        "ratio_window": list(RATIO_WINDOW),
    }
    return _document("verify limit", params, results, passed)


def _cmd_verify_psi(args):
    if args.nmax < 2:
        # The relations start at n = 2; a shorter range would pass with no rows.
        raise ValueError(f"psi needs --nmax of at least 2, got {args.nmax}")
    rows = []
    for n in range(2, args.nmax + 1):
        res = psi_consistency(args.a, args.b, args.c, n)
        ok = all(v == 0 for v in res)
        rows.append([n, *[str(v) for v in res], ok])
    params = {"a": str(args.a), "b": str(args.b), "c": str(args.c), "nmax": args.nmax}
    results = {
        "columns": ["n", "relation1", "relation2", "relation3", "relation4", "ok"],
        "rows": rows,
    }
    return _document("verify psi", params, results, all(row[-1] for row in rows))


def _cmd_table_roots(args):
    spec, member = _member_from_args(args, "roots")
    if member.degree is None or member.degree < 1:
        raise ValueError("roots needs a member of degree at least 1 (n >= 1)")
    found = roots(member)
    rows = [[i, z.real, z.imag] for i, z in enumerate(found.roots)]
    params = {**_spec_params(spec), "n": args.n}
    results = {
        "columns": ["index", "real", "imag"],
        "rows": rows,
        "residual_bound": found.residual_bound,
        "iterations": found.iterations,
    }
    return _document("table roots", params, results, True)


def _cmd_table_eval_grid(args):
    spec, member = _member_from_args(args, "eval-grid")
    if args.x_range is None:
        raise ValueError("eval-grid needs --x-range lo:hi:count")
    rows = []
    for x in args.x_range:
        try:
            rows.append([float(x), float(member(x))])
        except OverflowError:
            raise ValueError(f"the member's value at x = {x} exceeds the float range") from None
    params = {
        **_spec_params(spec),
        "n": args.n,
        "x_range": [str(x) for x in args.x_range],
    }
    results = {"columns": ["x", "value"], "rows": rows}
    return _document("table eval-grid", params, results, True)


def _cmd_table_quad_rule(args):
    names = ("q",) if args.weight == "laguerre" else ("a", "b")
    values = [getattr(args, name) for name in names]
    if any(v is None for v in values):
        raise ValueError(f"{args.weight} weight needs {_flags(names)}")
    if args.points is None:
        raise ValueError("quad-rule needs --points")
    rule = gauss_rule(WeightSpec(args.weight, tuple(values)), args.points)
    rows = [[i, x, w] for i, (x, w) in enumerate(zip(rule.nodes, rule.weights))]
    wparams = {name: str(v) for name, v in zip(names, values)}
    params = {"weight": args.weight, **wparams, "points": args.points}
    results = {"columns": ["index", "node", "weight"], "rows": rows}
    return _document("table quad-rule", params, results, True)


def _cmd_table_discriminant_grid(args):
    names = _FAMILY_FLAGS[args.family][0]
    ranges = [getattr(args, f"{name}_range") for name in names]
    if any(grid is None for grid in ranges):
        needs = _flags(f"{name}-range" for name in names)
        raise ValueError(f"{args.family} discriminant grid needs {needs}")
    discriminant = discriminant_L if args.family == SCRIPT_L else discriminant_P
    rows = []
    for point in itertools.product(*ranges):
        d = discriminant(*point)
        rows.append([*(str(v) for v in point), str(d), (d > 0) - (d < 0)])
    params = {"family": args.family}
    params.update({f"{name}_range": [str(v) for v in grid] for name, grid in zip(names, ranges)})
    results = {"columns": [*names, "discriminant", "sign"], "rows": rows}
    return _document("table discriminant-grid", params, results, True)


# --- rendering -------------------------------------------------------------


def _cell_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if value is None:
        return "-"
    if isinstance(value, list):
        return "[" + ", ".join(_cell_text(v) for v in value) + "]"
    return str(value)


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    columns = doc["results"].get("columns", [])
    rows = doc["results"].get("rows", [])
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell_text(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    # text
    lines = [f"command: {doc['command']}"]
    for key, value in doc["params"].items():
        lines.append(f"  {key} = {_cell_text(value)}")
    lines.append("  ".join(columns))
    for row in rows:
        lines.append("  ".join(_cell_text(v) for v in row))
    for key, value in doc["results"].items():
        if key in ("columns", "rows"):
            continue
        lines.append(f"{key}: {_cell_text(value)}")
    lines.append(f"pass: {_cell_text(doc['pass'])}")
    return "\n".join(lines) + "\n"


# --- parser ----------------------------------------------------------------


def _add_family_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", required=True, choices=_ALL_FAMILIES)
    for name in _HEAD_FLAGS:
        p.add_argument(f"--{name}", type=_rational)
    p.add_argument("--rs", type=_rational_list, metavar="R1,R2,...")
    p.add_argument("--cs", type=_rational_list, metavar="C1,C2,...")


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", metavar="PATH", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobhyp",
        description="Hypergeometric Sobolev orthogonal polynomial families: "
                    "exact coefficients, identity verification, numeric tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="exact coefficients of one family member")
    _add_family_flags(p)
    p.add_argument("--n", type=int)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_coeffs)

    verify = sub.add_parser("verify", help="re-derive identities over an index range")
    vsub = verify.add_subparsers(dest="subject", required=True)

    family_subjects = {
        "orthogonality": ("exact Sobolev orthogonality with diagonal values",
                          _cmd_verify_orthogonality),
        **{subject: (entry[0], _cmd_verify_residuals)
           for subject, entry in _RESIDUAL_SUBJECTS.items()},
    }
    for subject, (help_text, handler) in family_subjects.items():
        p = vsub.add_parser(subject, help=help_text)
        _add_family_flags(p)
        p.add_argument("--nmax", type=_nonnegative_int, required=True)
        _add_output_flags(p)
        p.set_defaults(handler=handler)

    p = vsub.add_parser("integral-rep", help="integral representation vs direct evaluation")
    _add_family_flags(p)
    p.add_argument("--nmax", type=_nonnegative_int, required=True)
    p.add_argument("--z", type=float, help="evaluation point")
    p.add_argument("--points", type=int, default=None, help="quadrature points override")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify_integral_rep)

    p = vsub.add_parser("limit", help="large-b limit of the Jacobi-side family")
    p.add_argument("--q", type=_rational, required=True)
    p.add_argument("--r", type=_rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_rational, help="evaluation point (default 1)")
    p.add_argument("--b-values", type=_rational_list, metavar="B1,B2,...")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify_limit)

    p = vsub.add_parser("psi", help="scaled-coefficient linear identities")
    p.add_argument("--a", type=_rational, required=True)
    p.add_argument("--b", type=_rational, required=True)
    p.add_argument("--c", type=_rational, required=True)
    p.add_argument("--nmax", type=_nonnegative_int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify_psi)

    table = sub.add_parser("table", help="numeric data tables")
    tsub = table.add_subparsers(dest="what", required=True)

    p = tsub.add_parser("roots", help="all roots of one member")
    _add_family_flags(p)
    p.add_argument("--n", type=int)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_table_roots)

    p = tsub.add_parser("eval-grid", help="member values on an x grid")
    _add_family_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--x-range", type=_rational_range, metavar="LO:HI:COUNT")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_table_eval_grid)

    p = tsub.add_parser("quad-rule", help="Gauss rule nodes and weights")
    p.add_argument("--weight", choices=["laguerre", "jacobi"], required=True)
    p.add_argument("--q", type=_rational)
    p.add_argument("--a", type=_rational)
    p.add_argument("--b", type=_rational)
    p.add_argument("--points", type=int)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_table_quad_rule)

    p = tsub.add_parser("discriminant-grid", help="degree-2 discriminants over parameter grids")
    p.add_argument("--family", required=True, choices=_SCRIPT_FAMILIES)
    for name in _HEAD_FLAGS:
        p.add_argument(f"--{name}-range", type=_rational_range, metavar="LO:HI:COUNT")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_table_discriminant_grid)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.handler(args)
    except (PoleError, DomainError, ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConvergenceError) else 2
    rendered = _render(doc, args.format)
    if args.out:
        Path(args.out).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if doc["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
