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
import math
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


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


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
    step = (hi - lo) / max(count - 1, 1)
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


def _family_from_args(args, allowed) -> tuple[FamilySpec, dict]:
    """The family spec the flags name, and its params record for the document."""
    kind = args.family
    if kind not in allowed:
        raise ValueError(f"family must be one of {', '.join(allowed)} here, got {kind}")
    heads, slot = _FAMILY_FLAGS[kind]
    values = [getattr(args, name) for name in heads]
    if any(v is None for v in values):
        optional = f" (and optionally --{slot})" if slot else ""
        raise ValueError(f"{kind} needs {_flags(heads)}{optional}")
    params = {"family": kind, **{name: str(v) for name, v in zip(heads, values)}}
    slots = (getattr(args, slot) or []) if slot else []
    if slot:
        params[slot] = [str(v) for v in slots]
    return FamilySpec(kind, (*values, *slots)), params


# --- handlers --------------------------------------------------------------
#
# Each handler returns (params, results, passed); ``main`` adds the command
# name, which it reads from the parse path.


def _path(args) -> list[str]:
    """The subcommand names the parser took, e.g. ``["verify", "ode3"]``."""
    return [getattr(args, dest) for dest in ("command", "subject", "what") if hasattr(args, dest)]


def _member_from_args(args):
    """The member of degree ``--n`` and its params record, for single-member commands."""
    spec, params = _family_from_args(args, _ALL_FAMILIES)
    if args.n is None:
        raise ValueError(f"{_path(args)[-1]} needs --n")
    return make_member(spec, args.n), {**params, "n": args.n}


def _cmd_coeffs(args):
    member, params = _member_from_args(args)
    coefficients = [str(member.coefficient(k)) for k in range(args.n + 1)]
    results = {
        "columns": ["k", "coefficient"],
        "rows": [[k, coefficients[k]] for k in range(args.n + 1)],
        "degree": member.degree,
        "coefficients": coefficients,
    }
    return params, results, True


def _cmd_verify_orthogonality(args):
    spec, params = _family_from_args(args, _ALL_FAMILIES)
    report = verify_orthogonality(spec, args.nmax)
    if report.failures:
        n, m, got, want = report.failures[0]
        print(f"first failure: <y_{n}, y_{m}> = {got}, want {want}", file=sys.stderr)
    rows = [[n, m, str(got), str(want), got == want] for n, m, got, want in report.entries]
    params["nmax"] = args.nmax
    results = {
        "columns": ["n", "m", "inner_product", "expected", "ok"],
        "rows": rows,
        "pairs_checked": report.pairs_checked,
        "failures": len(report.failures),
    }
    return params, results, report.ok


def _recurrence_residual(spec: FamilySpec, n: int):
    if spec.kind == SCRIPT_L:
        return recurrence_residual_L(*spec.params, n)
    return recurrence_residual_P(*spec.params, n)


def _residual_cells(res) -> list:
    """The largest coefficient of an exact residual, and whether it vanishes."""
    return [str(Fraction(max(map(abs, res.nums), default=0), res.den)), res.is_zero]


def _integral_rep_cells(args, spec: FamilySpec, n: int) -> list:
    if args.z is None:
        raise ValueError(f"{args.subject} needs --z (the evaluation point)")
    try:
        lhs, rhs = integral_rep_check(spec, n, args.z, args.points)
    except OverflowError:
        raise ValueError(f"the member's value at z = {args.z} exceeds the float range") from None
    err = abs(lhs - rhs)
    return [lhs, rhs, err, err <= args.tol * max(1.0, abs(lhs))]


_RESIDUAL_COLUMNS = ["n", "residual_max_coeff", "ok"]

# Subject -> (help, allowed families, columns, cells(args, spec, n), extra
# params) for the verify subjects with one row per index n = 0..nmax.  The
# lambdas look their function up at call time, so a wrapper installed on the
# module-level name is honoured.
_INDEX_SUBJECTS = {
    "ode3": ("third-order differential equation residuals", _SCRIPT_FAMILIES, _RESIDUAL_COLUMNS,
             lambda args, spec, n: _residual_cells(ode3_residual(spec, n)), ()),
    "pencil": ("operator-pencil eigenfunction residuals", _ALL_FAMILIES, _RESIDUAL_COLUMNS,
               lambda args, spec, n: _residual_cells(pencil_residual(spec, n)), ()),
    "recurrence": ("five-polynomial recurrence residuals", _SCRIPT_FAMILIES, _RESIDUAL_COLUMNS,
                   lambda args, spec, n: _residual_cells(_recurrence_residual(spec, n)), ()),
    "integral-rep": ("integral representation vs direct evaluation", _SCRIPT_FAMILIES,
                     ["n", "direct", "integral", "abs_err", "ok"], _integral_rep_cells,
                     ("z", "tol")),
}


def _cmd_verify_indexed(args):
    _, allowed, columns, cells, extra = _INDEX_SUBJECTS[args.subject]
    spec, params = _family_from_args(args, allowed)
    rows = [[n, *cells(args, spec, n)] for n in range(args.nmax + 1)]
    params.update({"nmax": args.nmax, **{name: getattr(args, name) for name in extra}})
    return params, {"columns": columns, "rows": rows}, all(row[-1] for row in rows)


def _cmd_verify_limit(args):
    x = args.z if args.z is not None else Fraction(1)
    bs = args.b_values or [Fraction(2) ** k for k in range(8, 13)]
    try:
        errors = limit_check(args.q, args.r, args.n, x, bs)
    except OverflowError:
        raise ValueError(f"the limit errors at z = {x} exceed the float range") from None
    rows = [[str(b), e] for b, e in zip(bs, errors)]
    if all(e == 0.0 for e in errors):
        passed = True  # already exact at every tested b
        ratios = []
    else:
        ratios = [e / e_next if e_next else None for e, e_next in zip(errors, errors[1:])]
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
    return params, results, passed


def _cmd_verify_psi(args):
    if args.nmax < 2:
        # The relations start at n = 2; a shorter range would pass with no rows.
        raise ValueError(f"{args.subject} needs --nmax of at least 2, got {args.nmax}")
    rows = []
    for n in range(2, args.nmax + 1):
        res = psi_consistency(args.a, args.b, args.c, n)
        ok = all(v == 0 for v in res)
        rows.append([n, *[str(v) for v in res], ok])
    params = {"a": str(args.a), "b": str(args.b), "c": str(args.c), "nmax": args.nmax}
    columns = ["n", "relation1", "relation2", "relation3", "relation4", "ok"]
    return params, {"columns": columns, "rows": rows}, all(row[-1] for row in rows)


def _cmd_table_roots(args):
    member, params = _member_from_args(args)
    if member.degree is None or member.degree < 1:
        raise ValueError(f"{args.what} needs a member of degree at least 1 (n >= 1)")
    found = roots(member)
    rows = [[i, z.real, z.imag] for i, z in enumerate(found.roots)]
    results = {
        "columns": ["index", "real", "imag"],
        "rows": rows,
        "residual_bound": found.residual_bound,
        "iterations": found.iterations,
    }
    return params, results, True


def _cmd_table_eval_grid(args):
    member, params = _member_from_args(args)
    if args.x_range is None:
        raise ValueError(f"{args.what} needs --x-range lo:hi:count")
    rows = []
    for x in args.x_range:
        try:
            rows.append([float(x), float(member(x))])
        except OverflowError:
            raise ValueError(f"the member's value at x = {x} exceeds the float range") from None
    params["x_range"] = [str(x) for x in args.x_range]
    return params, {"columns": ["x", "value"], "rows": rows}, True


def _cmd_table_quad_rule(args):
    names = ("q",) if args.weight == "laguerre" else ("a", "b")
    values = [getattr(args, name) for name in names]
    if any(v is None for v in values):
        raise ValueError(f"{args.weight} weight needs {_flags(names)}")
    if args.points is None:
        raise ValueError(f"{args.what} needs --points")
    rule = gauss_rule(WeightSpec(args.weight, tuple(values)), args.points)
    rows = [[i, x, w] for i, (x, w) in enumerate(zip(rule.nodes, rule.weights))]
    wparams = {name: str(v) for name, v in zip(names, values)}
    params = {"weight": args.weight, **wparams, "points": args.points}
    return params, {"columns": ["index", "node", "weight"], "rows": rows}, True


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
    return params, {"columns": [*names, "discriminant", "sign"], "rows": rows}, True


# --- rendering -------------------------------------------------------------


def _cell_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobhyp",
        description="Hypergeometric Sobolev orthogonal polynomial families: "
                    "exact coefficients, identity verification, numeric tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(group, name, handler, **kwargs) -> argparse.ArgumentParser:
        p = group.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        leaves.append(p)
        return p

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, choices=_ALL_FAMILIES)
    for name in _HEAD_FLAGS:
        family.add_argument(f"--{name}", type=_rational)
    family.add_argument("--rs", type=_rational_list, metavar="R1,R2,...")
    family.add_argument("--cs", type=_rational_list, metavar="C1,C2,...")
    member = argparse.ArgumentParser(add_help=False, parents=[family])
    member.add_argument("--n", type=int)
    indexed = argparse.ArgumentParser(add_help=False, parents=[family])
    indexed.add_argument("--nmax", type=_nonnegative_int, required=True)

    leaf(sub, "coeffs", _cmd_coeffs, help="exact coefficients of one family member",
         parents=[member])

    verify = sub.add_parser("verify", help="re-derive identities over an index range")
    vsub = verify.add_subparsers(dest="subject", required=True)

    leaf(vsub, "orthogonality", _cmd_verify_orthogonality,
         help="exact Sobolev orthogonality with diagonal values", parents=[indexed])
    for subject, entry in _INDEX_SUBJECTS.items():
        leaf(vsub, subject, _cmd_verify_indexed, help=entry[0], parents=[indexed])

    p = vsub.choices["integral-rep"]
    p.add_argument("--z", type=_finite_float, help="evaluation point")
    p.add_argument("--points", type=int, default=None, help="quadrature points override")
    p.add_argument("--tol", type=float, default=1e-10)

    p = leaf(vsub, "limit", _cmd_verify_limit, help="large-b limit of the Jacobi-side family")
    p.add_argument("--q", type=_rational, required=True)
    p.add_argument("--r", type=_rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_rational, help="evaluation point (default 1)")
    p.add_argument("--b-values", type=_rational_list, metavar="B1,B2,...")

    p = leaf(vsub, "psi", _cmd_verify_psi, help="scaled-coefficient linear identities")
    for name in ("a", "b", "c"):
        p.add_argument(f"--{name}", type=_rational, required=True)
    p.add_argument("--nmax", type=_nonnegative_int, required=True)

    table = sub.add_parser("table", help="numeric data tables")
    tsub = table.add_subparsers(dest="what", required=True)

    leaf(tsub, "roots", _cmd_table_roots, help="all roots of one member", parents=[member])
    p = leaf(tsub, "eval-grid", _cmd_table_eval_grid, help="member values on an x grid",
             parents=[member])
    p.add_argument("--x-range", type=_rational_range, metavar="LO:HI:COUNT")

    p = leaf(tsub, "quad-rule", _cmd_table_quad_rule, help="Gauss rule nodes and weights")
    p.add_argument("--weight", choices=["laguerre", "jacobi"], required=True)
    for name in ("q", "a", "b"):
        p.add_argument(f"--{name}", type=_rational)
    p.add_argument("--points", type=int)

    p = leaf(tsub, "discriminant-grid", _cmd_table_discriminant_grid,
             help="degree-2 discriminants over parameter grids")
    p.add_argument("--family", required=True, choices=_SCRIPT_FAMILIES)
    for name in _HEAD_FLAGS:
        p.add_argument(f"--{name}-range", type=_rational_range, metavar="LO:HI:COUNT")

    # The output flags come last on every leaf, so they close each help screen.
    for p in leaves:
        p.add_argument("--format", choices=["text", "csv", "json"], default="text")
        p.add_argument("--out", metavar="PATH", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params, results, passed = args.handler(args)
    except (PoleError, DomainError, ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConvergenceError) else 2
    doc = {"command": " ".join(_path(args)), "params": params, "results": results, "pass": passed}
    rendered = _render(doc, args.format)
    if args.out:
        try:
            Path(args.out).write_text(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
