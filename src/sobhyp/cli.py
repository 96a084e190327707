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
from functools import lru_cache

from .analysis import discriminant_L, discriminant_P, integral_rep_check, limit_check, roots
from .diffop import ode3_residual, pencil_residual
from .families import _LAYOUTS, SCRIPT_L, SCRIPT_P, FamilySpec, make_member
from .recurrence import psi_consistency, recurrence_residual_L, recurrence_residual_P
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


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
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
    items = [part.strip() for part in text.split(",")]
    if not all(items):
        raise argparse.ArgumentTypeError(f"empty item in the list {text!r}")
    return [_rational(part) for part in items]


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
    """``--a, --b and --c`` for the names a, b, c (``--q-range`` for q_range)."""
    flags = [f"--{name.replace('_', '-')}" for name in names]
    return flags[0] if len(flags) == 1 else ", ".join(flags[:-1]) + " and " + flags[-1]


def _choice_values(args, label: str, needs, offered, slot=None, needs_label=None) -> list:
    """The values a --family or --weight choice ``needs``, refusing a missing
    one and any flag in ``offered`` that is neither needed nor ``slot``."""
    values = [getattr(args, name) for name in needs]
    if any(v is None for v in values):
        optional = f" (and optionally --{slot})" if slot else ""
        raise ValueError(f"{needs_label or label} needs {_flags(needs)}{optional}")
    for name in offered:
        if name not in (*needs, slot) and getattr(args, name) is not None:
            raise ValueError(f"{label} does not take {_flags([name])}")
    return values


def _family_from_args(args, allowed) -> tuple[FamilySpec, dict]:
    """The family spec the flags name, and its params record for the document."""
    kind = args.family
    if kind not in allowed:
        raise ValueError(f"family must be one of {', '.join(allowed)} here, got {kind}")
    heads, slot = _FAMILY_FLAGS[kind]
    values = _choice_values(args, kind, heads, (*_HEAD_FLAGS, "rs", "cs"), slot)
    params = {"family": kind, **{name: str(v) for name, v in zip(heads, values)}}
    slots = (getattr(args, slot) or []) if slot else []
    if slot:
        params[slot] = [str(v) for v in slots]
    return FamilySpec(kind, (*values, *slots)), params


# --- handlers --------------------------------------------------------------
#
# Each handler returns (params, results, passed); ``main`` adds the command
# name, which it reads from the parse path.


def _member_from_args(args):
    """The member of degree ``--n`` and its params record, for single-member commands."""
    spec, params = _family_from_args(args, _ALL_FAMILIES)
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
    # Each pair is compared once, here; the failures are read off the rows.
    # Most entries are exactly 0, and a pair of zeros needs no str or ==.
    rows = [
        [n, m, "0", "0", True] if not got and not want
        else [n, m, str(got), str(want), got == want]
        for n, m, got, want in report.entries
    ]
    failed = [row for row in rows if not row[4]]
    if failed:
        n, m, got, want, _ = failed[0]
        print(f"first failure: <y_{n}, y_{m}> = {got}, want {want}", file=sys.stderr)
    params["nmax"] = args.nmax
    results = {
        "columns": ["n", "m", "inner_product", "expected", "ok"],
        "rows": rows,
        "pairs_checked": report.pairs_checked,
        "failures": len(failed),
    }
    return params, results, not failed


def _recurrence_residual(spec: FamilySpec, n: int):
    if spec.kind == SCRIPT_L:
        return recurrence_residual_L(*spec.params, n)
    return recurrence_residual_P(*spec.params, n)


def _residual_cells(res) -> list:
    """The largest coefficient of an exact residual, and whether it vanishes."""
    if res.is_zero:
        return ["0", True]
    return [str(Fraction(max(map(abs, res.nums)), res.den)), False]


def _integral_rep_cells(args, spec: FamilySpec, n: int) -> list:
    try:
        lhs, rhs = integral_rep_check(spec, n, args.z)
    except OverflowError:
        raise ValueError(f"the member's value at z = {args.z} exceeds the float range") from None
    err = abs(lhs - rhs)
    return [lhs, rhs, err, err <= args.tol * max(1.0, abs(lhs))]


_RESIDUAL_COLUMNS = ["n", "residual_max_coeff", "ok"]

def _indexed(allowed, columns, cells, extra=()):
    """The handler of a verify subject with one row per index n = 0..nmax: the
    row is n and ``cells(args, spec, n)``, and ``extra`` names the flags that
    join the params record."""

    def handler(args):
        spec, params = _family_from_args(args, allowed)
        rows = [[n, *cells(args, spec, n)] for n in range(args.nmax + 1)]
        params.update({"nmax": args.nmax, **{name: getattr(args, name) for name in extra}})
        return _index_result(args.subject, params, columns, rows)

    return handler


def _index_result(subject: str, params: dict, columns: list, rows: list):
    """The handler result of a one-row-per-n subject; its first failing row goes to stderr."""
    failed = next((row for row in rows if not row[-1]), None)
    if failed is not None:
        cells = ", ".join(f"{c} = {_cell_text(v)}" for c, v in zip(columns[1:-1], failed[1:-1]))
        print(f"first failure: {subject} at n = {failed[0]}: {cells}", file=sys.stderr)
    return params, {"columns": columns, "rows": rows}, failed is None


def _cmd_verify_limit(args):
    x = args.z if args.z is not None else Fraction(1)
    bs = args.b_values or [Fraction(2) ** k for k in range(8, 13)]
    if len(bs) < 2:
        # One error gives no ratio, so the halving law would go untested.
        raise ValueError(f"{args.subject} needs at least two --b-values, got {len(bs)}")
    bad = next((b for b in bs if b <= 0), None)
    if bad is not None:
        # scriptP(q, b, r) would refuse it in the name of a family this command never names.
        raise ValueError(f"{args.subject} needs strictly positive --b-values, got {bad}")
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
        passed = all(rr is not None and lo <= rr <= hi for rr in ratios)
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
        rows.append([n, *[str(v) for v in res], all(v == 0 for v in res)])
    params = {"a": str(args.a), "b": str(args.b), "c": str(args.c), "nmax": args.nmax}
    columns = ["n", "relation1", "relation2", "relation3", "relation4", "ok"]
    return _index_result(args.subject, params, columns, rows)


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
    values = _choice_values(args, f"{args.weight} weight", names, ("q", "a", "b"))
    rule = gauss_rule(WeightSpec(args.weight, tuple(values)), args.points)
    rows = [[i, x, w] for i, (x, w) in enumerate(zip(rule.nodes, rule.weights))]
    wparams = {name: str(v) for name, v in zip(names, values)}
    params = {"weight": args.weight, **wparams, "points": args.points}
    return params, {"columns": ["index", "node", "weight"], "rows": rows}, True


def _cmd_table_discriminant_grid(args):
    names = _FAMILY_FLAGS[args.family][0]
    ranges = _choice_values(args, args.family, [f"{name}_range" for name in names],
                            [f"{name}_range" for name in _HEAD_FLAGS],
                            needs_label=f"{args.family} discriminant grid")
    discriminant = discriminant_L if args.family == SCRIPT_L else discriminant_P
    rows = []
    for point in itertools.product(*ranges):
        d = discriminant(*FamilySpec(args.family, point).params)  # the family's parameter rule
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


@lru_cache(maxsize=None)
def _json_encoder(level: int):
    """The C-accelerated compact encoder whose item separator ends in the indent of ``level``."""
    return json.JSONEncoder(separators=(",\n" + "  " * level, ": ")).encode


def _scalars(items) -> bool:
    """Whether no item is a dict, list or tuple, tested once per item type."""
    return not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, items)))


def _json(value, level: int = 0) -> str:
    """``json.dumps(value, indent=2)`` for a value whose dicts have str keys,
    to the byte.

    A list of scalars is one call of the compact encoder, and so is a table
    (a list of non-empty scalar rows), whose row boundaries are then fixed by
    one ``str.replace``: the encoder escapes every newline inside a string,
    so each raw newline it writes is a separator.  Anything else recurses.
    """
    pad, inner = "  " * level, "  " * (level + 1)
    if isinstance(value, dict) and value:
        items = (f"{_json_encoder(0)(k)}: {_json(v, level + 1)}" for k, v in value.items())
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if not isinstance(value, (list, tuple)) or not value:
        return _json_encoder(0)(value)
    if _scalars(value):
        body = _json_encoder(level + 1)(value)[1:-1]
    elif (all(value) and all(issubclass(t, (list, tuple)) for t in set(map(type, value)))
          and _scalars(itertools.chain.from_iterable(value))):
        deep = "  " * (level + 2)
        rows = _json_encoder(level + 2)(value)[2:-2]
        rows = rows.replace(f"],\n{deep}[", f"\n{inner}],\n{inner}[\n{deep}")
        body = f"[\n{deep}{rows}\n{inner}]"
    else:
        body = (",\n" + inner).join(_json(v, level + 1) for v in value)
    return "[\n" + inner + body + "\n" + pad + "]"


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(doc) + "\n"
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


# Each function adds one leaf's flags, in help-screen order; the family,
# member and indexed sets are shared.


def _family_flags(p):
    p.add_argument("--family", required=True, choices=_ALL_FAMILIES)
    for name in _HEAD_FLAGS:
        p.add_argument(f"--{name}", type=_rational)
    p.add_argument("--rs", type=_rational_list, metavar="R1,R2,...")
    p.add_argument("--cs", type=_rational_list, metavar="C1,C2,...")


def _member_flags(p):
    _family_flags(p)
    p.add_argument("--n", type=int, required=True)


def _indexed_flags(p):
    _family_flags(p)
    p.add_argument("--nmax", type=_nonnegative_int, required=True)


def _integral_rep_flags(p):
    _indexed_flags(p)
    p.add_argument("--z", type=_finite_float, required=True, help="evaluation point")
    p.add_argument("--tol", type=_nonnegative_float, default=1e-10)


def _limit_flags(p):
    p.add_argument("--q", type=_rational, required=True)
    p.add_argument("--r", type=_rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_rational, help="evaluation point (default 1)")
    p.add_argument("--b-values", type=_rational_list, metavar="B1,B2,...")


def _psi_flags(p):
    for name in ("a", "b", "c"):
        p.add_argument(f"--{name}", type=_rational, required=True)
    p.add_argument("--nmax", type=_nonnegative_int, required=True)


def _eval_grid_flags(p):
    _member_flags(p)
    p.add_argument("--x-range", type=_rational_range, required=True, metavar="LO:HI:COUNT")


def _quad_rule_flags(p):
    p.add_argument("--weight", choices=["laguerre", "jacobi"], required=True)
    for name in ("q", "a", "b"):
        p.add_argument(f"--{name}", type=_rational)
    p.add_argument("--points", type=int, required=True)


def _discriminant_grid_flags(p):
    p.add_argument("--family", required=True, choices=_SCRIPT_FAMILIES)
    for name in _HEAD_FLAGS:
        p.add_argument(f"--{name}-range", type=_rational_range, metavar="LO:HI:COUNT")


# Command group -> (dest of its subcommand, help); () is the root.
_GROUPS = {
    (): ("command", None),
    ("verify",): ("subject", "re-derive identities over an index range"),
    ("table",): ("what", "numeric data tables"),
}

# Command path -> (handler, help, add_flags), one entry per leaf parser, in
# help-screen order.  The residual lambdas look their function up at call
# time, so a wrapper installed on the module-level name is honoured.
_LEAVES = {
    ("coeffs",): (_cmd_coeffs, "exact coefficients of one family member", _member_flags),
    ("verify", "orthogonality"): (_cmd_verify_orthogonality,
                                  "exact Sobolev orthogonality with diagonal values",
                                  _indexed_flags),
    ("verify", "ode3"): (
        _indexed(_ALL_FAMILIES, _RESIDUAL_COLUMNS,
                 lambda args, spec, n: _residual_cells(ode3_residual(spec, n))),
        "hypergeometric differential equation residuals", _indexed_flags),
    ("verify", "pencil"): (
        _indexed(_ALL_FAMILIES, _RESIDUAL_COLUMNS,
                 lambda args, spec, n: _residual_cells(pencil_residual(spec, n))),
        "operator-pencil eigenfunction residuals", _indexed_flags),
    ("verify", "recurrence"): (
        _indexed(_SCRIPT_FAMILIES, _RESIDUAL_COLUMNS,
                 lambda args, spec, n: _residual_cells(_recurrence_residual(spec, n))),
        "five-polynomial recurrence residuals", _indexed_flags),
    ("verify", "integral-rep"): (
        _indexed(_SCRIPT_FAMILIES, ["n", "direct", "integral", "abs_err", "ok"],
                 _integral_rep_cells, ("z", "tol")),
        "integral representation vs direct evaluation", _integral_rep_flags),
    ("verify", "limit"): (_cmd_verify_limit, "large-b limit of the Jacobi-side family",
                          _limit_flags),
    ("verify", "psi"): (_cmd_verify_psi, "scaled-coefficient linear identities", _psi_flags),
    ("table", "roots"): (_cmd_table_roots, "all roots of one member", _member_flags),
    ("table", "eval-grid"): (_cmd_table_eval_grid, "member values on an x grid",
                             _eval_grid_flags),
    ("table", "quad-rule"): (_cmd_table_quad_rule, "Gauss rule nodes and weights",
                             _quad_rule_flags),
    ("table", "discriminant-grid"): (_cmd_table_discriminant_grid,
                                     "degree-2 discriminants over parameter grids",
                                     _discriminant_grid_flags),
}


@lru_cache(maxsize=None)
def _build_parser(path=None) -> argparse.ArgumentParser:
    """The command tree with only the leaf at ``path``, or with every leaf when
    ``path`` is None.

    The root and group parsers take no flag but -h, so argparse hands a leaf
    the same arguments in either tree.  Each group's metavar spells every
    command, so a one-leaf tree's usage lines, which an unrecognized argument
    prints, and so its errors, read the same as well.

    Each tree is built on first use and then reused: ``parse_args`` fills a
    fresh namespace from the actions' defaults and leaves the parser as it
    was, and help and usage errors read the terminal width when they print.
    """
    parser = argparse.ArgumentParser(
        prog="sobhyp",
        description="Hypergeometric Sobolev orthogonal polynomial families: "
                    "exact coefficients, identity verification, numeric tables.",
    )
    subparsers = {}

    def add_group(group, owner):
        names = dict.fromkeys(leaf[len(group)] for leaf in _LEAVES if leaf[:len(group)] == group)
        subparsers[group] = owner.add_subparsers(dest=_GROUPS[group][0], required=True,
                                                 metavar="{" + ",".join(names) + "}")

    add_group((), parser)
    for leaf, (handler, help_text, add_flags) in _LEAVES.items():
        if path not in (None, leaf):
            continue
        group = leaf[:-1]
        if group not in subparsers:
            add_group(group, subparsers[()].add_parser(group[0], help=_GROUPS[group][1]))
        p = subparsers[group].add_parser(leaf[-1], help=help_text)
        add_flags(p)
        # The output flags come last on every leaf, so they close each help screen.
        p.add_argument("--format", choices=["text", "csv", "json"], default="text")
        p.add_argument("--out", metavar="PATH", default=None)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only a named leaf is built alone; help on the root or a group and a
    # missing or unknown command get the whole tree.
    leaf = next((p for p in (tuple(argv[:1]), tuple(argv[:2])) if p in _LEAVES), None)
    args = _build_parser(leaf).parse_args(argv)
    try:
        params, results, passed = args.handler(args)
    except (ValueError, ConvergenceError) as exc:  # PoleError and DomainError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConvergenceError) else 2
    path = [getattr(args, dest) for dest, _ in _GROUPS.values() if hasattr(args, dest)]
    doc = {"command": " ".join(path), "params": params, "results": results, "pass": passed}
    rendered = _render(doc, args.format)
    if args.out:
        try:
            # open() and not pathlib, which drops a trailing separator: a
            # PATH naming a directory must fail rather than write beside it.
            with open(args.out, "w") as out:
                out.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
