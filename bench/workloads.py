"""Seeded job lists for the three benchmark workloads.

A job is a plain dict that the worker can execute and the checker can judge:

* ``{"kind": "cli", "argv": [...], "check": ...}`` -- one ``sobhyp.cli.main``
  call with ``--format json`` appended;
* ``{"kind": "quadrature", "family": ..., "params": [...], "n": .., "m": ..}``
  -- one ``sobolev_inner_quadrature`` call on two members;
* ``{"kind": "generate_p", "params": [a, b, c], "nmax": ..}`` -- one
  ``generate_P_by_recurrence`` run compared with ``make_member``.

Parameters are exact rationals written as strings, so the job list is JSON.
The seed is the only input: ``build(name, seed)`` is deterministic, and
``DEFAULT_SEED`` reproduces the parameter points named in the README.  Other
seeds redraw the parameters from domains the library documents as valid:
lowering-operator orders (r, c and the slot lists) are positive integers
wherever a Sobolev form or an operator pencil needs them, every other
parameter is a positive rational, and ``generate_P_by_recurrence`` never
gets a + b in {1, 2}.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 0

WORKLOADS = ("ortho-deep", "identity-sweep", "float-crosscheck")

# Workload sizes.  "tiny" keeps every job kind but shrinks it so the
# benchmark's own tests finish in seconds.
SIZES = {
    "full": {
        "ortho_nmax": 32,
        "sweep_nmax": 30,
        "sweep_points": 20,
        "quad_nmax": 24,
        "intrep_nmax": 40,
        "roots_degrees": range(2, 25),
        # A 256-point Laguerre rule underflows its smallest weights in float64
        # (gauss_rule then raises ConvergenceError), so Laguerre stops at 192.
        "quad_rule_points": {"laguerre": (32, 64, 128, 192), "jacobi": (32, 64, 128, 256)},
    },
    "tiny": {
        "ortho_nmax": 4,
        "sweep_nmax": 4,
        "sweep_points": 2,
        "quad_nmax": 3,
        "intrep_nmax": 4,
        "roots_degrees": range(2, 5),
        "quad_rule_points": {"laguerre": (32,), "jacobi": (32,)},
    },
}

# Weight parameters that seeds other than the default draw for the two
# Sobolev-form specs, scriptL(q, 3) and boldP(a, b, [2, 3]).  The operator
# orders stay at the paper's r = 3 and cs = [2, 3].  q and (a, b) come from
# points whose verify_orthogonality at nmax 32 took the same CPU time within
# about 4 % on one machine, so wall_s compares across seeds.
_EQUAL_COST_Q = ("1", "4/3", "3/2", "5/3")
_EQUAL_COST_AB = (("1/2", "1"), ("1/2", "2"), ("1", "2"), ("3/2", "3/2"), ("3/2", "2"), ("2", "1"))


class _Fresh:
    """Draws parameter points, never the same one twice, so job ids stay unique."""

    def __init__(self):
        self.seen = set()

    def __call__(self, draw):
        while (point := draw()) in self.seen:
            pass
        self.seen.add(point)
        return point


def _sobolev_specs(rng, seed):
    if seed == DEFAULT_SEED:
        return [("scriptL", ["1/2", 3]), ("boldP", [1, 2, 2, 3])]
    a, b = rng.choice(_EQUAL_COST_AB)
    return [("scriptL", [rng.choice(_EQUAL_COST_Q), 3]), ("boldP", [a, b, 2, 3])]


def _q(value) -> str:
    return str(Fraction(value))


def _rational(rng: random.Random, top: int = 12, den: int = 4) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, den))


def family_flags(family: str, params) -> list[str]:
    """CLI flags that name one family member set."""
    p = [_q(v) for v in params]
    if family == "scriptL":
        return ["--family", family, "--q", p[0], "--r", p[1]]
    if family == "scriptP":
        return ["--family", family, "--a", p[0], "--b", p[1], "--c", p[2]]
    if family == "boldL":
        flags, slots, name = ["--family", family, "--q", p[0]], p[1:], "--rs"
    elif family == "boldP":
        flags, slots, name = ["--family", family, "--a", p[0], "--b", p[1]], p[2:], "--cs"
    else:
        raise ValueError(f"unknown family {family!r}")
    return flags + [name, ",".join(slots)] if slots else flags


def _cli(argv: list[str], check: str, **meta) -> dict:
    argv = argv + ["--format", "json"]
    return {"id": " ".join(argv), "kind": "cli", "argv": argv, "check": check, **meta}


def _verify(subject: str, family: str, params, nmax: int) -> dict:
    argv = ["verify", subject, *family_flags(family, params), "--nmax", str(nmax)]
    return _cli(argv, subject, family=family, params=[_q(v) for v in params], nmax=nmax)


def _ortho_deep(rng, seed, size):
    return [_verify("orthogonality", fam, params, size["ortho_nmax"])
            for fam, params in _sobolev_specs(rng, seed)]


def _identity_sweep(rng, seed, size):
    # Integer orders and slot counts cycle through their ranges instead of
    # being drawn, so every seed has the same mix of operator orders; only
    # the rational parameters are random.
    nmax, points = size["sweep_nmax"], size["sweep_points"]
    jobs = []
    fresh = _Fresh()
    for i in range(points):
        q, r = fresh(lambda: (_rational(rng), 1 + i % 4))
        a, b, c = fresh(lambda: (_rational(rng), _rational(rng), 1 + (i + 2) % 4))
        for subject in ("ode3", "pencil", "recurrence"):
            jobs.append(_verify(subject, "scriptL", [q, r], nmax))
            jobs.append(_verify(subject, "scriptP", [a, b, c], nmax))
        argv = ["verify", "psi", "--a", _q(a), "--b", _q(b), "--c", _q(c), "--nmax", str(nmax)]
        jobs.append(_cli(argv, "psi", params=[_q(a), _q(b), _q(c)], nmax=nmax))
        slots = tuple(2 + (i + k) % 3 for k in range(2 + i % 2))
        jobs.append(_verify("pencil", "boldL", fresh(lambda: (_rational(rng), *slots)), nmax))
        slots = tuple(2 + (i + k + 1) % 3 for k in range(2 + (i + 1) % 2))
        params = fresh(lambda: (_rational(rng), _rational(rng), *slots))
        jobs.append(_verify("pencil", "boldP", params, nmax))
        family = ("scriptL", "scriptP", "boldL", "boldP")[i % 4]
        params = {"scriptL": [q, r], "scriptP": [a, b, c]}.get(family)
        if params is None:
            heads = 1 if family == "boldL" else 2
            params = fresh(lambda: tuple(_rational(rng) for _ in range(heads + i % 3)))
        argv = ["coeffs", *family_flags(family, params), "--n", str(nmax)]
        jobs.append(_cli(argv, "coeffs", family=family, params=[_q(v) for v in params], n=nmax))
    for _ in range(max(1, points // 2)):
        while True:
            a, b, c = fresh(lambda: (_rational(rng), _rational(rng), _rational(rng)))
            if a + b not in (1, 2):
                break
        jobs.append({
            "id": f"generate_P_by_recurrence {a} {b} {c} N={nmax}",
            "kind": "generate_p",
            "params": [_q(a), _q(b), _q(c)],
            "nmax": nmax,
        })
    return jobs


# The `table roots` points of every seed.  They are not drawn: these are the
# points where root finding is known to fail (see README.md), so the number of
# failed jobs is a property of the code, not of the seed, and two sets of runs
# on any seeds report the same count.
ROOT_SPECS = (("scriptL", (1, 1)), ("scriptL", (3, 3)), ("scriptP", (1, 2, 3)))


def _float_crosscheck(rng, seed, size):
    if seed == DEFAULT_SEED:
        intrep = [("scriptL", ["1/2", 3], 1.0), ("scriptP", [1, 2, 3], 0.5)]
        weights = [["laguerre", "1/2"], ["jacobi", 1, 2]]
        grid = [("scriptL", ["1/2", 3], "0:8:33"), ("boldP", [1, 2, 2, 3], "0:1:33")]
        limits = [(2, 3, 4), (2, 3, 8)]
    else:
        intrep = [
            ("scriptL", [_rational(rng, 6), rng.randint(2, 4)], rng.choice((0.5, 1.0, 2.0))),
            ("scriptP", [_rational(rng, 6), _rational(rng, 6), rng.randint(2, 4)],
             rng.choice((0.25, 0.5, 0.75))),
        ]
        weights = [["laguerre", _rational(rng, 6)], ["jacobi", _rational(rng, 6), _rational(rng, 6)]]
        grid = [
            ("scriptL", [_rational(rng, 6), rng.randint(1, 4)], "0:8:33"),
            ("boldP", [_rational(rng, 6), _rational(rng, 6), rng.randint(1, 4), rng.randint(1, 4)],
             "0:1:33"),
        ]
        # The 1/b error decay is checked only at the acceptance suite's
        # (q, r) = (2, 3); at other points it need not hold at these b.
        limits = [(2, 3, n) for n in sorted(rng.sample(range(1, 9), 2))]
    jobs = []
    nmax = size["quad_nmax"]
    for family, params in _sobolev_specs(rng, seed):
        for n in range(nmax + 1):
            for m in range(n + 1):
                jobs.append({
                    "id": f"sobolev_inner_quadrature {family}({','.join(map(_q, params))}) n={n} m={m}",
                    "kind": "quadrature",
                    "family": family,
                    "params": [_q(v) for v in params],
                    "n": n,
                    "m": m,
                })
    for family, params, z in intrep:
        argv = ["verify", "integral-rep", *family_flags(family, params),
                "--nmax", str(size["intrep_nmax"]), "--z", repr(z)]
        jobs.append(_cli(argv, "integral-rep", family=family, params=[_q(v) for v in params],
                         nmax=size["intrep_nmax"], z=z))
    for family, params in ROOT_SPECS:
        for n in size["roots_degrees"]:
            argv = ["table", "roots", *family_flags(family, params), "--n", str(n)]
            jobs.append(_cli(argv, "roots", family=family, params=[_q(v) for v in params], n=n))
    for weight in weights:
        flags = (["--q", _q(weight[1])] if weight[0] == "laguerre"
                 else ["--a", _q(weight[1]), "--b", _q(weight[2])])
        for points in size["quad_rule_points"][weight[0]]:
            argv = ["table", "quad-rule", "--weight", weight[0], *flags, "--points", str(points)]
            jobs.append(_cli(argv, "quad-rule", weight=weight[0],
                             params=[_q(v) for v in weight[1:]], points=points))
    for family, params, x_range in grid:
        argv = ["table", "eval-grid", *family_flags(family, params),
                "--n", str(nmax), "--x-range", x_range]
        jobs.append(_cli(argv, "eval-grid", family=family, params=[_q(v) for v in params],
                         n=nmax, x_range=x_range))
    for q, r, n in limits:
        argv = ["verify", "limit", "--q", _q(q), "--r", _q(r), "--n", str(n)]
        jobs.append(_cli(argv, "limit", params=[_q(q), _q(r)], n=n))
    return jobs


_GENERATORS = {
    "ortho-deep": _ortho_deep,
    "identity-sweep": _identity_sweep,
    "float-crosscheck": _float_crosscheck,
}


def build(name: str, seed: int, size: str = "full") -> list[dict]:
    """The job list of one workload pass; the same seed gives the same list."""
    rng = random.Random(f"{name}/{seed}")
    jobs = _GENERATORS[name](rng, seed, SIZES[size])
    if len({job["id"] for job in jobs}) != len(jobs):
        raise ValueError(f"{name} seed {seed} repeats a job")
    return jobs
