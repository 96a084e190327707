"""One cold workload pass: run a job list in this fresh interpreter and report.

Usage (the job list arrives as JSON on stdin; ``PYTHONPATH`` names the
checkout's ``src``):

    python3 bench/worker.py [--spans PATH] < jobs.json

One caller runs the jobs one after another, with no threads: a closed loop
with one client.  Each job is timed alone, from outside the library.  CLI
output is captured in memory.  The last line on stdout is one JSON object
with the per-job times, the outcome of each job, the peak RSS of this
process and, with ``--spans``, the per-layer summary of the traced pass.
Outputs are judged by the parent process, so checking adds no time and no
memory here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import sobhyp.cli
import sobhyp.families as families
import sobhyp.recurrence as recurrence
import sobhyp.sobolev as sobolev

from tracing import Tracer


def _spec(family: str, params):
    ps = [Fraction(p) for p in params]
    if family == "scriptL":
        return families.script_l(*ps)
    if family == "scriptP":
        return families.script_p(*ps)
    if family == "boldL":
        return families.bold_l(ps[0], ps[1:])
    return families.bold_p(ps[0], ps[1], ps[2:])


def _run_cli(job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sobhyp.cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-2000:]}


def _run_quadrature(job):
    spec = _spec(job["family"], job["params"])
    form = sobolev.sobolev_form_for(spec)
    yn = families.make_member(spec, job["n"])
    ym = families.make_member(spec, job["m"])
    return sobolev.sobolev_inner_quadrature(form, yn, ym)


def _run_generate_p(job):
    a, b, c = (Fraction(p) for p in job["params"])
    members = recurrence.generate_P_by_recurrence(a, b, c, job["nmax"])
    spec = families.script_p(a, b, c)
    same = all(p == families.make_member(spec, n) for n, p in enumerate(members))
    return same, members


_RUNNERS = {"cli": _run_cli, "quadrature": _run_quadrature, "generate_p": _run_generate_p}


def _encode(kind: str, result):
    """JSON form of a job result, made after the job's timer has stopped."""
    if kind == "cli":
        return result
    if kind == "quadrature":
        return {"value": repr(result)}
    same, members = result
    return {"same": same, "members": [[str(c) for c in p.coeffs] for p in members]}


def run(jobs):
    times, outcomes = [], []
    for job in jobs:
        runner = _RUNNERS[job["kind"]]
        start = perf_counter()
        try:
            result = runner(job)
        except Exception as exc:  # an uncaught error fails this job only
            times.append(perf_counter() - start)
            tb = traceback.format_exception_only(type(exc), exc)
            outcomes.append({"exception": "".join(tb).strip()})
            continue
        times.append(perf_counter() - start)
        outcomes.append(_encode(job["kind"], result))
    return {
        "times": times,
        "outcomes": outcomes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sobhyp_file": sobhyp.cli.__file__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", metavar="PATH", help="trace this pass; write its spans here")
    args = parser.parse_args(argv)
    jobs = json.load(sys.stdin)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    report = run(jobs)
    if tracer is not None:
        tracer.write_spans(args.spans)
        report["layers"] = tracer.summarize()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
