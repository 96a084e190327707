"""The sobhyp benchmark: cold-process workload passes, checked and timed.

Run from the root of a checkout:

    python3 bench/run.py --workload ortho-deep --seed 0 --seconds 40 --trace 0

With ``--trace 0`` it runs cold passes of the workload -- each a fresh
``bench/worker.py`` process, so every cache starts empty as it does for a CLI
user -- as many as fit in ``--seconds``.  Before each pass it times a few
spawns of a fresh interpreter that imports ``sobhyp.cli``; ``setup_s`` is
their median over the run.  With ``--trace 1`` it runs one plain and one
traced pass and prints the per-layer metrics; the spans go to
``.bench_out/``.  Every job's output is checked either way.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SPAWNS_PER_PASS = 3
PASS_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # no pass starts that could end after this, whatever --seconds says

# Metric name -> unit.  END_TO_END is printed with --trace 0, PER_LAYER with
# --trace 1; BENCHMARK.json lists the same names.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}


def _layer(name: str, *extra: tuple[str, str]) -> dict[str, str]:
    return {f"{name}.calls": "count", f"{name}.self_s": "s", **{f"{name}.{k}": u for k, u in extra}}


PER_LAYER = {
    **_layer("exactnum.poly_mul", ("coeff_products", "count"), ("max_bits", "bits")),
    **_layer("exactnum.poly_add"),
    **_layer("exactnum.poly_eval", ("coeff_steps", "count")),
    **_layer("exactnum.derivative"),
    **_layer("families.make_member", ("hit_ratio", "ratio"), ("max_bits", "bits")),
    **_layer("families.terminating_series"),
    **_layer("diffop.apply"),
    **_layer("diffop.compose"),
    **_layer("diffop.pencil_residual"),
    **_layer("diffop.ode3_residual"),
    **_layer("recurrence.phi"),
    **_layer("recurrence.residual"),
    **_layer("recurrence.generate_P"),
    **_layer("recurrence.psi_consistency"),
    **_layer("sobolev.moment", ("hit_ratio", "ratio")),
    **_layer("sobolev.inner_exact"),
    **_layer("sobolev.verify_orthogonality"),
    **_layer("sobolev.gauss_rule", ("hit_ratio", "ratio")),
    **_layer("sobolev.inner_quadrature"),
    "sobolev.inner_per_pair": "ratio",
    **_layer("analysis.roots", ("iterations", "count"), ("converged_ratio", "ratio")),
    **_layer("analysis.integral_rep_check"),
    **_layer("analysis.limit_check"),
    **_layer("cli.main"),
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Checkout:
    """The program under test: ``src/sobhyp`` of the checkout in the working directory."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.out_dir = root / ".bench_out"
        self.env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONHASHSEED="0")

    def present(self) -> bool:
        return (self.src / "sobhyp" / "cli.py").is_file()

    def setup_times(self, spawns: int) -> list[float]:
        """Wall time of a fresh interpreter that imports sobhyp.cli, per spawn."""
        argv = [sys.executable, "-c", "import sobhyp.cli"]
        times = []
        for _ in range(spawns):
            start = perf_counter()
            subprocess.run(argv, env=self.env, cwd=self.root, check=True,
                           stdout=subprocess.DEVNULL, timeout=60)
            times.append(perf_counter() - start)
        return times

    def run_pass(self, jobs: list[dict], spans: Path | None = None) -> dict | None:
        """One cold worker process over the whole job list; None if it died."""
        argv = [sys.executable, str(BENCH_DIR / "worker.py")]
        if spans is not None:
            argv += ["--spans", str(spans)]
        try:
            proc = subprocess.run(argv, input=json.dumps(jobs), capture_output=True, text=True,
                                  env=self.env, cwd=self.root, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"worker timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
            return None
        report = json.loads(proc.stdout.splitlines()[-1])
        if Path(report["sobhyp_file"]).resolve().parent != (self.src / "sobhyp").resolve():
            raise RuntimeError(f"worker imported sobhyp from {report['sobhyp_file']}")
        return report


def judge(jobs: list[dict], report: dict | None, golden: dict[str, str]) -> list[str | None]:
    """Failure reason per job (None when correct); a dead worker fails every job."""
    if report is None:
        return ["worker process failed"] * len(jobs)
    return [checks.check(job, outcome, golden.get(job["id"]))
            for job, outcome in zip(jobs, report["outcomes"])]


def tally(jobs: list[dict], reasons: list[list[str | None]]):
    """Attempted and failed counts, whether the run is correct, and the
    failure reason per job id.

    Each job of the list counts once, however many passes ran it: it fails
    when it fails on any pass.  The counts therefore depend on the job list
    and the code, not on how many passes fit in the measuring time.  Roots
    jobs carry the open root-finding defect listed in README.md: they count
    in ``failed`` but do not make the run incorrect.  Any other failed job
    does.
    """
    correct = True
    failures = {}
    for i, job in enumerate(jobs):
        reason = next((r[i] for r in reasons if r[i] is not None), None)
        if reason is not None:
            failures[job["id"]] = reason
            correct = correct and job.get("check") == "roots"
    return len(jobs), len(failures), correct, failures


def load_golden(workload: str, seed: int, size: str) -> dict[str, str]:
    if seed != workloads.DEFAULT_SEED or size != "full":
        return {}
    with open(BENCH_DIR / "golden.json") as fh:
        return json.load(fh)[workload]


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile of the values (q = 5 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(checkout, jobs, golden, seconds, lines):
    # One untimed spawn first writes the bytecode cache, which a CLI user pays
    # once per install, not per invocation.  The timed spawns are spread over
    # the run, a few before each pass, so that setup_s does not hang on one
    # moment of the host's speed.
    checkout.setup_times(1)
    setup, passes, reasons = [], [], []
    start = perf_counter()
    longest = 0.0
    while True:  # as many whole passes as fit in the measuring time, at least one
        setup += checkout.setup_times(SETUP_SPAWNS_PER_PASS)
        pass_start = perf_counter()
        report = checkout.run_pass(jobs)
        longest = max(longest, perf_counter() - pass_start)
        passes.append(report)
        reasons.append(judge(jobs, report, golden))
        if perf_counter() - start + longest > min(seconds, RUN_BUDGET_S):
            break
    done = [p for p in passes if p is not None]
    if not done:
        return {}, reasons
    walls = [sum(p["times"]) for p in done]
    times = [t for p in done for t in p["times"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "job_p50_s": _quantile(times, 5),
        "job_p90_s": _quantile(times, 9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
    }
    lines.append(f"passes: {len(passes)} cold processes; wall_s is the median of "
                 + ", ".join(f"{w:.4g}" for w in walls) + " s")
    lines.append(f"setup spawns: {len(setup)}, {SETUP_SPAWNS_PER_PASS} before each pass;"
                 " setup_s is their median")
    lines.append(f"job latency samples: {len(times)} ({len(jobs)} jobs x {len(done)} passes)")
    return metrics, reasons


def traced(checkout, jobs, golden, tag, lines):
    plain = checkout.run_pass(jobs)
    checkout.out_dir.mkdir(exist_ok=True)
    spans = checkout.out_dir / f"spans-{tag}.csv"
    report = checkout.run_pass(jobs, spans=spans)
    reasons = [judge(jobs, plain, golden), judge(jobs, report, golden)]
    if plain is None or report is None:
        return {}, reasons
    layers = report["layers"]
    metrics = {name: float(layers.get(name, 0)) for name in PER_LAYER}
    pairs = layers.get("sobolev.pairs_checked", 0)
    metrics["sobolev.inner_per_pair"] = metrics["sobolev.inner_exact.calls"] / pairs if pairs else 0.0
    roots = [r for job, r in zip(jobs, reasons[1]) if job.get("check") == "roots"]
    metrics["analysis.roots.converged_ratio"] = (
        sum(r is None for r in roots) / len(roots) if roots else 0.0)
    metrics["cli.output_bytes"] = float(sum(
        len(o["out"].encode()) for job, o in zip(jobs, report["outcomes"])
        if job["kind"] == "cli" and "out" in o))
    metrics["trace.overhead_s"] = sum(report["times"]) - sum(plain["times"])
    lines.append(f"spans: {spans.relative_to(checkout.root)} ({len(jobs)} jobs, 1 traced pass)")
    return metrics, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one sobhyp benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every job (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    checkout = Checkout(Path.cwd())
    if not checkout.present():
        print(f"error: no sobhyp sources under {checkout.src}; run from a checkout root",
              file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    jobs = workloads.build(args.workload, args.seed, size)
    golden = load_golden(args.workload, args.seed, size)
    tag = f"{args.workload}-seed{args.seed}"
    lines = [f"workload: {args.workload}  seed: {args.seed}  size: {size}  trace: {args.trace}"]
    if args.trace:
        metrics, reasons = traced(checkout, jobs, golden, tag, lines)
        units = PER_LAYER
    else:
        metrics, reasons = end_to_end(checkout, jobs, golden, args.seconds, lines)
        units = END_TO_END
    if not metrics:
        print("error: no workload pass completed", file=sys.stderr)
        return 1

    attempted, failed, correct, failures = tally(jobs, reasons)
    for name in units:
        lines.append(f"{name}: {metrics[name]:.6g} {units[name]}")
    lines.append(f"fail_ratio: {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")
    for job_id, reason in sorted(failures.items()):
        lines.append(f"failed: {job_id}: {reason}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    checkout.out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "size": size, "trace": args.trace,
              "fail_ratio": failed / attempted, "failures": failures, **result}
    (checkout.out_dir / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
