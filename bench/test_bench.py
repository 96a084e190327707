"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest bench/test_bench.py -q

They run each workload at the tiny size, so they take seconds, and they do
not belong to the library's own suite under ``tests/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                      "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert f"{name}: {value:.6g} {unit}" in lines
    assert any(line.startswith("fail_ratio: ") and line.endswith(" attempted)") for line in lines)
    assert "seed: 3" in lines[0]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_output_counts_as_failed():
    checkout = run.Checkout(ROOT)
    jobs = workloads.build("identity-sweep", 3, "tiny")
    report = checkout.run_pass(jobs)
    assert run.judge(jobs, report, {}) == [None] * len(jobs)
    victim = next(i for i, job in enumerate(jobs) if job.get("check") == "ode3")
    out = report["outcomes"][victim]["out"]
    report["outcomes"][victim]["out"] = out.replace('"0"', '"1/7"', 1)
    reasons = run.judge(jobs, report, {})
    assert reasons[victim] is not None
    attempted, failed, correct, failures = run.tally(jobs, [reasons])
    assert (attempted, failed, correct) == (len(jobs), 1, False)
    assert list(failures) == [jobs[victim]["id"]]


def test_failed_roots_jobs_count_but_keep_the_run_correct():
    job = {"id": "roots", "kind": "cli", "check": "roots", "family": "scriptL",
           "params": ["1", "1"], "n": 2}
    nan_doc = {"command": "table roots", "params": {}, "pass": True,
               "results": {"rows": [[0, float("nan"), 0.0], [1, float("nan"), 0.0]],
                           "residual_bound": float("nan"), "iterations": 1}}
    outcome = {"rc": 0, "out": json.dumps(nan_doc), "err": ""}
    reason = checks.check(job, outcome)
    assert reason == "non-finite roots"
    assert run.tally([job], [[reason]])[:3] == (1, 1, True)
    # The roots 2 -+ sqrt(2) of 1 - 2x + x^2/2 (scriptL(1, 1), n = 2) pass.
    good = dict(nan_doc, results={"rows": [[0, 2 - 2**0.5, 0.0], [1, 2 + 2**0.5, 0.0]],
                                  "residual_bound": 1e-15, "iterations": 5})
    assert checks.member_coeffs("scriptL", ["1", "1"], 2) == [1, -2, Fraction(1, 2)]
    assert checks.check(job, {"rc": 0, "out": json.dumps(good), "err": ""}) is None


def test_each_job_counts_once_whatever_the_number_of_passes():
    jobs = [{"id": "a", "check": "ode3"}, {"id": "b", "check": "roots"}]
    one_pass = [None, "non-finite roots"]
    assert run.tally(jobs, [one_pass])[:3] == (2, 1, True)
    assert run.tally(jobs, [one_pass] * 5)[:3] == (2, 1, True)
    # A job that fails on any pass fails.
    assert run.tally(jobs, [one_pass, ["wrong output", None]])[:3] == (2, 2, False)


def test_uncaught_exception_and_exit_codes_fail_the_job():
    job = {"id": "x", "kind": "cli", "check": "ode3", "nmax": 0}
    assert checks.check(job, {"exception": "ZeroDivisionError: x"}).startswith("uncaught")
    assert checks.check(job, {"rc": 1, "out": "", "err": "error: no"}).startswith("exit code 1")
    doc = {"pass": True, "results": {"rows": [[0, "0", True]]}}
    ok = {"rc": 0, "out": json.dumps(doc), "err": ""}
    assert checks.check(job, ok) is None
    assert checks.check(job, ok, golden=checks.digest("something else")) is not None


def test_seeded_generator_is_deterministic_and_valid():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)
    roots = {seed: [job["id"] for job in workloads.build("float-crosscheck", seed)
                    if job.get("check") == "roots"] for seed in (0, 7, 8)}
    assert roots[0] == roots[7] == roots[8] and len(roots[0]) == 3 * 23
    default = [job["id"] for job in workloads.build("ortho-deep", workloads.DEFAULT_SEED)]
    assert default == [
        "verify orthogonality --family scriptL --q 1/2 --r 3 --nmax 32 --format json",
        "verify orthogonality --family boldP --a 1 --b 2 --cs 2,3 --nmax 32 --format json",
    ]
    for seed in range(20):
        for job in workloads.build("identity-sweep", seed):
            if job["kind"] == "generate_p":
                a, b, _c = (Fraction(p) for p in job["params"])
                assert a + b not in (1, 2)
            elif job.get("check") == "pencil":
                orders = job["params"][1:] if job["family"] in ("scriptL", "boldL") else job["params"][2:]
                assert all(Fraction(r).denominator == 1 and Fraction(r) >= 1 for r in orders)


def test_golden_digests_cover_the_default_exact_jobs():
    golden = json.loads((BENCH / "golden.json").read_text())
    for name in workloads.WORKLOADS:
        exact = {job["id"] for job in workloads.build(name, workloads.DEFAULT_SEED)
                 if job["kind"] == "cli" and job["check"] in checks.EXACT_CHECKS}
        assert set(golden[name]) == exact


def test_no_sources_means_nonzero_exit_and_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "ortho-deep", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
