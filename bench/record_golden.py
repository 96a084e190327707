"""Record the golden stdout digests of the default seed's exact jobs.

Run from the root of a checkout, only when a change is meant to alter CLI
output (the north star keeps it byte-identical):

    python3 bench/record_golden.py

Each workload runs one cold pass at ``DEFAULT_SEED``.  A digest is recorded
only for a job that passes its semantic check, so a wrong output can never
become golden.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import workloads
from run import BENCH_DIR, Checkout


def main() -> int:
    checkout = Checkout(Path.cwd())
    if not checkout.present():
        print(f"error: no sobhyp sources under {checkout.src}", file=sys.stderr)
        return 2
    golden = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, workloads.DEFAULT_SEED)
        report = checkout.run_pass(jobs)
        if report is None:
            return 1
        golden[name] = {}
        for job, outcome in zip(jobs, report["outcomes"]):
            if job["kind"] != "cli" or job["check"] not in checks.EXACT_CHECKS:
                continue
            reason = checks.check(job, outcome)
            if reason is not None:
                print(f"error: {job['id']}: {reason}", file=sys.stderr)
                return 1
            golden[name][job["id"]] = checks.digest(outcome["out"])
        print(f"{name}: {len(golden[name])} digests")
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
