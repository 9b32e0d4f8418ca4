"""Self-test: every workload at a reduced size, untraced and traced.

    python3 bench/selftest.py

Checks that each record names every metric of ``BENCHMARK.json`` with its
unit, that every op passes its output check, that the layers' self times
cover the traced op within the stated slack, that solver counts repeat
exactly between two traced runs at one seed, and that the reference
comparison notices a changed selection. Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import sys

import run  # sets the BLAS thread pins before numpy is imported

SECONDS = 0.5
COUNTS = ("wlasso.sweeps", "wlasso.sweeps_tail", "wlasso.grid_points",
          "wlasso.nonconverged", "wlasso.max_active", "wlasso.probe.fit_top_sweeps",
          "wlasso.probe.fit_mid_sweeps", "wlasso.probe.fit_bottom_sweeps")


def check_workload(name: str, spec: dict) -> list[str]:
    problems = []
    untraced = run.run(name, seed=0, seconds=SECONDS, trace=False, small=True)
    traced = run.run(name, seed=0, seconds=SECONDS, trace=True, small=True)
    again = run.run(name, seed=0, seconds=SECONDS, trace=True, small=True)
    for record, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in record["metrics"].items()}
        if got != want:
            problems.append(f"{key} metrics/units differ: missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}")
        if record["attempted"] < 1 or record["failed"]:
            problems.append(f"trace={record['trace']}: {record['failed']} of "
                            f"{record['attempted']} ops failed: {record['failures']}")
    unattributed = traced["metrics"]["bench.unattributed_frac"]["value"]
    if abs(unattributed) > run.SELF_TIME_SLACK:
        problems.append(f"layer self times leave {unattributed:.3%} of the traced op "
                        f"unattributed (slack {run.SELF_TIME_SLACK:.0%})")
    for count in COUNTS:
        first, second = traced["metrics"][count]["value"], again["metrics"][count]["value"]
        if first != second:
            problems.append(f"{count} differs between traced runs: {first} vs {second}")
    return problems


def check_reference_comparison() -> list[str]:
    from workloads import compare_summaries

    summary = {"exact": {"subsets": [[1, 2]]}, "approx": {"p": [0.25, 1e-30]}}
    problems = []
    if compare_summaries(summary, summary):
        problems.append("a summary differs from itself")
    changed = copy.deepcopy(summary)
    changed["exact"]["subsets"] = [[1, 3]]
    if not compare_summaries(changed, summary):
        problems.append("a changed subset went unnoticed")
    changed = copy.deepcopy(summary)
    changed["approx"]["p"][1] *= 1.001
    if not compare_summaries(changed, summary):
        problems.append("a p-value off by 1e-3 relative went unnoticed")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failed = False
    for name in (w["name"] for w in spec["workloads"]):
        problems = check_workload(name, spec)
        print(f"{name}: {'ok' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    problems = check_reference_comparison()
    print(f"reference comparison: {'ok' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
