"""Run every workload over several seeds and print each metric by name and unit.

    python3 bench/suite.py [--workloads path_deep,csv_wide,semisynth]
                           [--seeds 0,1] [--seconds N] [--trace 0|1] [--out runs.jsonl]

Each (workload, seed) runs ``bench/run.py`` in its own process, one after
another, so peak memory is that of one workload. The full records are
appended to ``--out`` for ``bench/compare.py``. The table gives, per
workload and metric, the median, the quartiles and the spread (interquartile
range over median) of the runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import quartiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append full records to this file")
    args = parser.parse_args(argv)

    records = []
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            record = run_one(workload, seed, args.seconds, args.trace)
            records.append(record)
            print(f"{workload} seed={seed}: {record['attempted']} ops, "
                  f"{record['failed']} failed", flush=True)
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(record) + "\n")

    failed = False
    for workload in args.workloads.split(","):
        runs = [r for r in records if r["workload"] == workload]
        failed = failed or any(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} ops failed")
        for name, entry in runs[0]["metrics"].items():
            q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
            spread = (q3 - q1) / abs(median) if median else 0.0
            print(f"  {name:<42} {median:>12.6g} {entry['unit']:<6} "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
