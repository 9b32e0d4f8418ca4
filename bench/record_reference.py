"""Record the default-seed reference outputs the benchmark checks against.

    python3 bench/record_reference.py [workload ...]

Runs each workload's ops at the default seed (one op when every op sees the
same input, ``SEMISYNTH_OPS`` replicates otherwise), checks their invariants
and writes ``bench/reference/<workload>.json``. Record from a commit whose
outputs are trusted; later commits are compared with it.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets the BLAS thread pins before numpy is imported

SEMISYNTH_OPS = 200


def record(name: str) -> None:
    run.import_hdte()
    from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS

    workdir = run.WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](DEFAULT_SEED, workdir)
    workload.setup()
    ops = []
    for k in range(1 if workload.same_input_every_op else SEMISYNTH_OPS):
        result = workload.op(k)
        summary = workload.summary(k, result)
        problems = workload.invariants(k, result, summary)
        if problems:
            sys.exit(f"{name} op {k} fails its invariants: {problems}")
        ops.append(summary)
    shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{name}.json", "w") as handle:
        json.dump({"workload": name, "seed": DEFAULT_SEED,
                   "env": run.environment(DEFAULT_SEED), "ops": ops}, handle)
        handle.write("\n")
    print(f"{name}: {len(ops)} ops recorded")


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or ("path_deep", "csv_wide", "semisynth"):
        record(workload_name)
