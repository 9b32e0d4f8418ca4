"""Compare two sets of benchmark runs: the parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds full run records, one JSON object per line, as written by
``bench/suite.py --out``. Per workload and end-to-end metric the table gives
each side's median and quartiles, the share of pairs the change won, and a
verdict by this rule, with the bounds of ``BENCHMARK.json``:

- improved: the change wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ, in the better direction, by more than the
  parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  bound (a share of the parent's median);
- unresolved: the parent's own spread (interquartile range over median) is
  wider than the bound and the change is neither improved nor better in
  every run than every parent run;
- no worse: otherwise.

Runs pair up by workload seed, or in run order when the two sides share no
seed; unpaired runs count toward the quartiles only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_records(path) -> list[dict]:
    """Full run records from a file of JSON lines; other lines are skipped."""
    records = []
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "workload" in record:
            records.append(record)
    return records


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (p_med - c_med)   # positive when the change is better
    if pairs and win_share >= 0.9 and gain > p_q3 - p_q1:
        return "improved", win_share
    every_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if (p_q3 - p_q1) / abs(p_med) > bound and not every_run_better:
        return "unresolved", win_share
    if -gain > bound * abs(p_med):
        return "worse", win_share
    return "no worse", win_share


def compare(parent_records: list[dict], change_records: list[dict], spec: dict) -> list[dict]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        side_p = [r for r in parent_records if r["workload"] == workload and not r["trace"]]
        side_c = [r for r in change_records if r["workload"] == workload and not r["trace"]]
        if not side_p or not side_c:
            continue
        by_seed_c = {r["seed"]: r for r in side_c}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in side_p]
            change = [r["metrics"][name]["value"] for r in side_c]
            pairs = [(r["metrics"][name]["value"], by_seed_c[r["seed"]]["metrics"][name]["value"])
                     for r in side_p if r["seed"] in by_seed_c] or list(zip(parent, change))
            label, win_share = verdict(parent, change, pairs, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": quartiles(parent), "change": quartiles(change),
                "pairs": len(pairs), "won": win_share, "verdict": label,
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(read_records(argv[0]), read_records(argv[1]), spec)
    if not rows:
        sys.exit("no workload has untraced runs on both sides")
    print(f"{'workload':<10} {'metric':<12} {'unit':<5} {'parent q1/med/q3':<30} "
          f"{'change q1/med/q3':<30} {'pairs':>5} {'won':>5}  verdict")
    for row in rows:
        p = "/".join(f"{v:.4g}" for v in row["parent"])
        c = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{row['workload']:<10} {row['metric']:<12} {row['unit']:<5} {p:<30} {c:<30} "
              f"{row['pairs']:>5} {row['won']:>5.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
