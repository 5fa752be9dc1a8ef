"""Compare two drombench result sets under the bounds in ``BENCHMARK.json``.

    python3 benchmarks/drombench/compare.py A.json B.json

``A`` is the parent (or earlier) set and ``B`` the change, both written by
``run.py --out``.  Every (end-to-end metric, workload) pair present in both
gets one verdict:

* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``improved`` -- better by more than the bound;
* ``unchanged`` -- within the bound;
* ``unresolved`` -- the spread between one set's own repeats (interquartile
  range over median) is wider than the bound, so the sets cannot tell a
  change from noise -- unless every repeat of B reads better than every
  repeat of A.

Exits with 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(samples: list[float]) -> float:
    """Interquartile range over median (0 for fewer than two samples)."""
    if len(samples) < 2:
        return 0.0
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(metric: dict, a: dict, b: dict) -> tuple[str, float]:
    """The verdict and B's signed worsening relative to A's median."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = a["value"]
    worse = sign * (b["value"] - base) / abs(base) if base else 0.0
    bound = metric["bound"]
    if max(spread(a["samples"]), spread(b["samples"])) > bound:
        if all(sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]):
            return "improved", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def compare(a: dict, b: dict, benchmark: dict) -> list[tuple[str, str, str, float, float, float]]:
    """(workload, metric, verdict, A median, B median, worsening) rows."""
    rows = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            left = a["workloads"][workload]["metrics"].get(name)
            right = b["workloads"][workload]["metrics"].get(name)
            if left is None or right is None:
                continue
            result, worse = verdict(metric, left, right)
            rows.append((workload, name, result, left["value"], right["value"], worse))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two drombench result sets.")
    parser.add_argument("a", type=Path, help="parent (earlier) result set")
    parser.add_argument("b", type=Path, help="changed (later) result set")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()), benchmark)
    print(f"{'workload':<14} {'metric':<22} {'A':>14} {'B':>14} {'worse':>8}  verdict")
    for workload, name, result, left, right, worse in rows:
        print(f"{workload:<14} {name:<22} {left:>14.4f} {right:>14.4f} {worse:>+8.1%}  {result}")
    return 1 if any(row[2] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
