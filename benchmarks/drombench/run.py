"""drombench: end-to-end and per-layer benchmark of the DROM reproduction.

Runs one workload (or ``all``) for about ``--seconds`` seconds as a series of
repeats, each in a fresh process started after the previous one ended, and
reports every metric as the median over repeats.  Outputs are checked against
``golden.json`` (seeds 1 and 2), against the first repeat of the run, and,
in the first repeat, against an oracle (see ``workloads.py``).

    python3 benchmarks/drombench/run.py --workload NAME|all [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--out PATH] [--update-golden]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  The full result set
(per-repeat samples included) is written to ``--out``, by default under
``benchmarks/results/drombench/``; ``--trace 1`` also writes the span payload,
a Chrome trace and the self-time table there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = HERE / "golden.json"
RESULTS = ROOT / "benchmarks" / "results" / "drombench"

#: Untraced repeats per run at least (and traced/untraced pairs with --trace 1).
MIN_REPEATS = 2
MIN_TRACED_PAIRS = 1
MAX_REPEATS = 40
#: setup_s samples per untraced run at least; set-up-only repeats make up
#: for runs with few full repeats.
MIN_SETUPS = 3
#: A repeat that takes longer is killed and fails the run.
REPEAT_TIMEOUT_S = 150


class RepeatFailed(RuntimeError):
    """A repeat process exited abnormally (for instance: no program to run)."""


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def run_repeat(
    workload: str,
    seed: int,
    traced: bool = False,
    oracle: bool = False,
    artifacts: Path | None = None,
    setup_only: bool = False,
) -> dict:
    """One repeat in a fresh process; returns its result with ``setup_s``."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"repeat-{os.getpid()}.json"
    command = [
        sys.executable,
        str(HERE / "repeat.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--result", str(out),
    ]
    if traced:
        command.append("--traced")
    if oracle:
        command.append("--oracle")
    if artifacts is not None:
        command += ["--artifacts", str(artifacts)]
    if setup_only:
        command.append("--setup-only")
    # A fixed hash seed: two repeats of one input do the same work.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=sys.stderr, timeout=REPEAT_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RepeatFailed(f"{workload} repeat exited with code {proc.returncode}")
        result = json.loads(out.read_text())
    except subprocess.TimeoutExpired as exc:
        raise RepeatFailed(f"{workload} repeat ran over {REPEAT_TIMEOUT_S} s") from exc
    finally:
        out.unlink(missing_ok=True)
    result["setup_s"] = result["first_op"] - spawned
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool, artifacts: Path | None):
    """Repeats until ``seconds`` are spent (at least the minimum count).

    With ``traced``, each round is an untraced repeat followed by a traced
    one, so ``tracing_overhead`` compares neighbours on the same machine.
    Returns the untraced repeats, the traced ones, and set-up-only ones.
    """
    plain: list[dict] = []
    with_trace: list[dict] = []
    start = time.monotonic()
    minimum = MIN_TRACED_PAIRS if traced else MIN_REPEATS
    while True:
        plain.append(run_repeat(workload, seed, oracle=not plain))
        if traced:
            with_trace.append(
                run_repeat(
                    workload, seed, traced=True, artifacts=None if with_trace else artifacts
                )
            )
        rounds = len(plain)
        elapsed = time.monotonic() - start
        if rounds >= MAX_REPEATS or (
            rounds >= minimum and elapsed * (rounds + 1) / rounds > seconds
        ):
            break
    setups = []
    while not traced and len(plain) + len(setups) < MIN_SETUPS:
        setups.append(run_repeat(workload, seed, setup_only=True))
    return plain, with_trace, setups


def digest_failures(repeats: list[dict], golden: dict | None) -> int:
    """Operations whose output digest differs from the golden file, or, for
    a seed without golden digests, from the run's first repeat."""
    reference = golden
    if reference is None:
        reference = {key: sha for key, (sha, _) in repeats[0]["digests"].items()}
    failed = 0
    for repeat in repeats:
        digests = repeat["digests"]
        for key, (sha, ops) in digests.items():
            if reference.get(key) != sha:
                failed += max(ops, 1)
        failed += sum(1 for key in reference if key not in digests)
    return failed


def summarise(
    plain: list[dict], with_trace: list[dict], setups: list[dict], spec: dict, golden: dict | None
) -> dict:
    """One workload's result: medians over repeats, failures, checks."""
    repeats = plain + with_trace
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats) + digest_failures(repeats, golden)
    summary = {
        "repeats": len(plain),
        "traced_repeats": len(with_trace),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "checked": golden is not None,
        "correct": failed == 0 and attempted > 0,
        "query_samples": plain[0]["samples"],
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        if metric["name"] == "setup_s":
            samples = [r["setup_s"] for r in plain + setups]
        else:
            samples = [r["metrics"][metric["name"]] for r in plain]
        summary["metrics"][metric["name"]] = {
            "value": statistics.median(samples),
            "unit": metric["unit"],
            "samples": samples,
        }
    if with_trace:
        overhead = statistics.median(r["timed_s"] for r in with_trace) / statistics.median(
            r["timed_s"] for r in plain
        )
        per_layer = {}
        for metric in spec["per_layer"]:
            if metric["name"] == "tracing_overhead":
                samples = [overhead]
            else:
                samples = [r["per_layer"][metric["name"]] for r in with_trace]
            per_layer[metric["name"]] = {
                "value": statistics.median(samples),
                "unit": metric["unit"],
                "samples": samples,
            }
        summary["per_layer"] = per_layer
        summary["self_time"] = with_trace[0]["self_time"]
    return summary


def format_self_time(rows: list[dict]) -> str:
    lines = [f"{'layer':<36} {'calls':>8} {'total s':>10} {'self s':>10} {'self %':>7}"]
    for row in rows:
        lines.append(
            f"{row['layer']:<36} {row['calls']:>8} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {100 * row['self_share']:>6.1f}%"
        )
    return "\n".join(lines)


def report(name: str, seed: int, summary: dict, spec: dict) -> None:
    """The human-readable block of one workload."""
    checked = "golden digests checked" if summary["checked"] else "checked: false"
    print(
        f"== {name} (seed {seed}, {summary['repeats']} repeat(s), "
        f"{summary['query_samples']} operation sample(s) per repeat, {checked}) =="
    )
    for metric in spec["end_to_end"]:
        entry = summary["metrics"][metric["name"]]
        print(
            f"  {metric['name']:<22} {entry['value']:>14.4f} {metric['unit']:<8} "
            f"({metric['better']} is better, bound {metric['bound']:.0%})"
        )
    print(
        f"  {'failed_frac':<22} {summary['failed_frac']:>14.4f} ratio    "
        f"({summary['failed']} of {summary['attempted']} operations failed)"
    )
    if "per_layer" in summary:
        for metric in spec["per_layer"]:
            entry = summary["per_layer"][metric["name"]]
            print(f"  {metric['name']:<44} {entry['value']:>14.6f} {metric['unit']}")
        print(format_self_time(summary["self_time"]))


def main(argv: list[str] | None = None) -> int:
    spec = load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1, help="1 is the default, 2 the holdout")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", type=Path)
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="record this run's output digests as the golden ones for --seed",
    )
    args = parser.parse_args(argv)
    traced = args.traced or args.trace == 1
    selected = names if args.workload == "all" else [args.workload]
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = golden_all.setdefault(str(args.seed), {})
    stem = f"{args.workload}-seed{args.seed}{'-traced' if traced else ''}"

    summaries = {}
    try:
        for name in selected:
            artifacts = RESULTS / "traced" / f"{name}-seed{args.seed}" if traced else None
            plain, with_trace, setups = measure(name, args.seed, args.seconds, traced, artifacts)
            # Recording new digests checks the run against itself only.
            expected = None if args.update_golden else golden.get(name)
            summary = summarise(plain, with_trace, setups, spec, expected)
            summaries[name] = summary
            report(name, args.seed, summary, spec)
            if artifacts is not None:
                (artifacts / "self_time.txt").write_text(
                    format_self_time(summary["self_time"]) + "\n"
                )
            if args.update_golden:
                if summary["failed"]:
                    print(f"drombench: not recording failing digests of {name}", file=sys.stderr)
                    return 1
                golden[name] = {key: sha for key, (sha, _) in plain[0]["digests"].items()}
    except RepeatFailed as exc:
        print(f"drombench: {exc}", file=sys.stderr)
        return 1

    if args.update_golden:
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
    document = {
        "benchmark": "drombench",
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "workloads": summaries,
    }
    out = args.out or RESULTS / f"{stem}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"results: {out}")

    group = "per_layer" if traced else "metrics"
    metrics = {}
    for name, summary in summaries.items():
        for metric, entry in summary[group].items():
            key = metric if len(summaries) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    print(
        json.dumps(
            {
                "correct": all(s["correct"] for s in summaries.values()),
                "attempted": sum(s["attempted"] for s in summaries.values()),
                "failed": sum(s["failed"] for s in summaries.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
