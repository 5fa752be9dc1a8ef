"""Self-test of the drombench harness (not collected by the tier-1 suite).

    python -m pytest benchmarks/drombench/bench_selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared() -> dict:
    return run.load_benchmark()


@pytest.fixture
def scratch():
    path = run.RESULTS / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _last_line(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=170,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_name_is_well_formed(declared):
    groups = [declared["workloads"], declared["end_to_end"], declared["per_layer"]]
    names = [entry["name"] for group in groups for entry in group]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
    for entry in declared["end_to_end"]:
        assert 0 <= entry["bound"] <= 0.25, entry
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        entry for entry in declared["end_to_end"] if entry["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_equal_declared(declared, scratch, trace, group):
    line = _last_line(
        "--workload", "paper-grid", "--seed", "1", "--seconds", "1",
        "--trace", trace, "--out", str(scratch / "out.json"),
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {entry["name"] for entry in declared[group]}


def test_mutated_golden_digest_raises_failed_frac(declared):
    repeat = run.run_repeat("paper-grid", 1)
    golden = {key: sha for key, (sha, _) in repeat["digests"].items()}
    committed = json.loads(run.GOLDEN.read_text())["1"]["paper-grid"]
    assert committed == golden
    clean = run.summarise([repeat], [], [], declared, golden)
    assert clean["failed_frac"] == 0 and clean["correct"]
    mutated = {key: "0" * 64 for key in golden}
    broken = run.summarise([repeat], [], [], declared, mutated)
    assert broken["failed_frac"] > 0 and not broken["correct"]


def test_traced_run_restores_wrapped_functions(scratch):
    import layers
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec, InSituWorkloadRef
    from repro.results import sinks
    from repro.results.store import ResultStore
    from repro.traces.query import TraceReader
    from repro.traces.store import TraceStore

    trace = layers.LayerTrace()
    targets = [(owner, name) for owner, name, _ in trace.wrappers()]

    def current():
        return [
            vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            for owner, name in targets
        ]

    before = current()
    spec = CampaignSpec("selftest", workloads=(InSituWorkloadRef(),))
    with trace, trace.telemetry.span("timed") as root:
        store, traces = ResultStore(scratch / "m"), TraceStore(scratch / "t")
        result = run_campaign(spec, store=store, trace_store=traces)
        entry = TraceStore(scratch / "t").get(result.rows[0].run)
        TraceReader(entry).job_intervals()
        sinks.prv_text(entry.tracer)
    assert all(a is b for a, b in zip(current(), before))
    seen = {span.name for span in root.walk()}
    assert {"campaign.execute_run", "workload.runner.run", "traces.store.put",
            "traces.store.inflate", "traces.query.job_intervals",
            "results.sinks.prv_text"} <= seen
    assert layers.layer_metrics(root)["apps.step_times_calls"] > 0


def test_warm_figures_executes_no_cell():
    repeat = run.run_repeat("warm-figures", 1, traced=True)
    assert repeat["executed"] == 0
    assert repeat["per_layer"]["campaign.executed"] == 0
    assert repeat["failed"] == 0 and repeat["attempted"] >= 100
