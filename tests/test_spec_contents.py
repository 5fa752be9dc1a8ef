"""Differential test of the canonical spec serialisation.

:func:`reference_contents` is the earlier :func:`spec_contents`, kept here as
the oracle: it serialises the spec dataclasses with ``dataclasses.asdict``.
The program walks the frozen dataclasses without asdict's deep copy; both
must give equal contents, the same content key and the same entry bytes, for
the drombench grids and for drawn specs.  A store write summarises the spec
in hand, and an index rebuild summarises the stored contents; the two
summaries must agree too.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign.runner import RunMetrics
from repro.campaign.spec import (
    NODE_POLICY_NAMES,
    POLICY_REGISTRY,
    ClusterRef,
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    PolicyRef,
    RunSpec,
    SchedulerRef,
    SyntheticWorkloadRef,
)
from repro.results import ResultStore, content_key, spec_contents, spec_from_contents
from repro.traces.store import _summarise_header, _summary
from repro.workload.generator import (
    _BASE_WORK,
    BURSTY,
    POISSON,
    UNIFORM,
    AppMixEntry,
    SizeMixEntry,
    WorkloadSpec,
)
from repro.workload.runner import DROM, SERIAL

DROMBENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "drombench"


def reference_contents(run: RunSpec) -> dict:
    """The canonical contents as ``dataclasses.asdict`` builds them."""
    workload = asdict(run.workload)
    workload["type"] = type(run.workload).__name__
    return {
        "scenario": run.scenario,
        "workload": workload,
        "cluster": asdict(run.cluster),
        "policy": run.policy.name if run.policy is not None else None,
        "scheduler": asdict(run.scheduler),
        "interference_factor": run.interference_factor,
    }


def reference_key(run: RunSpec) -> str:
    payload = json.dumps(reference_contents(run), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reference_summary(contents: dict, metrics: dict) -> dict:
    """The metrics tier's ``ls`` fields as the stored contents give them."""
    run = spec_from_contents(contents)
    return {
        "scenario": contents["scenario"],
        "workload": run.workload.label,
        "cluster": run.cluster.label,
        "policy": contents["policy"] or "default",
        "scheduler": run.scheduler.label,
        "total_run_time": metrics["total_run_time"],
        "average_response_time": metrics["average_response_time"],
    }


def assert_same_serialisation(run: RunSpec) -> None:
    assert spec_contents(run) == reference_contents(run)
    # The key hashes the JSON text, so it also pins int/float leaf types.
    assert content_key(run) == reference_key(run)


def _drombench_runs(seed: int) -> list[RunSpec]:
    """Every cold drombench cell of ``seed`` (the grids are built, not run)."""
    module_spec = importlib.util.spec_from_file_location(
        "_drombench_workloads", DROMBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(module_spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[module_spec.name] = module
    try:
        module_spec.loader.exec_module(module)
    finally:
        del sys.modules[module_spec.name]
    states = [
        build(seed, Path("unused"))
        for build in (module.paper_grid, module.drom_scale, module.traced_synth)
    ]
    return [run for state in states for spec in state.specs for run in spec.expand()]


@pytest.mark.parametrize("seed", [1, 2])
def test_drombench_specs_serialise_like_asdict(seed):
    runs = _drombench_runs(seed)
    assert len(runs) == 1210
    for run in runs:
        assert_same_serialisation(run)


# -- drawn specs ----------------------------------------------------------------------

_finite = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
_app_configs = [
    (app, config) for app, configs in sorted(_BASE_WORK.items()) for config in sorted(configs)
]
_app_mix = st.lists(
    st.builds(
        lambda pair, weight: AppMixEntry(*pair, weight=weight),
        st.sampled_from(_app_configs),
        _weights,
    ),
    min_size=1,
    max_size=4,
).map(tuple)


@st.composite
def _size_mix(draw):
    nodes = draw(st.integers(1, 8))
    return SizeMixEntry(
        nodes=nodes,
        weight=draw(_weights),
        min_nodes=draw(st.none() | st.integers(1, nodes)),
        max_nodes=draw(st.none() | st.integers(nodes, 16)),
    )


_workload_specs = st.builds(
    WorkloadSpec,
    njobs=st.integers(1, 200),
    arrival=st.sampled_from([POISSON, UNIFORM, BURSTY]),
    mean_interarrival=_finite,
    app_mix=_app_mix,
    priority_levels=st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple),
    nodes=st.integers(1, 8),
    work_scale=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    iterations=st.none() | st.integers(1, 5000),
    name=st.text(max_size=12),
    size_mix=st.lists(_size_mix(), max_size=3).map(tuple),
    burst_size=st.integers(1, 8),
)

_workloads = st.one_of(
    st.builds(SyntheticWorkloadRef, spec=_workload_specs, seed=st.integers(0, 2**32)),
    st.builds(
        InSituWorkloadRef,
        simulator=st.sampled_from(["NEST", "CoreNeuron"]),
        analytics=st.sampled_from(["Pils", "STREAM"]),
        analytics_submit=_finite,
        simulator_kwargs=st.sampled_from(
            [(), (("malleable", False),), (("chunks_per_thread", 0),)]
        ),
        analytics_nodes=st.none() | st.integers(1, 4),
    ),
    st.builds(HighPriorityWorkloadRef, second_submit=_finite),
)

_clusters = st.builds(
    ClusterRef,
    nnodes=st.integers(1, 64),
    kind=st.sampled_from(["mn3", "uniform"]),
    sockets=st.integers(1, 4),
    cores_per_socket=st.integers(1, 32),
)

_schedulers = st.builds(
    SchedulerRef,
    backfill=st.booleans(),
    node_policy=st.none() | st.sampled_from(sorted(NODE_POLICY_NAMES)),
)

_runs = st.builds(
    RunSpec,
    index=st.integers(0, 10_000),
    scenario=st.sampled_from([SERIAL, DROM]),
    workload=_workloads,
    cluster=_clusters,
    policy=st.none() | st.sampled_from(sorted(POLICY_REGISTRY)).map(PolicyRef),
    interference_factor=st.none()
    | st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
    scheduler=_schedulers,
)


@settings(max_examples=200, deadline=None)
@given(run=_runs)
def test_drawn_specs_serialise_like_asdict(run):
    assert_same_serialisation(run)
    rebuilt = spec_from_contents(spec_contents(run), index=run.index)
    assert rebuilt == run


def _row(run: RunSpec) -> RunMetrics:
    return RunMetrics(
        run=run,
        workload_name="w",
        total_run_time=12.5,
        average_response_time=3.25,
        makespan_end=40.0,
        response_times=(("a", 1.5),),
        wait_times=(("a", 0.0),),
        run_times=(("a", 1.5),),
        job_utilisation=(("a", 0.75),),
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(run=_runs)
def test_put_summary_matches_index_rebuild(run, tmp_path_factory):
    """The summary a put journals from the spec in hand equals the one
    the stored contents give, which an index rebuild derives again, and
    the entry carries the reference contents and key."""
    store = ResultStore(tmp_path_factory.mktemp("store"))
    path = store.put(_row(run))
    key = reference_key(run)
    assert path == store.path_for(key)
    payload = json.loads(path.read_text())
    assert payload["key"] == key
    assert payload["run"] == json.loads(json.dumps(reference_contents(run)))
    written = store.index.live_entries()[key].summary
    assert written == reference_summary(payload["run"], payload["metrics"])
    store.index.path.unlink()
    assert ResultStore(store.root).index.live_entries()[key].summary == written

    header = {
        "run": payload["run"],
        "scenario": run.scenario,
        "nsteps": 3,
        "nmask_changes": 1,
        "end_time": 40.0,
    }
    assert _summary(run, header) == _summarise_header(header) == {
        "scenario": run.scenario,
        "workload": spec_from_contents(header["run"]).workload.label,
        "nsteps": 3,
        "nmask_changes": 1,
        "end_time": 40.0,
    }
