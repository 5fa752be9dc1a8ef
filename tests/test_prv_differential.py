"""Differential test of the one-pass ``.prv`` renderer against the sort-based
one it replaced.

:func:`reference_prv_text` is the earlier renderer, kept here as the
oracle: it collects every record as ``(µs, class, recording sequence, line)``
and sorts them all.  :func:`repro.results.sinks.prv_text` emits the records
from one walk of the runs' ``step_index`` instead; both must produce the
same bytes for any tracer.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import RunSpec, SyntheticWorkloadRef, execute_run
from repro.metrics.paraver import ParaverView
from repro.metrics.tracing import MaskChangeRecord, StepRun, Tracer
from repro.results import sinks
from repro.results.sinks import (
    EV_STEP_IPC_MILLI,
    EV_STEP_PHASE,
    EV_THREAD_COUNT,
    STATE_RUNNING,
    _layout,
    _us,
    prv_chunks,
    prv_text,
)
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM, SERIAL
from step_oracle import canonical_steps


def reference_prv_text(tracer: Tracer) -> str:
    """The ``.prv`` rendering built as one list of records and one sort."""
    view = ParaverView(tracer) if len(tracer) else None
    ftime = _us(view.horizon()) if view is not None else 0

    jobs = tracer.jobs()
    layout = _layout(tracer)
    appl = {job: i + 1 for i, job in enumerate(jobs)}
    nodes = layout.nodes
    cpu = {node: i + 1 for i, node in enumerate(nodes)}
    rank_cpu = {rank: cpu[node] for rank, node in layout.rank_node.items()}
    phases = layout.phases
    phase_id = {name: i + 1 for i, name in enumerate(phases)}

    appl_list = []
    for job in jobs:
        widths = layout.widths[job]
        appl_list.append(
            f"{len(widths)}({','.join(f'{t}:{r + 1}' for r, t in widths.items())})"
        )
    header = (
        "#Paraver (01/01/2000 at 00:00)"
        f":{ftime}_us:{max(len(nodes), 1)}({','.join('1' for _ in nodes) or '1'})"
        f":{len(jobs)}:{':'.join(appl_list)}"
    )

    records: list[tuple[int, int, int, str]] = []
    for step in canonical_steps(tracer):
        for thread in range(step.nthreads):
            records.append(
                (
                    _us(step.start),
                    0,
                    len(records),
                    f"{STATE_RUNNING}:{cpu[step.node]}:{appl[step.job]}"
                    f":{step.rank + 1}:{thread + 1}"
                    f":{_us(step.start)}:{_us(step.end)}:{STATE_RUNNING}",
                )
            )
        records.append(
            (
                _us(step.start),
                1,
                len(records),
                f"2:{cpu[step.node]}:{appl[step.job]}:{step.rank + 1}:1"
                f":{_us(step.start)}"
                f":{EV_STEP_IPC_MILLI}:{int(round(step.ipc * 1000))}"
                f":{EV_STEP_PHASE}:{phase_id[step.phase]}",
            )
        )
    for change in tracer.mask_changes():
        job_appl = appl.get(change.job)
        if job_appl is None:
            continue
        records.append(
            (
                _us(change.time),
                2,
                len(records),
                f"2:{rank_cpu.get((change.job, change.rank), 1)}"
                f":{job_appl}:{change.rank + 1}:1:{_us(change.time)}"
                f":{EV_THREAD_COUNT}:{change.new_threads}",
            )
        )
    records.sort(key=lambda r: (r[0], r[1], r[2]))

    lines = [header]
    for name in phases:
        lines.append(f"# phase {phase_id[name]} {name}")
    lines.extend(line for _t, _c, _s, line in records)
    return "\n".join(lines) + "\n"


def assert_renders_like_reference(tracer: Tracer) -> None:
    chunks = list(prv_chunks(tracer))
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert "".join(chunks) == prv_text(tracer) == reference_prv_text(tracer)


# -- generated tracers -----------------------------------------------------------------

#: Instants a few hundred ns apart, so steps and mask changes share a µs
#: instant without sharing a start, and some round to the next µs.
INSTANTS = [0.0, 1e-7, 4e-7, 5e-7, 6e-7, 1e-6, 1.0000004, 1.0000006, 2.5, 3.0]

times = st.one_of(
    st.sampled_from(INSTANTS),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False),
)
durations = st.one_of(
    st.sampled_from([0.0, 1e-7, 4e-7, 5e-7, 1e-6, 0.25]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def step_runs(draw) -> StepRun:
    # A team of none renders an event but no state line.
    nthreads = draw(st.integers(min_value=0, max_value=3))
    job = draw(st.sampled_from(["a", "b", "c"]))
    rank = draw(st.integers(min_value=0, max_value=2))
    return StepRun(
        job=job,
        rank=rank,
        # Ranks never migrate: one node per (job, rank), two nodes in all.
        node=f"n{(ord(job) + rank) % 2}",
        start=draw(times),
        duration=draw(durations),
        phase=draw(st.sampled_from(["compute", "io"])),
        nthreads=nthreads,
        thread_utilisation=(1.0,) * nthreads,
        ipc=draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False)),
        work_units=1.0,
        count=draw(st.integers(min_value=1, max_value=3)),
    )


@st.composite
def tracers(draw) -> Tracer:
    """A tracer recorded in arbitrary order: steps of several jobs and ranks
    (often at one start), and mask changes at step instants or anywhere,
    some for a job that has no steps."""
    tracer = Tracer()
    runs = draw(st.lists(step_runs(), max_size=8))
    # Record one run per call, in drawn (not time) order.
    for run in runs:
        tracer.record_steps([run])
    steps = canonical_steps(tracer)
    step_times = sorted({step.start for step in steps} | {step.end for step in steps})
    mask_times = st.sampled_from(step_times) | times if step_times else times
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        tracer.record_mask_change(
            MaskChangeRecord(
                job=draw(st.sampled_from(["a", "b", "c", "ghost"])),
                rank=draw(st.integers(min_value=0, max_value=3)),
                time=draw(mask_times),
                old_threads=draw(st.integers(min_value=1, max_value=4)),
                new_threads=draw(st.integers(min_value=1, max_value=4)),
            )
        )
    return tracer


@settings(
    max_examples=max(300, settings.default.max_examples // 4),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(tracers())
def test_generated_tracers_render_like_the_reference(tracer):
    assert_renders_like_reference(tracer)


def test_empty_tracer():
    assert_renders_like_reference(Tracer())


def test_mask_change_of_a_job_without_steps():
    tracer = Tracer()
    tracer.record_steps(
        [StepRun("a", 0, "n0", 1.0, 0.5, "compute", 2, (1.0, 1.0), 1.2, 1.0, 2)]
    )
    for job, time in (("ghost", 0.5), ("a", 1.5), ("ghost", 1.5), ("a", 1.0)):
        tracer.record_mask_change(MaskChangeRecord(job, 0, time, 2, 1))
    text = prv_text(tracer)
    assert text.count(f":{EV_THREAD_COUNT}:") == 2
    assert_renders_like_reference(tracer)


def test_state_of_a_later_sub_us_step_precedes_an_earlier_steps_event():
    # Both steps start at 1 µs once rounded, so the state line of the later
    # one (b, starting 1.4 µs) comes before the step event of the earlier
    # one (a, starting 0.6 µs); a mask change at 0.7 µs follows both, and
    # one at 1.6 µs rounds to the next instant.
    tracer = Tracer()
    tracer.record_steps(
        [
            StepRun("b", 0, "n1", 1.4e-6, 1e-6, "io", 1, (1.0,), 0.5, 1.0, 1),
            StepRun("a", 0, "n0", 6e-7, 2e-6, "compute", 1, (1.0,), 1.25, 1.0, 1),
        ]
    )
    tracer.record_mask_change(MaskChangeRecord("b", 0, 1.6e-6, 1, 2))
    tracer.record_mask_change(MaskChangeRecord("a", 0, 7e-7, 2, 1))
    assert prv_text(tracer) == (
        "#Paraver (01/01/2000 at 00:00):3_us:2(1,1):2:1(1:1):1(1:1)\n"
        "# phase 1 compute\n"
        "# phase 2 io\n"
        "1:1:1:1:1:1:3:1\n"
        "1:2:2:1:1:1:2:1\n"
        f"2:1:1:1:1:1:{EV_STEP_IPC_MILLI}:1250:{EV_STEP_PHASE}:1\n"
        f"2:2:2:1:1:1:{EV_STEP_IPC_MILLI}:500:{EV_STEP_PHASE}:2\n"
        f"2:1:1:1:1:1:{EV_THREAD_COUNT}:1\n"
        f"2:2:2:1:1:2:{EV_THREAD_COUNT}:2\n"
    )
    assert_renders_like_reference(tracer)


# -- generated cells ---------------------------------------------------------------------

CELL = WorkloadSpec(njobs=3, mean_interarrival=60.0, work_scale=0.03, iterations=10)


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "reference-loop"])
@pytest.mark.parametrize("scenario", [SERIAL, DROM])
@pytest.mark.parametrize("seed", [0, 1])
def test_generated_cells_render_like_the_reference(seed, scenario, batching):
    run = RunSpec(
        index=0, scenario=scenario, workload=SyntheticWorkloadRef(spec=CELL, seed=seed)
    )
    tracer = execute_run(run, trace=True, batching=batching).tracer
    assert len(tracer)
    if scenario == DROM:
        assert tracer.mask_changes(), "a DROM cell should change masks"
    assert_renders_like_reference(tracer)


def test_each_step_rounds_its_start_and_end_once(monkeypatch):
    run = RunSpec(
        index=0, scenario=DROM, workload=SyntheticWorkloadRef(spec=CELL, seed=0)
    )
    tracer = execute_run(run, trace=True).tracer
    calls = []

    def counted(t: float) -> int:
        calls.append(t)
        return _us(t)

    monkeypatch.setattr(sinks, "_us", counted)
    prv_text(tracer)
    # Twice per step, once per mask change, once for the horizon.
    assert len(calls) <= 2 * len(tracer) + len(tracer.mask_changes()) + 1
