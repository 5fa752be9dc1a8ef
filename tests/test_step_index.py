"""The step index against ``ordered_steps``.

The renderers (``prv_text``, the binned Paraver timelines) walk
``step_index`` and read each step's other fields from its run, while the
views that return records expand through ``ordered_steps``.  Both must walk
the same steps in the same ``(start, job, rank)`` order, ties in recording
order, whatever runs are drawn: tied starts across jobs and ranks,
zero-duration steps, sub-µs starts and runs of one or more steps.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.metrics.tracing import StepRecord, StepRun, ordered_steps, step_index

#: Starts that tie across runs, some a few hundred ns apart.
STARTS = [0.0, 1e-7, 4e-7, 5e-7, 1e-6, 0.5, 1.0000004, 2.5]
DURATIONS = [0.0, 1e-7, 5e-7, 0.1, 0.25, 1 / 3]

starts = st.one_of(
    st.sampled_from(STARTS),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_infinity=False),
)
durations = st.one_of(
    st.sampled_from(DURATIONS),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def step_runs(draw) -> StepRun:
    nthreads = draw(st.integers(min_value=1, max_value=3))
    rank = draw(st.integers(min_value=0, max_value=2))
    return StepRun(
        job=draw(st.sampled_from(["a", "b", "c"])),
        rank=rank,
        node=f"n{rank % 2}",
        start=draw(starts),
        duration=draw(durations),
        phase=draw(st.sampled_from(["compute", "io"])),
        nthreads=nthreads,
        thread_utilisation=tuple(
            draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(nthreads)
        ),
        ipc=draw(st.sampled_from([0.5, 1.25])),
        work_units=1.0,
        count=draw(st.integers(min_value=1, max_value=4)),
    )


def expanded(runs: list[StepRun]) -> list[StepRecord]:
    """The records the index names: each step's start, its run's fields."""
    return [
        StepRecord(*runs[i][:3], start, *runs[i][4:10])
        for start, _job, _rank, i in step_index(runs)
    ]


@settings(max_examples=max(200, settings.default.max_examples // 4), deadline=None)
@given(st.lists(step_runs(), max_size=10))
def test_step_index_walks_ordered_steps(runs):
    index = step_index(runs)
    steps = ordered_steps(runs)
    assert len(index) == sum(run.count for run in runs)
    assert [entry[:3] for entry in index] == [(s.start, s.job, s.rank) for s in steps]
    # repr tells 0.0 from -0.0 and compares every float bit for bit.
    assert repr(expanded(runs)) == repr(steps)


def test_tied_starts_read_in_rank_then_recording_order():
    runs = [
        StepRun("a", 1, "n1", 0.0, 0.5, "p", 1, (1.0,), 1.0, 1.0, 2),
        StepRun("b", 0, "n0", 0.0, 0.0, "p", 1, (1.0,), 1.0, 1.0, 2),
        StepRun("a", 0, "n0", 0.0, 0.25, "p", 1, (1.0,), 1.0, 1.0, 2),
        StepRun("a", 1, "n1", 0.0, 0.0, "q", 1, (1.0,), 1.0, 1.0, 1),
    ]
    assert step_index(runs) == [
        (0.0, "a", 0, 2),
        (0.0, "a", 1, 0),
        (0.0, "a", 1, 3),
        (0.0, "b", 0, 1),
        (0.0, "b", 0, 1),
        (0.25, "a", 0, 2),
        (0.5, "a", 1, 0),
    ]
    assert repr(expanded(runs)) == repr(ordered_steps(runs))
