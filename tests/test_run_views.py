"""Run-based tracer answers against the per-step walks they replace.

``Tracer.thread_utilisation`` and use case 1's shrunk-window utilisation
fold each of a rank's runs with ``repeat_add`` (``busy_fractions``).  Both
must give the very floats of a walk over the rank's expanded, canonically
ordered steps: on hand-built tracers with multi-run ranks, changing team
sizes and zero-duration steps, on generated ones, and on a real DROM run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.runner import execute_run
from repro.campaign.spec import InSituWorkloadRef, RunSpec
from repro.metrics.tracing import StepRun, Tracer, busy_fractions
from repro.workload.runner import DROM
from step_oracle import canonical_steps


def per_step_thread_utilisation(
    tracer: Tracer, job: str, rank: int, below: int | None = None
) -> dict:
    """The per-step walk: one addition per step, in canonical step order,
    over the steps run with fewer than ``below`` threads when given."""
    steps = canonical_steps(tracer, job, rank)
    if not steps:
        raise ValueError(f"no steps recorded for job {job!r} rank {rank}")
    if below is not None:
        steps = [step for step in steps if step.nthreads < below]
    busy: dict[int, float] = {}
    total: dict[int, float] = {}
    for step in steps:
        for thread, util in enumerate(step.thread_utilisation):
            busy[thread] = busy.get(thread, 0.0) + util * step.duration
            total[thread] = total.get(thread, 0.0) + step.duration
    return {t: busy[t] / total[t] for t in sorted(busy)}


def _outcome(call):
    """A query's answer with its floats as hex, or the exception it raised."""
    try:
        answer = call()
    except (ValueError, ZeroDivisionError) as error:
        return type(error)
    return {key: value.hex() for key, value in answer.items()}


def assert_matches_per_step(tracer: Tracer) -> None:
    for job, rank in sorted({(run.job, run.rank) for run in tracer.runs()}):
        assert _outcome(lambda: tracer.thread_utilisation(job, rank)) == _outcome(
            lambda: per_step_thread_utilisation(tracer, job, rank)
        ), (job, rank)
        # Use case 1's fold: the rank's runs with fewer threads than a team.
        for below in {run.nthreads for run in tracer.runs(job, rank)}:
            assert _outcome(
                lambda: busy_fractions(
                    run for run in tracer.runs(job, rank) if run.nthreads < below
                )
            ) == _outcome(lambda: per_step_thread_utilisation(tracer, job, rank, below)), (
                job, rank, below,
            )


def run(job, rank, start, duration, utilisation, count, node="n0") -> StepRun:
    return StepRun(
        job, rank, node, start, duration, "compute", len(utilisation), tuple(utilisation),
        1.0, 1.0, count,
    )


def chain(job, rank, start, pieces) -> list[StepRun]:
    """Consecutive runs of one rank, each starting where the last ended."""
    runs = []
    for duration, utilisation, count in pieces:
        runs.append(run(job, rank, start, duration, utilisation, count))
        start = runs[-1].end
    return runs


def test_multi_run_ranks_with_changing_teams_and_zero_durations():
    tracer = Tracer()
    sim0 = chain("sim", 0, 0.0, [
        (0.1, (1.0, 0.7, 1 / 3, 0.9), 7),
        (0.0, (1.0, 0.5), 5),
        (1 / 3, (1.0, 0.5), 11),
        (0.1, (0.25, 1.0, 0.6), 3),
    ])
    sim1 = chain("sim", 1, 0.05, [
        (0.0, (0.3,), 2),
        (2.5, (0.1, 0.2, 0.3), 4),
    ])
    ana = chain("ana", 0, 1.0, [(1e-3, (0.8, 0.8), 1000), (0.0, (0.8,), 1)])
    # Ranks interleave in recording order; each rank's own runs stay in order.
    for batch in ([sim0[0], ana[0]], [sim1[0]], [sim0[1], sim0[2], sim1[1]], [ana[1], sim0[3]]):
        tracer.record_steps(batch)
    assert_matches_per_step(tracer)


def test_zero_duration_rank_raises_like_the_walk():
    tracer = Tracer()
    tracer.record_steps(chain("j", 0, 4.0, [(0.0, (1.0, 1.0), 3)]))
    assert_matches_per_step(tracer)
    with pytest.raises(ZeroDivisionError):
        tracer.thread_utilisation("j", 0)
    with pytest.raises(ValueError):
        tracer.thread_utilisation("j", 1)


durations = st.sampled_from([0.0, 0.1, 1 / 3, 0.25, 2.5, 1e-3]) | st.floats(
    0.0, 10.0, allow_nan=False
)
utilisations = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.floats(0.0, 1.0, allow_nan=False)] * n)
)


@st.composite
def tracers(draw) -> Tracer:
    ranks = {}
    for job, rank in draw(
        st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 2)), min_size=1, unique=True)
    ):
        pieces = draw(
            st.lists(st.tuples(durations, utilisations, st.integers(1, 40)), min_size=1, max_size=5)
        )
        ranks[job, rank] = chain(job, rank, draw(st.floats(0.0, 100.0)), pieces)
    # Interleave the ranks' runs in recording order, each rank's in order.
    order = draw(st.permutations([key for key, runs in ranks.items() for _ in runs]))
    tracer = Tracer()
    for key in order:
        tracer.record_steps([ranks[key].pop(0)])
    return tracer


@settings(max_examples=max(100, settings.default.max_examples // 10), deadline=None)
@given(tracer=tracers())
def test_generated_tracers_match_per_step(tracer):
    assert_matches_per_step(tracer)


def test_drom_run_matches_per_step():
    result = execute_run(
        RunSpec(index=0, scenario=DROM, workload=InSituWorkloadRef()), trace=True
    )
    assert result.tracer.mask_changes()
    assert_matches_per_step(result.tracer)
