"""The per-step oracle of the trace read views.

A tracer keeps only step runs; every view in the package that walks steps
does so through ``repro.metrics.tracing.ordered_steps`` over the runs it
reads.  The tests compare those views against this module instead: each
run expanded one addition of ``duration`` at a time, then all steps
stable-sorted by ``(start, job, rank)`` and filtered, with no code shared
with the package's walk.  ``maximal_runs`` is the oracle of the trace
store's run merge.
"""

from __future__ import annotations

from typing import Iterable

from repro.metrics.tracing import StepRecord, StepRun, Tracer


def expand_steps(runs: Iterable[StepRun]) -> list[StepRecord]:
    """The step records of ``runs``, run by run, in the given order."""
    steps = []
    for run in runs:
        start = run.start
        for _ in range(run.count):
            steps.append(StepRecord(*run[:3], start, *run[4:10]))
            start += run.duration
    return steps


def canonical_steps(
    tracer: Tracer, job: str | None = None, rank: int | None = None
) -> list[StepRecord]:
    """Every step of ``tracer`` in canonical ``(start, job, rank)`` order,
    ties in recording order, optionally of one job and rank."""
    steps = sorted(expand_steps(tracer.runs()), key=lambda s: (s.start, s.job, s.rank))
    return [s for s in steps if job in (None, s.job) and rank in (None, s.rank)]


def maximal_runs(runs: Iterable[StepRun]) -> list[StepRun]:
    """The maximal merge of ``runs``: their steps in ``(job, rank, start)``
    order, ties in expansion order, each folded into the run before it when
    it starts exactly where that run's last step ended and every other
    field prints alike (so ``1`` and ``1.0``, or ``0.0`` and ``-0.0``, never
    merge)."""
    merged: list[StepRun] = []
    end = None
    for step in sorted(expand_steps(runs), key=lambda s: (s.job, s.rank, s.start)):
        fields = repr(step[:3] + step[4:])
        if merged and repr(step.start) == repr(end) and fields == previous:
            merged[-1] = merged[-1]._replace(count=merged[-1].count + 1)
        else:
            merged.append(StepRun(*step, 1))
            previous = fields
        end = step.start + step.duration
    return merged
