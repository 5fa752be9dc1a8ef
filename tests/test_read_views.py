"""Every read view of a trace against a per-step oracle, over chunkings.

A tracer keeps step runs only: the views walk ``ordered_steps`` over the
runs they read, or fold one rank's runs (``busy_fractions``).  The same
steps, chunked into runs in different ways (the reference loop's runs of
one, the drawn runs, arbitrary splits), recorded in different interleavings
of their ranks, and read back from a stored artifact (whose runs are in
``(job, rank, start)`` order), must give every view the answer a per-step
oracle kept here computes from :func:`step_oracle.canonical_steps`: the
tracer's own step walk (``list(tracer)``), the ``.prv`` and JSONL exports, the Paraver timelines by ``.tobytes()``,
``mean_ipc`` and ``thread_utilisation`` by ``.hex()``, ``steps_between``
and ``traces show --head``.  Zero-duration steps and steps of several jobs
and ranks sharing a start are drawn often.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.floats import left_sum, repeat_add
from repro.experiments.tables import render_table
from repro.metrics.paraver import ParaverView
from repro.metrics.tracing import MaskChangeRecord, StepRun, Tracer
from repro.results.sinks import jsonl_record_lines, prv_text
from repro.traces.__main__ import render_trace_head
from repro.traces.query import TraceReader
from step_oracle import canonical_steps
from test_prv_differential import reference_prv_text
from test_traces import store_and_reload

BIN = 0.5
WINDOWS = [(0.0, 0.0), (0.2, 0.6), (1.0, 1.0), (0.5, 3.0), (0.0, 100.0)]
HEAD = 5


# -- per-step oracles ------------------------------------------------------------------


def _outcome(call, encode):
    """``encode`` of a query's answer, or the type of the error it raised."""
    try:
        return encode(call())
    except (ValueError, ZeroDivisionError) as error:
        return type(error)


def _binned(samples, nbins: int) -> dict:
    """key -> time-binned, time-weighted average of ``value`` over the
    ``(key, start, end, value)`` samples, one addition per sample."""
    sums, weights = {}, {}
    for key, start, end, value in samples:
        acc = sums.setdefault(key, np.zeros(nbins))
        weight = weights.setdefault(key, np.zeros(nbins))
        for b in range(int(start // BIN), int(end // BIN) + 1):
            lo, hi = max(start, b * BIN), min(end, (b + 1) * BIN)
            if hi > lo:
                acc[b] += value * (hi - lo)
                weight[b] += hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        return {
            key: np.where(weights[key] > 0, sums[key] / np.maximum(weights[key], 1e-12), 0.0)
            for key in sums
        }


def _utilisation(steps) -> dict[int, float]:
    if not steps:
        raise ValueError("no steps")
    busy: dict[int, float] = {}
    total: dict[int, float] = {}
    for step in steps:
        for thread, util in enumerate(step.thread_utilisation):
            busy[thread] = busy.get(thread, 0.0) + util * step.duration
            total[thread] = total.get(thread, 0.0) + step.duration
    return {t: busy[t] / total[t] for t in sorted(busy)}


def _mean_ipc(steps) -> float:
    samples = [(s.ipc * util, s.duration) for s in steps for util in s.thread_utilisation]
    total_time = left_sum(duration for _ipc, duration in samples)
    if total_time == 0:
        return float(np.mean([ipc for ipc, _duration in samples]))
    return left_sum(ipc * duration for ipc, duration in samples) / total_time


def _head(entry, steps) -> str:
    steps = steps[:HEAD]
    if not steps:
        return "(no step records)"
    table = render_table(
        ["Job", "Rank", "Node", "Start (s)", "Dur (s)", "Thr", "IPC", "Phase"],
        [
            (s.job, str(s.rank), s.node, f"{s.start:.3f}", f"{s.duration:.3f}",
             str(s.nthreads), f"{s.ipc:.3f}", s.phase)
            for s in steps
        ],
    )
    return (
        f"{table}\n({len(steps)} of {entry.header['nsteps']} step record(s), "
        f"{len(entry.runs)} stored run(s))"
    )


def _hex_dict(answer: dict) -> dict:
    return {key: value.hex() for key, value in answer.items()}


def oracle_answers(tracer: Tracer, entry=None) -> dict:
    steps = canonical_steps(tracer)
    nbins = int(math.ceil(max((s.end for s in steps), default=0.0) / BIN)) + 1
    out = {
        "steps": steps,
        "prv": reference_prv_text(tracer),
        "jsonl": [json.dumps(s.to_record(), sort_keys=True) for s in steps]
        + [json.dumps(c.to_record(), sort_keys=True) for c in tracer.mask_changes()],
    }
    for lo, hi in WINDOWS:
        window = [s for s in steps if s.start <= hi and s.end >= lo]
        out["between", lo, hi] = window
        for job in ("a", "b"):
            out["between", lo, hi, job] = [s for s in window if s.job == job]
    for job in tracer.jobs():
        mine = [s for s in steps if s.job == job]
        rows = _binned(
            (((s.rank, thread), s.start, s.end, util)
             for s in mine for thread, util in enumerate(s.thread_utilisation)),
            nbins,
        )
        out[job, "activity"] = [
            (f"{job} r{rank} t{thread}", rows[rank, thread].tobytes())
            for rank, thread in sorted(rows)
        ]
        count = _binned(((job, s.start, s.end, s.nthreads) for s in mine), nbins)
        out[job, "count"] = count[job].tobytes()
        out[job, "mean_ipc"] = _mean_ipc(mine).hex()
        for rank in sorted({s.rank for s in mine}):
            out[job, rank, "util"] = _outcome(
                lambda: _utilisation([s for s in mine if s.rank == rank]), _hex_dict
            )
    if entry is not None:
        out["head"] = _head(entry, steps)
    return out


def view_answers(tracer: Tracer, entry=None) -> dict:
    reader = TraceReader(entry if entry is not None else tracer)
    view = ParaverView(tracer, bin_seconds=BIN)
    out = {
        "steps": list(tracer),
        "prv": prv_text(tracer),
        "jsonl": list(jsonl_record_lines(tracer)),
    }
    for lo, hi in WINDOWS:
        out["between", lo, hi] = reader.steps_between(lo, hi)
        for job in ("a", "b"):
            out["between", lo, hi, job] = reader.steps_between(lo, hi, job=job)
    for job in tracer.jobs():
        out[job, "activity"] = [
            (row.label, row.values.tobytes()) for row in view.thread_activity(job)
        ]
        out[job, "count"] = view.job_thread_count(job).values.tobytes()
        out[job, "mean_ipc"] = reader.mean_ipc(job).hex()
        for rank in sorted({run.rank for run in tracer.runs(job)}):
            out[job, rank, "util"] = _outcome(
                lambda: tracer.thread_utilisation(job, rank), _hex_dict
            )
    if entry is not None:
        out["head"] = render_trace_head(entry, HEAD)
    return out


def assert_views_match(tracers: list[Tracer]) -> None:
    """Each tracer's views equal its oracle's answers, and all tracers (the
    same steps, each rank's runs recorded in time order) answer alike,
    their stored artifact included."""
    expected = view_answers(tracers[0])
    for tracer in tracers:
        answers = view_answers(tracer)
        assert answers == oracle_answers(tracer)
        assert answers == expected
    with tempfile.TemporaryDirectory() as root:
        entry = store_and_reload(Path(root), tracers[-1])
        stored = view_answers(entry.tracer, entry)
        assert stored == oracle_answers(entry.tracer, entry)
        assert {key: value for key, value in stored.items() if key != "head"} == expected


# -- chunkings ------------------------------------------------------------------------------


def split(run: StepRun, k: int) -> list[StepRun]:
    """``run`` as its first ``k`` steps and the rest."""
    if not 0 < k < run.count:
        return [run]
    rest = run._replace(start=repeat_add(run.start, run.duration, k), count=run.count - k)
    return [run._replace(count=k), rest]


def record(streams: dict, order: list) -> Tracer:
    """A tracer recording one run of the stream named by each ``order``
    entry in turn: the streams interleave, each stream's runs in order."""
    queues = {key: list(runs) for key, runs in streams.items()}
    tracer = Tracer()
    for key in order:
        tracer.record_steps([queues[key].pop(0)])
    return tracer


def chunkings(streams: dict, cuts, orders, masks) -> list[Tracer]:
    """The drawn runs, the same steps as runs of one, and as split runs,
    each recorded in its own interleaving, with the same mask changes."""
    singles = {
        key: [r._replace(start=repeat_add(r.start, r.duration, i), count=1)
              for r in runs for i in range(r.count)]
        for key, runs in streams.items()
    }
    splits = {
        key: [piece for r in runs for piece in split(r, next(cuts))]
        for key, runs in streams.items()
    }
    tracers = []
    for variant in (streams, singles, splits):
        tracer = record(variant, orders(variant))
        for change in masks:
            tracer.record_mask_change(change)
        tracers.append(tracer)
    return tracers


# -- hand-built ties ------------------------------------------------------------------------


def _run(job, rank, start, duration, count, nthreads=3, util=None, ipc=1.25, phase="p"):
    util = util or (1.0, 0.5, 1 / 3)[:nthreads]
    return StepRun(job, rank, f"n{rank % 2}", start, duration, phase, nthreads, util,
                   ipc, 1.0, count)


def test_hand_built_ties_match_per_step():
    """Ranks of one job recorded from the last to the first, all starting
    together with different step lengths, a second job tying with them,
    and zero-duration steps: every view answers in ``(start, job, rank)``
    order, and one bin folds the ranks' steps in that order."""
    streams = {
        ("a", 2): [_run("a", 2, 0.0, 0.3, 1), _run("a", 2, 0.3, 0.0, 2, nthreads=1)],
        ("a", 1): [_run("a", 1, 0.0, 0.2, 2, ipc=0.5)],
        ("a", 0): [_run("a", 0, 0.0, 0.1, 3, nthreads=2, phase="q")],
        ("b", 0): [_run("b", 0, 0.0, 1 / 3, 4, nthreads=1), _run("b", 0, 2.0, 0.0, 1)],
    }
    masks = [MaskChangeRecord("a", 1, 0.2, 3, 2), MaskChangeRecord("b", 0, 0.0, 1, 2)]
    cuts = iter([1, 1, 2, 2, 3, 1] * 4)
    tracers = chunkings(streams, cuts, lambda v: [k for k in v for _ in v[k]], masks)
    assert_views_match(tracers)
    # The recording order is not the canonical one: rank 2 came first.
    assert [r.rank for r in tracers[0].runs("a")][0] == 2


# -- generated chunkings ---------------------------------------------------------------------

STARTS = [0.0, 0.5, 1.0, 2.5]
DURATIONS = [0.0, 0.1, 0.25, 1 / 3, 1.0]


@st.composite
def traces(draw) -> list[Tracer]:
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from("ab"), st.integers(0, 2)), min_size=1, max_size=4,
            unique=True,
        )
    )
    streams = {}
    for job, rank in keys:
        start = draw(st.sampled_from(STARTS))
        runs = []
        for _ in range(draw(st.integers(1, 3))):
            nthreads = draw(st.integers(1, 3))
            run = StepRun(
                job, rank, f"n{rank % 2}", start, draw(st.sampled_from(DURATIONS)),
                draw(st.sampled_from("pq")), nthreads,
                tuple(draw(st.sampled_from([0.0, 1 / 3, 0.5, 1.0])) for _ in range(nthreads)),
                draw(st.sampled_from([0.5, 1.25, 1 / 3])), 1.0, draw(st.integers(1, 5)),
            )
            runs.append(run)
            start = run.end + draw(st.sampled_from([0.0, 0.0, 0.5]))
        streams[job, rank] = runs
    masks = [
        MaskChangeRecord(
            draw(st.sampled_from("abc")), draw(st.integers(0, 2)),
            draw(st.sampled_from(STARTS)), draw(st.integers(1, 3)), draw(st.integers(1, 3)),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    cuts = iter(draw(st.lists(st.integers(1, 4), min_size=40, max_size=40)) * 2)

    def orders(variant):
        return draw(st.permutations([key for key, runs in variant.items() for _ in runs]))

    return chunkings(streams, cuts, orders, masks)


@settings(max_examples=max(100, settings.default.max_examples // 4), deadline=None)
@given(traces())
def test_chunkings_match_per_step(tracers):
    assert_views_match(tracers)
