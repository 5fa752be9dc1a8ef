"""Paraver-style ``.prv`` and JSONL renderings of a tracer.

The paper's evaluation is *read* through Paraver: traces captured with Extrae
are rendered as timelines (Figures 3, 5, 13).  Here the trace tier
(:class:`repro.traces.store.TraceStore`) persists every traced run, and
``python -m repro.traces export --format prv|jsonl`` renders a stored cell
through this module:

* :func:`prv_text` — a ``.prv``-style export in the spirit of the Paraver
  trace format: a ``#Paraver`` header (with the run's horizon from
  :class:`~repro.metrics.paraver.ParaverView`), ``1:`` state records (one per
  step per thread) and ``2:`` event records (thread-count changes from DROM
  mask updates, per-step IPC and phase).  Times are integer microseconds.
  :func:`pcf_text` and :func:`row_text` are its ``.pcf``/``.row`` companions,
  so the real Paraver UI can open it; :func:`read_prv` splits one back up.
* :func:`jsonl_record_lines` — one sorted-key JSON object per record,
  trivially loadable from any analysis environment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, NamedTuple

from repro.metrics.paraver import ParaverView
from repro.metrics.tracing import Tracer

#: Event types of the ``.prv``-style export (the 9 200 000 range is unused by
#: the standard Extrae event tables).
EV_THREAD_COUNT = 9200001  #: team size after a DROM mask change
EV_STEP_IPC_MILLI = 9200002  #: step IPC × 1000 (``.prv`` values are integers)
EV_STEP_PHASE = 9200003  #: 1-based index into the run's phase-name table

#: Paraver state identifiers (state record field 7).
STATE_RUNNING = 1


class _Layout(NamedTuple):
    """What the renderers number their rows by."""

    nodes: list[str]
    #: job -> {rank: widest team the rank ever ran with}, ranks sorted.
    widths: dict[str, dict[int, int]]
    #: (job, rank) -> the rank's node; ranks never migrate within a run.
    rank_node: dict[tuple[str, int], str]
    phases: list[str]


def _layout(tracer: Tracer) -> _Layout:
    """The tracer's nodes, per-rank team widths and phases, read from its
    runs in one pass (every step of a run shares these fields)."""
    widths: dict[str, dict[int, int]] = {}
    rank_node: dict[tuple[str, int], str] = {}
    phases: set[str] = set()
    for run in tracer.runs():
        ranks = widths.setdefault(run.job, {})
        ranks[run.rank] = max(ranks.get(run.rank, run.nthreads), run.nthreads)
        rank_node[run.job, run.rank] = run.node
        phases.add(run.phase)
    return _Layout(
        nodes=sorted(set(rank_node.values())),
        widths={job: dict(sorted(ranks.items())) for job, ranks in widths.items()},
        rank_node=rank_node,
        phases=sorted(phases),
    )


def _us(t: float) -> int:
    return int(round(t * 1_000_000))


def prv_text(tracer: Tracer) -> str:
    """The ``.prv``-style rendering of a tracer (header + sorted records).

    A live tracer and its stored artifact render byte-identically.
    """
    view = ParaverView(tracer) if len(tracer) else None
    ftime = _us(view.horizon()) if view is not None else 0

    jobs = tracer.jobs()
    layout = _layout(tracer)
    appl = {job: i + 1 for i, job in enumerate(jobs)}
    nodes = layout.nodes
    cpu = {node: i + 1 for i, node in enumerate(nodes)}
    # Where each rank runs, for records that don't carry a node themselves
    # (mask changes).
    rank_cpu = {rank: cpu[node] for rank, node in layout.rank_node.items()}
    phases = layout.phases
    phase_id = {name: i + 1 for i, name in enumerate(phases)}

    # Application list: one app per job, one task per rank, with the
    # maximum team size the rank ever ran with.
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

    # (time, sort class, recording sequence, line): same-time records keep
    # their recording order, so re-exports are deterministic.
    records: list[tuple[int, int, int, str]] = []
    for step in tracer:
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
            continue  # job produced no steps; nothing to anchor the event to
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
    # Phase-name table as comments, so the .prv stays self-describing
    # without a separate .pcf file.
    for name in phases:
        lines.append(f"# phase {phase_id[name]} {name}")
    lines.extend(line for _t, _c, _s, line in records)
    return "\n".join(lines) + "\n"


def pcf_text(tracer: Tracer) -> str:
    """The ``.pcf`` configuration companion of :func:`prv_text`.

    Declares the state and event-type dictionaries Paraver needs to label
    the trace; the phase VALUES table uses the same sorted-name numbering
    as the ``.prv`` event records, so the two files always agree.
    """
    phases = _layout(tracer).phases
    lines = [
        "DEFAULT_OPTIONS",
        "",
        "LEVEL               THREAD",
        "UNITS               MICROSEC",
        "",
        "STATES",
        "0    NOT CREATED",
        "1    RUNNING",
        "",
        "EVENT_TYPE",
        f"0    {EV_THREAD_COUNT}    Thread count",
        "",
        "EVENT_TYPE",
        f"0    {EV_STEP_IPC_MILLI}    Step IPC (milli)",
        "",
        "EVENT_TYPE",
        f"0    {EV_STEP_PHASE}    Step phase",
    ]
    if phases:
        lines.append("VALUES")
        for i, name in enumerate(phases):
            lines.append(f"{i + 1}    {name}")
    return "\n".join(lines) + "\n"


def row_text(tracer: Tracer) -> str:
    """The ``.row`` axis-label companion of :func:`prv_text`.

    Names the CPU, node and thread rows with the same numbering (sorted
    nodes, job application order, rank+1 tasks) the ``.prv`` records use.
    """
    layout = _layout(tracer)
    nodes = layout.nodes
    threads = [
        f"{job}.{rank + 1}.{thread + 1}"
        for job in tracer.jobs()
        for rank, width in layout.widths[job].items()
        for thread in range(width)
    ]
    lines = [f"LEVEL CPU SIZE {max(len(nodes), 1)}"]
    lines.extend(nodes or ["node0"])
    lines.append("")
    lines.append(f"LEVEL NODE SIZE {max(len(nodes), 1)}")
    lines.extend(nodes or ["node0"])
    lines.append("")
    lines.append(f"LEVEL THREAD SIZE {max(len(threads), 1)}")
    lines.extend(threads or ["none.1.1"])
    return "\n".join(lines) + "\n"


def read_prv(path: str | os.PathLike) -> tuple[str, list[str], list[str]]:
    """Split a ``.prv``-style file into (header, state lines, event lines)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#Paraver"):
        raise ValueError(f"{path} is not a .prv-style trace")
    states = [line for line in lines[1:] if line.startswith("1:")]
    events = [line for line in lines[1:] if line.startswith("2:")]
    return lines[0], states, events


def jsonl_record_lines(tracer: Tracer) -> Iterator[str]:
    """The JSONL record lines of a tracer: one sorted-key line per step in
    canonical order, then one per mask change."""
    for step in tracer:
        yield json.dumps(step.to_record(), sort_keys=True)
    for change in tracer.mask_changes():
        yield json.dumps(change.to_record(), sort_keys=True)
