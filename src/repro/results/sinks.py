"""Paraver-style ``.prv`` and JSONL renderings of a tracer.

The paper's evaluation is *read* through Paraver: traces captured with Extrae
are rendered as timelines (Figures 3, 5, 13).  Here the trace tier
(:class:`repro.traces.store.TraceStore`) persists every traced run, and
``python -m repro.traces export --format prv|jsonl`` renders a stored cell
through this module:

* :func:`prv_chunks` — a ``.prv``-style export in the spirit of the Paraver
  trace format, streamed one µs instant at a time: a ``#Paraver`` header
  (with the run's horizon from :class:`~repro.metrics.paraver.ParaverView`),
  ``1:`` state records (one per step per thread) and ``2:`` event records
  (thread-count changes from DROM mask updates, per-step IPC and phase), in
  time order.  Times are integer microseconds.  :func:`prv_text` is the
  same text as one string.  :func:`pcf_text` and :func:`row_text` are its
  ``.pcf``/``.row`` companions, so the real Paraver UI can open it;
  :func:`read_prv` splits one back up.
* :func:`jsonl_record_lines` — one sorted-key JSON object per record,
  trivially loadable from any analysis environment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, NamedTuple

from repro.metrics.paraver import ParaverView
from repro.metrics.tracing import Tracer, ordered_steps, step_index

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


def prv_chunks(tracer: Tracer) -> Iterator[str]:
    """The ``.prv``-style rendering of a tracer in newline-terminated
    chunks: the header line, the phase-name comments, then one chunk per
    µs instant holding its records, in ``(µs, class, recording order)``
    order.

    Records sharing a µs instant go state records (class 0) first, then
    step events (class 1), then mask-change events (class 2).  The walk
    follows :func:`~repro.metrics.tracing.step_index`, which orders the
    steps by start, and rounding to µs is monotone, so states and step
    events come out in order; only the few mask changes are sorted, by
    ``(µs, recording index)``.  Each run builds its state-line prefixes,
    event prefix and IPC/phase suffix once, and each step rounds its start
    and end once and appends one state block (its prefixes joined on the
    step's ``start:end:state`` tail) and one event line.  A live tracer
    and its stored artifact render byte-identically.
    """
    view = ParaverView(tracer) if len(tracer) else None
    ftime = _us(view.horizon()) if view is not None else 0

    runs = tracer.runs()
    jobs = tracer.jobs()
    layout = _layout(tracer)
    appl = {job: i + 1 for i, job in enumerate(jobs)}
    nodes = layout.nodes
    cpu = {node: i + 1 for i, node in enumerate(nodes)}
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
    yield (
        "#Paraver (01/01/2000 at 00:00)"
        f":{ftime}_us:{max(len(nodes), 1)}({','.join('1' for _ in nodes) or '1'})"
        f":{len(jobs)}:{':'.join(appl_list)}\n"
    )
    # Phase-name table as comments, so the .prv stays self-describing
    # without a separate .pcf file.
    for name in phases:
        yield f"# phase {phase_id[name]} {name}\n"

    # Mask changes anchor to the node their rank runs on (cpu 1 for a rank
    # without steps); a job that produced no steps has nothing to anchor
    # its events to.
    masks = []
    for index, change in enumerate(tracer.mask_changes()):
        if change.job in appl:
            time = _us(change.time)
            rank_cpu = cpu.get(layout.rank_node.get((change.job, change.rank)), 1)
            masks.append((
                time,
                index,
                f"2:{rank_cpu}:{appl[change.job]}:{change.rank + 1}:1:{time}"
                f":{EV_THREAD_COUNT}:{change.new_threads}\n",
            ))
    masks.sort()
    sent = 0  # mask-change events emitted so far

    # Per run: (state-line prefix per thread and a closing "", event-line
    # prefix, IPC/phase suffix, step duration).  Joined on a step's tail,
    # the prefixes give its state block, and no line for a team of none.
    rendered = []
    for run in runs:
        fields = f"{cpu[run.node]}:{appl[run.job]}:{run.rank + 1}"
        rendered.append((
            [*(f"{STATE_RUNNING}:{fields}:{thread + 1}:" for thread in range(run.nthreads)), ""],
            f"2:{fields}:1:",
            f":{EV_STEP_IPC_MILLI}:{int(round(run.ipc * 1000))}"
            f":{EV_STEP_PHASE}:{phase_id[run.phase]}\n",
            run.duration,
        ))
    states: list[str] = []
    events: list[str] = []
    instant = None
    for start, _job, _rank, i in step_index(runs):
        first = _us(start)
        if first != instant:
            # The previous instant is complete; mask changes before this
            # one follow it.
            chunk = states + events
            while sent < len(masks) and masks[sent][0] < first:
                chunk.append(masks[sent][2])
                sent += 1
            if chunk:
                yield "".join(chunk)
            states.clear()
            events.clear()
            instant = first
        threads, event, suffix, duration = rendered[i]
        tail = f"{first}:{_us(start + duration)}:{STATE_RUNNING}\n"
        states.append(tail.join(threads))
        events.append(f"{event}{first}{suffix}")
    chunk = states + events + [line for _time, _index, line in masks[sent:]]
    if chunk:
        yield "".join(chunk)


def prv_text(tracer: Tracer) -> str:
    """The ``.prv``-style rendering of a tracer as one string: the joined
    :func:`prv_chunks`."""
    return "".join(prv_chunks(tracer))


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
    for step in ordered_steps(tracer.runs()):
        yield json.dumps(step.to_record(), sort_keys=True)
    for change in tracer.mask_changes():
        yield json.dumps(change.to_record(), sort_keys=True)
