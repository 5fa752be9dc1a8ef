"""``python -m repro.traces`` — inspect and maintain a trace store.

Subcommands::

    ls     [--store ROOT]                         list stored traces
    show   KEY [--store ROOT] [--bin-seconds S] [--sched]
                                                  one trace's timelines (or,
                                                  with --sched, its scheduler
                                                  lifecycle/fairness view)
    export KEY [--store ROOT] [--format prv|jsonl] [--out DIR]
    gc     [--store ROOT] [filters] [--delete]    collect artifacts

``export`` is how a trace leaves the store: it re-emits one stored cell on
demand — a ``.prv``-style trace (rendered by :mod:`repro.results.sinks`,
byte-identical to rendering the live run's tracer) with its ``.pcf``/``.row``
companion files so the real Paraver UI can open it, or the flat JSONL record
stream (header, steps in canonical order, mask changes, scheduler timeline;
one sorted-key record per line).
File names use the content key alone, so re-exports overwrite instead of
accumulating.  ``show --sched`` inflates only the sched member, never a
step.
``export`` streams the ``.prv`` (one chunk per µs instant) and the
``.jsonl`` (one line per record) into the file.
An artifact whose members fail to inflate or decode makes ``show`` and
``export`` report the error on stderr and exit 1; ``export`` decodes every
member it needs first, so it then writes nothing.  An output ``export``
cannot write is reported as such, also with exit 1.  ``gc`` is a dry run
unless ``--delete`` is given; unreadable or old-format artifacts are always
candidates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator

from repro.experiments.tables import render_table
from repro.metrics.tracing import Tracer, ordered_steps
from repro.results.sinks import jsonl_record_lines, pcf_text, prv_chunks, row_text
from repro.store.cli import StoreCommands, positive_finite, positive_int
from repro.store.content import READ_ERRORS
from repro.traces.query import TraceReader
from repro.traces.store import DEFAULT_TRACE_ROOT, TraceEntry, TraceStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traces",
        description="Inspect a content-addressed campaign trace store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    COMMANDS.add_ls(sub)
    show = COMMANDS.add_show(sub, help="show one trace's timelines")
    show.add_argument("--bin-seconds", default=100.0,
                      type=positive_finite,
                      help="timeline bin width in seconds (default 100)")
    show.add_argument("--head", default=None, metavar="N",
                      type=positive_int,
                      help="print the first N step records, in canonical "
                           "order, instead of the timelines")
    show.add_argument("--sched", action="store_true",
                      help="print the scheduler timeline instead: job "
                           "lifecycle table, fairness summary and queue "
                           "depth (inflates only the sched member)")

    export = sub.add_parser("export", help="re-emit one stored trace")
    export.add_argument("key", help="content key (an unambiguous prefix is enough)")
    COMMANDS.add_store(export)
    export.add_argument("--format", choices=("prv", "jsonl"), default="prv",
                        help="output format (default prv)")
    export.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default current directory)")

    COMMANDS.add_gc(sub)
    return parser


def render_trace_table(
    store: TraceStore, limit: int | None = None, prefix: str | None = None
) -> str:
    """One row per stored trace, in key order.

    Served from the store's index summaries — no header (let alone body)
    inflation per artifact, so ``ls`` is O(changed) on a warm store.
    """
    summaries = store.summaries(prefix=prefix, limit=limit)
    if not summaries:
        return f"(trace store {store.root} is empty)"
    rows = [
        (
            item.key[:12],
            item.summary["scenario"],
            item.summary["workload"],
            str(item.summary["nsteps"]),
            str(item.summary["nmask_changes"]),
            f"{item.summary['end_time']:.3f}",
            f"{item.size / 1024:.1f}",
        )
        for item in summaries
    ]
    return render_table(
        ["Key", "Scenario", "Workload", "Steps", "Mask chg", "End (s)", "KiB"],
        rows,
    )


def render_trace_head(entry: TraceEntry, count: int) -> str:
    """The first ``count`` step records in canonical order."""
    steps = ordered_steps(entry.runs)[:count]
    if not steps:
        return "(no step records)"
    table = render_table(
        ["Job", "Rank", "Node", "Start (s)", "Dur (s)", "Thr", "IPC", "Phase"],
        [
            (
                step.job,
                str(step.rank),
                step.node,
                f"{step.start:.3f}",
                f"{step.duration:.3f}",
                str(step.nthreads),
                f"{step.ipc:.3f}",
                step.phase,
            )
            for step in steps
        ],
    )
    return (
        table
        + f"\n({len(steps)} of {entry.header.get('nsteps', '?')} step record(s), "
        f"{len(entry.runs)} stored run(s))"
    )


def render_trace_sched(entry: TraceEntry) -> str:
    """The scheduler timeline of one trace: lifecycle table, fairness
    summary and queue-depth series — served entirely from the artifact's
    ``sched`` member (zero simulation, no step member is touched)."""
    timeline = entry.sched
    if not len(timeline):
        return "(no scheduler records)"
    lines = [
        render_table(
            ["Job", "Submit (s)", "Start (s)", "End (s)", "Wait (s)",
             "Nodes", "Granted", "Co-alloc", "Slowdown"],
            [
                (
                    row.job,
                    f"{row.submit_time:.3f}",
                    f"{row.start_time:.3f}" if row.start_time is not None else "-",
                    f"{row.end_time:.3f}" if row.end_time is not None else "-",
                    f"{row.wait_time:.3f}" if row.wait_time is not None else "-",
                    str(row.requested_nodes),
                    str(row.granted_nodes),
                    "yes" if row.co_allocated else "no",
                    f"{row.bounded_slowdown:.2f}"
                    if row.bounded_slowdown is not None
                    else "-",
                )
                for row in timeline.job_lifecycle()
            ],
        ),
        "",
    ]
    fairness = timeline.fairness_summary()
    lines.append(
        f"fairness  wait p50/p95/max {fairness.p50_wait:.3f}/"
        f"{fairness.p95_wait:.3f}/{fairness.max_wait:.3f} s | "
        f"slowdown p50/p95/max {fairness.p50_slowdown:.2f}/"
        f"{fairness.p95_slowdown:.2f}/{fairness.max_slowdown:.2f}"
    )
    depths = [depth for _, depth in timeline.queue_depth_series()]
    lines.append(
        f"queue     {len(depths)} sample(s), max depth {max(depths)}"
        if depths
        else "queue     (no samples)"
    )
    end_time = float(entry.header.get("end_time", 0.0))
    lines.append(
        f"cluster   {len(timeline.node_names())} node(s), allocation "
        f"utilization {timeline.utilization(end_time):.3f} over "
        f"{end_time:.3f} s"
    )
    return "\n".join(lines)


def render_trace(entry: TraceEntry, bin_seconds: float) -> str:
    """Header summary plus the per-job width timeline of one trace."""
    reader = TraceReader(entry)
    lines = [
        f"key       {entry.key}",
        f"run       {entry.header['run_id']}",
        f"scenario  {entry.header['scenario']}",
        f"workload  {entry.header['workload']}",
        f"end time  {entry.header['end_time']:.3f} s",
        "",
    ]
    intervals = reader.job_intervals()
    if not intervals:
        lines.append("(no step records)")
        return "\n".join(lines)
    lines.append(
        render_table(
            ["Job", "First step (s)", "Last end (s)", "Mask chg"],
            [
                (
                    job,
                    f"{lo:.3f}",
                    f"{hi:.3f}",
                    str(len(reader.mask_change_sequence(job))),
                )
                for job, (lo, hi) in intervals.items()
            ],
        )
    )
    lines.append("")
    lines.append(reader.render_job_widths(bin_seconds=bin_seconds))
    return "\n".join(lines)


def jsonl_lines(
    header: dict, tracer: Tracer, sched_records: list[dict]
) -> Iterator[str]:
    """An artifact's flat record stream, one newline-terminated line at a
    time: the header line, one line per step in canonical order, then the
    mask-change and sched lines."""
    yield json.dumps(header, sort_keys=True) + "\n"
    for line in jsonl_record_lines(tracer):
        yield line + "\n"
    for record in sched_records:
        yield json.dumps(record, sort_keys=True) + "\n"


def _render_show(entry: TraceEntry, args: argparse.Namespace) -> str:
    if args.sched:
        return render_trace_sched(entry)
    if args.head is not None:
        return render_trace_head(entry, args.head)
    return render_trace(entry, args.bin_seconds)


COMMANDS = StoreCommands(
    store=TraceStore,
    default_root=DEFAULT_TRACE_ROOT,
    render_table=render_trace_table,
    render_entry=_render_show,
    label="trace store",
    cell="trace",
    entry="artifact",
    entries="artifacts",
    matching="traces",
    removed="trace(s)",
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except READ_ERRORS as exc:
        # A member that passed ``get``'s size checks but fails to inflate.
        print(f"{args.command}: unreadable trace artifact: {exc}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    code = COMMANDS.run(args)
    if code is not None:
        return code
    if args.command != "export":
        raise AssertionError(f"unhandled command {args.command!r}")
    entry = COMMANDS.load(TraceStore(args.store), args.key)
    if entry is None:
        return 1
    # Decode every member the format needs before touching the output, so
    # a corrupt artifact leaves no file behind and a write error is never
    # mistaken for one.
    tracer = entry.tracer
    if args.format == "prv":
        text = prv_chunks(tracer)
    else:
        text = jsonl_lines(entry.header, tracer, entry.sched_records)
    out = Path(args.out)
    path = out / f"{entry.header['scenario']}-{entry.key[:12]}.{args.format}"
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            stream.writelines(text)
        if args.format == "prv":
            # The .pcf event/value dictionary and .row axis labels the real
            # Paraver UI needs to open the .prv.
            path.with_suffix(".pcf").write_text(pcf_text(tracer))
            path.with_suffix(".row").write_text(row_text(tracer))
    except OSError as exc:
        print(f"export: cannot write {exc.filename or path}: {exc}", file=sys.stderr)
        return 1
    print(f"exported {entry.key[:12]} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
