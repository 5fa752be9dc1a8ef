"""Content-addressed persistence for full execution traces.

The metrics tier (:class:`~repro.results.store.ResultStore`) memoises the
compact :class:`~repro.campaign.runner.RunMetrics` row of every campaign
cell; this module adds the second tier the trace-derived figures (3, 5, 13,
14) need: every executed run's full :class:`~repro.metrics.tracing.Tracer`
persists as one gzip-compressed JSONL artifact keyed by the **same**
:func:`~repro.store.content.content_key` as the metrics entry.  The two
tiers thus address the same cell by the same hash — a key found in both
means "this simulation's reporting is fully reconstructable without
re-simulating".

Artifact layout (format v5): one ``<key>.jsonl.gz`` file per cell, written
as a sequence of **concatenated gzip members**:

* the first member holds the versioned run header line (spec contents,
  scenario, workload name, end time, cycles/µs calibration) — including a
  ``segments`` table of time-windowed step chunks (first start, last end,
  record count, compressed byte length) plus the mask and sched members'
  byte lengths;
* one member per step segment: up to ``segment_steps`` step records in the
  tracer's canonical ``(start, job, rank)`` order, **run-length encoded** as
  one ``{"record": "steps", "runs": [...]}`` line (see below);
* one member with the mask-change records, one JSON line each (omitted when
  there are none);
* one final member with the scheduler-timeline records, one JSON line each
  (queue samples, node allocation samples, job lifecycle rows — see
  :mod:`repro.obs.sched`; omitted when the run recorded none).

A rank's consecutive steps are usually identical but for their start, and
the runner emits step ``j + 1`` at exactly ``start + duration`` of step
``j`` (the boundaries are the same left-fold additions).  A segment therefore
stores each such stretch once, as a run ``[job, rank, node, start,
duration, phase, nthreads, thread_utilisation, ipc, work_units, count]``:
record ``i + 1`` of a run is record ``i`` with ``start = start +
duration``.  Runs are listed in order of first appearance in the segment's
canonical order and never span segments; decoding expands them and restores
the canonical order with a stable sort.  The encoder extends a run only on
repr-equal fields (``1`` and ``1.0``, or ``0.0`` and ``-0.0``, break it), so
the decoded records equal the recorded ones exactly.  Both directions work
on the tracer's own :class:`~repro.metrics.tracing.StepRun` lists.

Because the header carries every member's compressed length, a reader seeks
straight to any segment and inflates only the time windows a query touches
— and validates the artifact's total byte size up front, so a truncated
copy reads as a miss even though its header member is intact.  Floats
serialise via ``repr`` and every member is written with a zeroed gzip
mtime, so the same tracer always produces byte-identical artifacts —
re-puts are idempotent, and shard stores merge by plain file union like the
metrics tier.  Everything but this codec lives in
:class:`~repro.store.content.ContentStore`.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from operator import is_, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.campaign.spec import RunSpec
from repro.metrics.tracing import (
    MaskChangeRecord,
    StepRecord,
    StepRun,
    Tracer,
    _step_order,
    expand_runs,
)
from repro.obs.log import get_logger
from repro.obs.sched import SchedTimeline
from repro.store.content import (
    ContentStore,
    content_key,
    spec_contents,
    spec_from_contents,
)

_log = get_logger("traces.store")

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.workload.runner import ScenarioResult

#: Default persistent location, a sibling of the metrics tier's
#: ``benchmarks/results/store/`` (both are gitignored).
DEFAULT_TRACE_ROOT = Path("benchmarks") / "results" / "traces"

#: Bumped whenever the artifact layout or the content-hash inputs change;
#: old artifacts are then cache misses and ``gc`` collects them.  The hash
#: inputs are shared with the metrics tier, so a metrics schema bump that
#: changes :func:`~repro.store.content.spec_contents` must bump this too.
#:
#: Version history:
#:
#: * 1 — initial layout (header + step/mask-change records, gzip JSONL).
#: * 2 — step records serialise in the tracer's canonical ``(start, job,
#:   rank)`` order instead of raw recording order, so batched and unbatched
#:   executions of the same cell write byte-identical artifacts.
#: * 3 — chunked layout: the body splits into time-windowed gzip members
#:   with a byte-offset ``segments`` table in the header, so windowed
#:   queries inflate only the touched segments.  The decompressed record
#:   stream is unchanged from v2.
#: * 4 — trailing ``sched`` member holding the scheduler timeline
#:   (queue/node/lifecycle records) with its byte length in the header's
#:   ``sched_bytes``.  The tier is a cache, so v3 artifacts are misses that
#:   ``gc`` collects, like every older format.
#: * 5 — each step segment member is one run-length line (``"record":
#:   "steps"``) instead of one JSONL line per step; the header, segment table,
#:   mask and sched members are unchanged.  ``gzip.decompress`` of the whole
#:   file no longer yields the flat record stream — ``traces export --format
#:   jsonl`` rebuilds it.  v4 artifacts are misses that ``gc`` collects.
TRACE_FORMAT_VERSION = 5

#: Step records per segment member.  Small enough that an interval query
#: over a million-step trace inflates a sliver, large enough that most of a
#: rank's uniform stretch folds into few runs.
DEFAULT_SEGMENT_STEPS = 2048


def _gzip_member(text: str) -> bytes:
    """One deterministic gzip member (mtime pinned to 0)."""
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as stream:
        stream.write(text.encode("utf-8"))
    return buffer.getvalue()


def _same(a, b) -> bool:
    """``a == b`` and serialised alike: ``1`` and ``1.0`` (or ``True``), and
    ``0.0`` and ``-0.0``, compare equal but are not the same here."""
    if a is b:
        return True
    if type(a) is not type(b) or a != b:
        return False
    if type(a) is float:
        return a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b)
    if type(a) is tuple or type(a) is list:
        return all(map(_same, a, b))
    return True


#: Every StepRun field but ``start`` and ``count``.
_fields_but_start = itemgetter(0, 1, 2, 4, 5, 6, 7, 8, 9)


def _encode_segments(runs: list[StepRun], size: int) -> list[tuple[list[list], dict]]:
    """Each ``size``-step segment's run list and table entry (``t0``, ``t1``,
    ``n``) of the canonical step order ``runs`` stand for.

    Within a segment, a (job, rank)'s run extends over its next step when
    that step starts exactly (:func:`_same`) where the last ended and is
    otherwise the same; runs are listed in order of first appearance.  No
    step record is built: numpy lays the steps' starts out flat
    (``np.add.accumulate`` is a run's ``start + duration`` chain bit for
    bit), and the exact rule runs only where one recorded run meets another.
    """
    if not runs:
        return []
    # One stream per (job, rank), in canonical key order; recording order
    # within a stream.  A stable sort of the flat starts then yields the
    # canonical (start, job, rank) order with ties in recording order.
    runs = sorted(runs, key=itemgetter(0, 1))
    counts = np.array([run.count for run in runs])
    heads = np.cumsum(counts) - counts
    total = int(counts.sum())
    durations = np.repeat([run.duration for run in runs], counts).astype(float)
    starts = durations.copy()
    starts[heads] = [run.start for run in runs]
    for head, count in zip(heads[counts > 1].tolist(), counts[counts > 1].tolist()):
        chain = starts[head : head + count]
        np.add.accumulate(chain, out=chain)
    step_ends = starts + durations
    source = np.repeat(np.arange(len(runs)), counts)
    stream = np.repeat(
        np.cumsum([0] + [a[:2] != b[:2] for a, b in zip(runs, runs[1:])]), counts
    )
    order = np.argsort(starts, kind="stable")
    rank_of = np.empty(total, np.intp)
    rank_of[order] = np.arange(total)
    segment = rank_of // size
    # Every stream's steps in canonical order, streams one after another
    # (already sorted, bar streams recorded out of time order).  A walk step
    # extends its predecessor's artifact run when both lie in one stream
    # and segment and it is the next step of the same recorded run.
    walk = np.argsort(stream * total + rank_of, kind="stable")
    grouped = (stream[walk[1:]] == stream[walk[:-1]]) & (segment[walk[1:]] == segment[walk[:-1]])
    is_head = np.zeros(total, bool)
    is_head[heads] = True
    extends = grouped & (walk[1:] == walk[:-1] + 1) & ~is_head[walk[1:]]
    # Where one recorded run meets another, apply the exact rule.
    at = np.flatnonzero(grouped & ~extends)
    after, before = walk[at + 1], walk[at]
    for index, a, b, start, end in zip(
        *(x.tolist() for x in (at, source[after], source[before], starts[after], step_ends[before]))
    ):
        fields, previous = _fields_but_start(runs[a]), _fields_but_start(runs[b])
        extends[index] = _same(start, end) and (
            all(map(is_, fields, previous)) or all(map(_same, fields, previous))
        )

    begins = np.flatnonzero(np.concatenate(([True], ~extends)))
    firsts = walk[begins]
    listing = np.argsort(rank_of[firsts])
    cuts = np.arange(0, total, size)
    # Each segment's first maximal end, as Python's ``max`` picks it.
    ends = np.full(len(cuts) * size, -np.inf)
    ends[:total] = step_ends[order]
    t1s = ends[cuts + ends.reshape(len(cuts), size).argmax(axis=1)]
    out = [
        ([], {"t0": t0, "t1": t1, "n": min(size, total - cut)})
        for cut, t0, t1 in zip(cuts.tolist(), starts[order[cuts]].tolist(), t1s.tolist())
    ]
    firsts, counts = firsts[listing], np.diff(begins, append=total)[listing]
    for index, start, seg, count in zip(
        *(x.tolist() for x in (source[firsts], starts[firsts], segment[firsts], counts))
    ):
        out[seg][0].append([*runs[index][:3], start, *runs[index][4:10], count])
    return out


@dataclass(frozen=True)
class TraceEntry:
    """One stored trace: its key, validated header, and lazy record access.

    The header member is read eagerly for listing and version checks; step
    segments inflate individually on first touch (cached per entry), so
    windowed queries over a long trace never decompress the parts they
    don't visit, and ``ls`` never inflates a single body byte.
    """

    key: str
    path: Path
    header: dict
    #: Compressed byte length of the header member — the first segment's
    #: file offset.  Zero only for hand-built entries that never read lazily.
    header_bytes: int = 0
    #: Per-entry cache of inflated members (segment index or ``"mask"``).
    _inflated: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def contents(self) -> dict:
        """The canonical spec contents the artifact was keyed by."""
        return self.header["run"]

    @property
    def run(self) -> RunSpec:
        return spec_from_contents(self.contents)

    # -- lazy segment access -----------------------------------------------------

    @property
    def segments(self) -> list[dict]:
        """The header's segment table: ``{"t0", "t1", "n", "bytes"}`` per
        step chunk, in canonical step order."""
        return self.header["segments"]

    @property
    def segments_inflated(self) -> int:
        """How many step segments this entry has decompressed so far."""
        return sum(1 for key in self._inflated if isinstance(key, int))

    def _member_records(
        self, offset: int, length: int, kind: str | None = None
    ) -> list[dict]:
        """The JSON records of one member (none for an absent, zero-length
        member); every one must be of ``kind`` when given."""
        if not length:
            return []
        with open(self.path, "rb") as stream:
            stream.seek(offset)
            blob = stream.read(length)
        if len(blob) != length:
            raise ValueError(f"{self.path} is truncated at offset {offset}")
        text = gzip.decompress(blob).decode("utf-8")
        records = [json.loads(line) for line in text.splitlines() if line]
        if kind is not None:
            for record in records:
                if record.get("record") != kind:
                    raise ValueError(
                        f"unknown record type {record.get('record')!r} in {self.path}"
                    )
        return records

    def _segment_offset(self, index: int) -> int:
        return self.header_bytes + sum(
            int(seg["bytes"]) for seg in self.segments[:index]
        )

    def segment_runs(self, index: int) -> list[StepRun]:
        """The step runs of one segment, inflating it on first touch.

        Raises ``ValueError`` when the runs do not stand for exactly the
        table's record count ``n``.
        """
        if index not in self._inflated:
            meta = self.segments[index]
            where = f"{self.path} segment {index}"
            runs: list[StepRun] = []
            for record in self._member_records(
                self._segment_offset(index), int(meta["bytes"]), "steps"
            ):
                for *fields, util, ipc, work, count in record["runs"]:
                    if type(count) is not int or count < 1:
                        raise ValueError(f"{where} has a run of count {count!r}")
                    runs.append(StepRun(*fields, tuple(util), ipc, work, count))
            total = sum(run.count for run in runs)
            if total != int(meta["n"]):
                raise ValueError(
                    f"{where} decodes to {total} step(s), segment table says {meta['n']}"
                )
            self._inflated[index] = runs
        return self._inflated[index]

    def segment_steps(self, index: int) -> list[StepRecord]:
        """The step records of one segment, in canonical order (the stable
        sort keeps steps whose keys tie in their recorded order)."""
        steps = expand_runs(self.segment_runs(index))
        steps.sort(key=_step_order)
        return steps

    def mask_records(self) -> list[MaskChangeRecord]:
        """The mask-change records, inflating the mask member on first touch."""
        if "mask" not in self._inflated:
            records = self._member_records(
                self._segment_offset(len(self.segments)),
                int(self.header["mask_bytes"]),
                "mask_change",
            )
            self._inflated["mask"] = [MaskChangeRecord.from_record(r) for r in records]
        return self._inflated["mask"]

    def steps_between(self, lo: float, hi: float) -> list[StepRecord]:
        """Every step overlapping ``[lo, hi]`` (``start <= hi and end >=
        lo``), inflating only the segments whose time window overlaps.

        Sound because a segment's ``t0`` is its first step's start (the
        canonical order sorts by start, so the minimum) and ``t1`` is the
        maximum step end — any step overlapping the query makes its
        segment's window overlap too.
        """
        matches: list[StepRecord] = []
        for index, seg in enumerate(self.segments):
            if float(seg["t0"]) <= hi and float(seg["t1"]) >= lo:
                matches.extend(
                    step
                    for step in self.segment_steps(index)
                    if step.start <= hi and step.end >= lo
                )
        return matches

    def head_steps(self, count: int) -> list[StepRecord]:
        """The first ``count`` steps in canonical order, inflating only the
        leading segments."""
        head: list[StepRecord] = []
        for index in range(len(self.segments)):
            if len(head) >= count:
                break
            head.extend(self.segment_steps(index))
        return head[:count]

    def sched_records(self) -> list[dict]:
        """The raw scheduler-timeline records, inflating the sched member on
        first touch (empty for sched-less runs)."""
        if "sched" not in self._inflated:
            offset = self._segment_offset(len(self.segments)) + int(
                self.header["mask_bytes"]
            )
            self._inflated["sched"] = self._member_records(
                offset, int(self.header["sched_bytes"])
            )
        return self._inflated["sched"]

    @cached_property
    def sched(self) -> SchedTimeline:
        """The run's scheduler timeline (empty for sched-less runs)."""
        return SchedTimeline.from_records(self.sched_records())

    @cached_property
    def tracer(self) -> Tracer:
        """The full tracer, assembled from every segment's runs plus the masks."""
        tracer = Tracer(cycles_per_us=self.header.get("cycles_per_us", 2600.0))
        for index in range(len(self.segments)):
            tracer.record_steps(self.segment_runs(index))
        for change in self.mask_records():
            tracer.record_mask_change(change)
        return tracer


# -- the store ------------------------------------------------------------------------


def _summarise_header(header: dict) -> dict | None:
    """The render-ready fields of one artifact header — everything the
    ``ls`` table prints, precomputed at write/index time."""
    try:
        run = spec_from_contents(header["run"])
        return {
            "scenario": header["scenario"],
            "workload": run.workload.label,
            "nsteps": header["nsteps"],
            "nmask_changes": header["nmask_changes"],
            "end_time": header["end_time"],
        }
    except (KeyError, TypeError, ValueError):
        return None


def _header_span(path: Path) -> tuple[dict, int]:
    """Parse and validate the header member; returns ``(header,
    compressed_length)``.

    Cheap — only the small first member inflates — and the validation
    cross-checks the header's member table against the file's actual byte
    size, so a truncated artifact fails here even though its header member
    is intact.
    """
    decomp = zlib.decompressobj(wbits=31)
    body = bytearray()
    consumed = 0
    with open(path, "rb") as stream:
        while not decomp.eof:
            chunk = stream.read(65536)
            if not chunk:
                raise ValueError(f"{path} ends mid-member")
            body += decomp.decompress(chunk)
            consumed += len(chunk)
    header_bytes = consumed - len(decomp.unused_data)
    header = json.loads(bytes(body).split(b"\n", 1)[0])
    if not isinstance(header, dict) or header.get("record") != "run":
        raise ValueError(f"{path} has no run header record")
    if header.get("version") != TRACE_FORMAT_VERSION:
        raise ValueError(
            f"trace {path.name} has format {header.get('version')!r}, "
            f"expected {TRACE_FORMAT_VERSION}"
        )
    expected = (
        header_bytes
        + sum(int(seg["bytes"]) for seg in header["segments"])
        + int(header["mask_bytes"])
        + int(header["sched_bytes"])
    )
    actual = path.stat().st_size
    if actual != expected:
        raise ValueError(
            f"trace {path.name} holds {actual} byte(s), segment table "
            f"expects {expected} — truncated or corrupt"
        )
    return header, header_bytes


def _records_member(records) -> bytes:
    """One gzip member of sorted-key JSON lines (empty for no records)."""
    if not records:
        return b""
    return _gzip_member(
        "\n".join(json.dumps(record, sort_keys=True) for record in records) + "\n"
    )


class TraceStore(ContentStore):
    """Content-addressed, mergeable store of full run traces: one chunked
    gzip JSONL artifact per cell, keyed like the metrics tier."""

    SUFFIX = ".jsonl.gz"
    VERSION = TRACE_FORMAT_VERSION
    KIND = "traces"
    NOUN = "trace"

    # Own-class aliases of the shared methods: the per-layer benchmark
    # (benchmarks/drombench/layers.py) wraps them through ``vars(cls)``.
    get = ContentStore.get
    scan = ContentStore.scan

    def __init__(
        self,
        root: str | os.PathLike = DEFAULT_TRACE_ROOT,
        segment_steps: int = DEFAULT_SEGMENT_STEPS,
    ) -> None:
        if segment_steps <= 0:
            raise ValueError("segment_steps must be positive")
        super().__init__(root)
        self.segment_steps = segment_steps

    def _decode(self, key: str, path: Path) -> TraceEntry:
        header, header_bytes = _header_span(path)
        return TraceEntry(key=key, path=path, header=header, header_bytes=header_bytes)

    def _summarise(self, entry: TraceEntry) -> dict | None:
        return _summarise_header(entry.header)

    def put(self, run: RunSpec, result: "ScenarioResult") -> Path:
        """Persist one executed run's full trace under its content key.

        Idempotent overwrite: the serialisation is deterministic (stable
        record order, sorted JSON keys, gzip mtimes pinned to 0, a fixed
        ``segment_steps`` chunking), so re-puts of the same cell write
        byte-identical artifacts.
        """
        key = content_key(run)
        tracer = result.tracer
        changes = tracer.mask_changes()
        segment_blobs: list[bytes] = []
        segment_table: list[dict] = []
        for runs, meta in _encode_segments(tracer.runs(), self.segment_steps):
            blob = _records_member([{"record": "steps", "runs": runs}])
            segment_blobs.append(blob)
            segment_table.append({**meta, "bytes": len(blob)})
        mask_blob = _records_member([change.to_record() for change in changes])
        sched = getattr(result, "sched", None)
        sched_records = sched.to_records() if sched is not None else []
        sched_blob = _records_member(sched_records)
        header = {
            "record": "run",
            "version": TRACE_FORMAT_VERSION,
            "key": key,
            "run": spec_contents(run),
            "run_id": run.cell_id,
            "scenario": run.scenario,
            "workload": result.workload.name,
            "end_time": result.end_time,
            "cycles_per_us": tracer.cycles_per_us,
            "nsteps": len(tracer),
            "nmask_changes": len(changes),
            "segments": segment_table,
            "mask_bytes": len(mask_blob),
            "sched_bytes": len(sched_blob),
            "nsched": len(sched_records),
        }
        data = (
            _gzip_member(json.dumps(header, sort_keys=True) + "\n")
            + b"".join(segment_blobs)
            + mask_blob
            + sched_blob
        )
        path = self._write(key, data, _summarise_header(header))
        _log.debug(
            "put %s (%s, %d step record(s), %d segment(s))",
            key[:12],
            run.cell_id,
            len(tracer),
            len(segment_table),
        )
        return path
