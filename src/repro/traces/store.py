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

Artifact layout (format v6): one ``<key>.jsonl.gz`` file per cell, written
as a sequence of **concatenated gzip members**:

* the first member holds the versioned run header line (spec contents,
  scenario, workload name, end time, cycles/µs calibration, step and
  mask-change counts) plus the compressed byte lengths of the members after
  it (``steps_bytes``, ``mask_bytes``, ``sched_bytes``);
* one member with the step records, **run-length encoded** as one
  ``{"record": "steps", "runs": [...]}`` line (omitted when there are no
  steps; see below);
* one member with the mask-change records, one JSON line each (omitted when
  there are none);
* one final member with the scheduler-timeline records, one JSON line each
  (queue samples, node allocation samples, job lifecycle rows — see
  :mod:`repro.obs.sched`; omitted when the run recorded none).

The steps member stores the tracer's own
:class:`~repro.metrics.tracing.StepRun` lists, canonicalised once: each run
is a list ``[job, rank, node, start, duration, phase, nthreads,
thread_utilisation, ipc, work_units, count]`` — record ``i + 1`` of a run is
record ``i`` with ``start = start + duration``, the very left fold the
engine clock performs.  The runs are listed stable-sorted by ``(job, rank,
start)``, and a run folds into the previous one when it continues it: same
job and rank, starting exactly where the previous run ended, every other
field the same.  "The same" is repr-equal (``1`` and ``1.0``, or ``0.0``
and ``-0.0``, break a run), so the decoded records equal the recorded ones
exactly, and however a recording chunked a rank's steps into runs (one step
at a time, or batched) the maximal runs it stands for — and so the artifact
bytes — are the same.  Decoding hands the runs to a
:class:`~repro.metrics.tracing.Tracer`, whose per-step views restore the
canonical ``(start, job, rank)`` order.

Because the header carries every member's compressed length, a reader seeks
straight to the member a query needs (``show --sched`` never touches the
steps) — and validates the artifact's total byte size up front, so a
truncated copy reads as a miss even though its header member is intact.
Floats serialise via ``repr`` and every member is written with a zeroed gzip
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
import zlib
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from repro.apps.perfmodel import NOMINAL_CYCLES_PER_US
from repro.campaign.spec import RunSpec
from repro.metrics.tracing import MaskChangeRecord, StepRun, Tracer
from repro.obs.log import get_logger
from repro.obs.sched import SchedTimeline
from repro.store.content import (
    ContentStore,
    contents_key,
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
#: * 6 — one steps member holding the tracer's runs canonicalised (sorted
#:   by ``(job, rank, start)``, continuing runs folded) instead of
#:   2048-step time-window segments; the header's ``segments`` table becomes
#:   the member's ``steps_bytes``.  v5 artifacts are misses that ``gc``
#:   collects.
TRACE_FORMAT_VERSION = 6


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


def _canonical_runs(runs: list[StepRun]) -> list[list]:
    """The steps member's run lists: ``runs`` stable-sorted by ``(job, rank,
    start)``, each folded into the previous one when it starts exactly
    (:func:`_same`) where that one ended and every other field is the same.
    """
    out: list[list] = []
    previous = end = None
    for run in sorted(runs, key=itemgetter(0, 1, 3)):
        if (
            out
            and _same(run.start, end)
            and all(map(_same, _fields_but_start(run), _fields_but_start(previous)))
        ):
            out[-1][-1] += run.count
        else:
            out.append(list(run))
            previous = run
        end = run.end
    return out


@dataclass(frozen=True)
class TraceEntry:
    """One stored trace: its key, validated header, and lazy record access.

    The header member is read eagerly for listing and version checks; the
    steps, mask and sched members each inflate on first touch (cached per
    entry), so ``show --sched`` never decompresses a step, and ``ls`` never
    inflates a single body byte.
    """

    key: str
    path: Path
    header: dict
    #: Compressed byte length of the header member — the steps member's
    #: file offset.  Zero only for hand-built entries that never read lazily.
    header_bytes: int = 0

    @property
    def contents(self) -> dict:
        """The canonical spec contents the artifact was keyed by."""
        return self.header["run"]

    @property
    def run(self) -> RunSpec:
        return spec_from_contents(self.contents)

    # -- lazy member access --------------------------------------------------------

    @property
    def segments_inflated(self) -> int:
        """1 once the steps member has been decoded (:attr:`runs`), else 0."""
        return int("runs" in self.__dict__)

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

    @cached_property
    def runs(self) -> list[StepRun]:
        """The stored step runs, in the artifact's canonical run order.

        Raises ``ValueError`` when a run's count is not a positive integer,
        its duration is negative or not finite, or its utilisations do not
        number its threads, and when the runs do not stand for exactly the
        header's ``nsteps`` records.
        """
        where = f"{self.path} steps member"
        runs: list[StepRun] = []
        steps_bytes = int(self.header["steps_bytes"])
        for record in self._member_records(self.header_bytes, steps_bytes, "steps"):
            for *fields, util, ipc, work, count in record["runs"]:
                run = StepRun(*fields, tuple(util), ipc, work, count)
                if type(count) is not int or count < 1:
                    raise ValueError(f"{where} has a run of count {count!r}")
                if not (math.isfinite(run.duration) and run.duration >= 0):
                    raise ValueError(f"{where} has a run of duration {run.duration!r}")
                if len(run.thread_utilisation) != run.nthreads:
                    raise ValueError(
                        f"{where} has a run of {run.nthreads} thread(s) with "
                        f"{len(run.thread_utilisation)} utilisation(s)"
                    )
                runs.append(run)
        total = sum(run.count for run in runs)
        if total != int(self.header["nsteps"]):
            raise ValueError(
                f"{where} decodes to {total} step(s), header says {self.header['nsteps']}"
            )
        return runs

    @cached_property
    def mask_records(self) -> list[MaskChangeRecord]:
        """The mask-change records, inflating the mask member on first touch."""
        offset = self.header_bytes + int(self.header["steps_bytes"])
        records = self._member_records(offset, int(self.header["mask_bytes"]), "mask_change")
        return [MaskChangeRecord.from_record(record) for record in records]

    @cached_property
    def sched_records(self) -> list[dict]:
        """The raw scheduler-timeline records, inflating the sched member on
        first touch (empty for sched-less runs)."""
        offset = (
            self.header_bytes
            + int(self.header["steps_bytes"])
            + int(self.header["mask_bytes"])
        )
        return self._member_records(offset, int(self.header["sched_bytes"]))

    @cached_property
    def sched(self) -> SchedTimeline:
        """The run's scheduler timeline (empty for sched-less runs)."""
        return SchedTimeline.from_records(self.sched_records)

    @cached_property
    def tracer(self) -> Tracer:
        """The full tracer, assembled from the stored runs plus the masks."""
        tracer = Tracer()
        tracer.record_steps(self.runs)
        for change in self.mask_records:
            tracer.record_mask_change(change)
        return tracer


# -- the store ------------------------------------------------------------------------


def _summary(run: RunSpec, header: dict) -> dict:
    """The render-ready fields of one artifact header — everything the
    ``ls`` table prints, precomputed at write/index time."""
    return {
        "scenario": header["scenario"],
        "workload": run.workload.label,
        "nsteps": header["nsteps"],
        "nmask_changes": header["nmask_changes"],
        "end_time": header["end_time"],
    }


def _summarise_header(header: dict) -> dict | None:
    """:func:`_summary` of a stored header (``None`` when it is
    malformed) — the index rebuild path."""
    try:
        return _summary(spec_from_contents(header["run"]), header)
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
        + int(header["steps_bytes"])
        + int(header["mask_bytes"])
        + int(header["sched_bytes"])
    )
    actual = path.stat().st_size
    if actual != expected:
        raise ValueError(
            f"trace {path.name} holds {actual} byte(s), its header "
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
    """Content-addressed, mergeable store of full run traces: one multi-member
    gzip JSONL artifact per cell, keyed like the metrics tier."""

    SUFFIX = ".jsonl.gz"
    VERSION = TRACE_FORMAT_VERSION
    KIND = "traces"
    NOUN = "trace"

    # Own-class aliases of the shared methods: the per-layer benchmark
    # (benchmarks/drombench/layers.py) wraps them through ``vars(cls)``.
    get = ContentStore.get
    scan = ContentStore.scan

    def _decode(self, key: str, path: Path) -> TraceEntry:
        header, header_bytes = _header_span(path)
        return TraceEntry(key=key, path=path, header=header, header_bytes=header_bytes)

    def _summarise(self, entry: TraceEntry) -> dict | None:
        return _summarise_header(entry.header)

    def _verify(self, entry: TraceEntry) -> None:
        # ``get`` checks the header and the member sizes only; a same-size
        # byte flip inside a member shows when the member is decoded.
        entry.runs
        entry.mask_records
        entry.sched

    def put(self, run: RunSpec, result: "ScenarioResult") -> Path:
        """Persist one executed run's full trace under its content key.

        Idempotent overwrite: the serialisation is deterministic (stable
        canonical runs, sorted JSON keys, gzip mtimes pinned to 0), so re-puts
        of the same cell write byte-identical artifacts.
        """
        contents = spec_contents(run)
        key = contents_key(contents)
        tracer = result.tracer
        changes = tracer.mask_changes()
        runs = _canonical_runs(tracer.runs())
        steps_blob = _records_member([{"record": "steps", "runs": runs}] if runs else [])
        mask_blob = _records_member([change.to_record() for change in changes])
        sched = getattr(result, "sched", None)
        sched_records = sched.to_records() if sched is not None else []
        sched_blob = _records_member(sched_records)
        header = {
            "record": "run",
            "version": TRACE_FORMAT_VERSION,
            "key": key,
            "run": contents,
            "run_id": run.cell_id,
            "scenario": run.scenario,
            "workload": result.workload.name,
            "end_time": result.end_time,
            "cycles_per_us": NOMINAL_CYCLES_PER_US,
            "nsteps": len(tracer),
            "nmask_changes": len(changes),
            "steps_bytes": len(steps_blob),
            "mask_bytes": len(mask_blob),
            "sched_bytes": len(sched_blob),
            "nsched": len(sched_records),
        }
        data = (
            _gzip_member(json.dumps(header, sort_keys=True) + "\n")
            + steps_blob
            + mask_blob
            + sched_blob
        )
        path = self._write(key, data, _summary(run, header))
        _log.debug(
            "put %s (%s, %d step record(s), %d run(s))",
            key[:12],
            run.cell_id,
            len(tracer),
            len(runs),
        )
        return path
