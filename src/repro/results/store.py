"""Content-addressed persistence for campaign run metrics.

The store keys every run by :func:`~repro.store.content.content_key`, the
content hash both tiers share (re-exported here with
:func:`spec_contents`/:func:`spec_from_contents`, its canonical spec
serialisation), so the same simulation reached from two campaigns shares
one entry.

Entries are small JSON documents (one per key) under a configurable root, so
the store needs no server, diffs cleanly under version control if someone
chooses to commit one, and two stores produced by different hosts shard a
campaign naturally: :meth:`ResultStore.merge` is a plain union of keys.
Everything but the JSON codec lives in
:class:`~repro.store.content.ContentStore`.

Determinism contract: a :class:`~repro.campaign.runner.RunMetrics` row
survives the JSON round trip byte-for-byte (Python floats serialise via
``repr``, which is shortest-round-trip exact), and :meth:`ResultStore.get`
rebinds the stored metrics to the *requesting* spec's grid index — so a
campaign aggregated from cache is indistinguishable from a freshly simulated
one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.runner import RunMetrics
from repro.campaign.spec import RunSpec
from repro.obs.log import get_logger
from repro.store.content import (
    ContentStore,
    content_key,
    contents_key,
    spec_contents,
    spec_from_contents,
)

_log = get_logger("results.store")

#: Default persistent location (gitignored; see ``.gitignore``).
DEFAULT_STORE_ROOT = Path("benchmarks") / "results" / "store"

#: Bumped whenever the entry layout or the content-hash inputs change; old
#: entries are then simply cache misses (and ``gc`` collects them).
#:
#: Version history:
#:
#: * 1 — initial layout (uniform per-workload node counts).
#: * 2 — per-job resource requests: the workload references serialise the
#:   generator's ``size_mix``/``burst_size`` families and the in-situ
#:   ``analytics_nodes``, all of which enter the content hash.  v1 cells were
#:   hashed without them, so treating one as a v2 hit could silently alias
#:   two different simulations — they are invalid, never rebound.
STORE_FORMAT_VERSION = 2


# -- metrics (de)serialisation --------------------------------------------------------


def _pairs_to_payload(pairs: tuple[tuple[str, float], ...]) -> list[list]:
    return [[label, value] for label, value in pairs]


def _pairs_from_payload(payload: list) -> tuple[tuple[str, float], ...]:
    return tuple((label, value) for label, value in payload)


def metrics_to_payload(row: RunMetrics) -> dict:
    """The stored JSON form of a row's metrics — also the executor
    transport's (:mod:`repro.exec.worker`), which ships :class:`RunMetrics`
    rows across subprocess/SSH boundaries using exactly the store's
    serialisation (floats via ``repr``, so rows survive the round trip
    byte-for-byte)."""
    return {
        "workload_name": row.workload_name,
        "total_run_time": row.total_run_time,
        "average_response_time": row.average_response_time,
        "makespan_end": row.makespan_end,
        "response_times": _pairs_to_payload(row.response_times),
        "wait_times": _pairs_to_payload(row.wait_times),
        "run_times": _pairs_to_payload(row.run_times),
        "job_utilisation": _pairs_to_payload(row.job_utilisation),
    }


def metrics_from_payload(run: RunSpec, payload: dict) -> RunMetrics:
    """Inverse of :func:`metrics_to_payload`, bound to ``run``."""
    return RunMetrics(
        run=run,
        workload_name=payload["workload_name"],
        total_run_time=payload["total_run_time"],
        average_response_time=payload["average_response_time"],
        makespan_end=payload["makespan_end"],
        response_times=_pairs_from_payload(payload["response_times"]),
        wait_times=_pairs_from_payload(payload["wait_times"]),
        run_times=_pairs_from_payload(payload["run_times"]),
        job_utilisation=_pairs_from_payload(payload["job_utilisation"]),
    )


# -- the store ------------------------------------------------------------------------


def _summary(run: RunSpec, metrics: dict) -> dict:
    """The render-ready fields of one entry — everything the ``ls`` table
    prints, precomputed once at write/index time so listings never rebuild
    N specs."""
    return {
        "scenario": run.scenario,
        "workload": run.workload.label,
        "cluster": run.cluster.label,
        "policy": run.policy.name if run.policy is not None else "default",
        "scheduler": run.scheduler.label,
        "total_run_time": metrics["total_run_time"],
        "average_response_time": metrics["average_response_time"],
    }


def _summarise_entry(contents: dict, metrics: dict) -> dict | None:
    """:func:`_summary` of stored contents (``None`` when they are
    malformed) — the index rebuild path."""
    try:
        return _summary(spec_from_contents(contents), metrics)
    except (KeyError, TypeError, ValueError):
        return None


@dataclass(frozen=True)
class StoreEntry:
    """One persisted run: its key, spec contents and raw metrics payload."""

    key: str
    path: Path
    contents: dict
    metrics: dict

    @property
    def run(self) -> RunSpec:
        return spec_from_contents(self.contents)

    def row(self, index: int = 0) -> RunMetrics:
        return metrics_from_payload(spec_from_contents(self.contents, index), self.metrics)


class ResultStore(ContentStore):
    """Content-addressed, mergeable store of :class:`RunMetrics` rows: one
    pretty-printed JSON file per cell.  :meth:`get` returns the stored row
    rebound to the requesting spec's grid index."""

    SUFFIX = ".json"
    VERSION = STORE_FORMAT_VERSION
    KIND = "results"
    NOUN = "entry"

    # Own-class aliases of the shared methods: the per-layer benchmark
    # (benchmarks/drombench/layers.py) wraps them through ``vars(cls)``.
    get = ContentStore.get
    scan = ContentStore.scan

    def __init__(self, root: str | os.PathLike = DEFAULT_STORE_ROOT) -> None:
        super().__init__(root)

    def _decode(self, key: str, path: Path) -> StoreEntry:
        payload = json.loads(path.read_text())
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != STORE_FORMAT_VERSION:
            raise ValueError(
                f"entry {key[:12]} has store format {version!r}, "
                f"expected {STORE_FORMAT_VERSION}"
            )
        return StoreEntry(
            key=key, path=path, contents=payload["run"], metrics=payload["metrics"]
        )

    def _summarise(self, entry: StoreEntry) -> dict | None:
        return _summarise_entry(entry.contents, entry.metrics)

    def _bind(self, run: RunSpec, entry: StoreEntry) -> RunMetrics:
        return metrics_from_payload(run, entry.metrics)

    def put(self, row: RunMetrics) -> Path:
        """Persist one row under its content key (idempotent overwrite)."""
        contents = spec_contents(row.run)
        key = contents_key(contents)
        metrics = metrics_to_payload(row)
        payload = {
            "version": STORE_FORMAT_VERSION,
            "key": key,
            "run": contents,
            "run_id": row.run.cell_id,
            "metrics": metrics,
        }
        data = (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("utf-8")
        path = self._write(key, data, _summary(row.run, metrics))
        _log.debug("put %s (%s)", key[:12], row.run.cell_id)
        return path
