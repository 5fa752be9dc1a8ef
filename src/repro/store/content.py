"""Content addressing shared by both store tiers: the key and the store.

Both tiers key every run by a **stable hash of the run spec's contents** —
scenario, workload reference (including its generator seed), cluster, mask
policy, scheduler options and interference factor — and deliberately *not*
the grid ``index``: the same cell appearing at position 3 of one campaign and
position 17 of another is the same simulation and must share one entry.

:class:`ContentStore` is everything the metrics tier
(:class:`~repro.results.store.ResultStore`) and the trace tier
(:class:`~repro.traces.store.TraceStore`) have in common: one
``<key><SUFFIX>`` file per cell under a root directory, the lazily built
:class:`~repro.store.index.StoreIndex` beside it, atomic writes, misses for
anything unreadable, and the maintenance verbs (``load``/``summaries``/
``entries``/``remove``/``gc``/``merge``).  A tier is only its codec: the
class attributes ``SUFFIX``, ``VERSION``, ``KIND`` and ``NOUN``, a
:meth:`~ContentStore._decode` hook turning one file into the tier's entry
(raising one of :data:`READ_ERRORS` on stale or corrupt input) and a
:meth:`~ContentStore._summarise` hook producing the entry's ``ls`` row.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

from repro.campaign.spec import (
    ClusterRef,
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    PolicyRef,
    RunSpec,
    SchedulerRef,
    SyntheticWorkloadRef,
    WorkloadRef,
)
from repro.obs.log import get_logger
from repro.store.index import IndexEntry, StoreIndex
from repro.workload.generator import AppMixEntry, SizeMixEntry, WorkloadSpec

_log = get_logger("store")

#: Everything a read of a missing/corrupt/stale entry can raise, and that
#: must therefore read as a *miss* rather than abort a campaign: filesystem
#: errors (``gzip.BadGzipFile`` is an ``OSError``), malformed or non-UTF-8
#: payloads (``UnicodeDecodeError`` is a ``ValueError``), missing fields, and
#: truncated or bit-rotted compressed streams (``EOFError`` / ``zlib.error``
#: — e.g. an interrupted copy of a shard store).
READ_ERRORS = (OSError, ValueError, KeyError, TypeError, EOFError, zlib.error)


# -- canonical spec (de)serialisation ------------------------------------------------


def _workload_to_dict(ref: WorkloadRef) -> dict:
    payload = asdict(ref)
    payload["type"] = type(ref).__name__
    return payload


_WORKLOAD_TYPES = {
    cls.__name__: cls
    for cls in (SyntheticWorkloadRef, InSituWorkloadRef, HighPriorityWorkloadRef)
}


def _workload_from_dict(payload: dict) -> WorkloadRef:
    kind = payload["type"]
    if kind not in _WORKLOAD_TYPES:
        raise ValueError(f"unknown workload reference type {kind!r}")
    if kind == "SyntheticWorkloadRef":
        spec = payload["spec"]
        return SyntheticWorkloadRef(
            spec=WorkloadSpec(
                njobs=spec["njobs"],
                arrival=spec["arrival"],
                mean_interarrival=spec["mean_interarrival"],
                app_mix=tuple(AppMixEntry(**entry) for entry in spec["app_mix"]),
                priority_levels=tuple(spec["priority_levels"]),
                nodes=spec["nodes"],
                work_scale=spec["work_scale"],
                iterations=spec["iterations"],
                name=spec["name"],
                size_mix=tuple(SizeMixEntry(**entry) for entry in spec["size_mix"]),
                burst_size=spec["burst_size"],
            ),
            seed=payload["seed"],
        )
    if kind == "InSituWorkloadRef":
        return InSituWorkloadRef(
            simulator=payload["simulator"],
            simulator_config=payload["simulator_config"],
            analytics=payload["analytics"],
            analytics_config=payload["analytics_config"],
            analytics_submit=payload["analytics_submit"],
            simulator_kwargs=tuple(
                (key, value) for key, value in payload["simulator_kwargs"]
            ),
            analytics_nodes=payload["analytics_nodes"],
        )
    return HighPriorityWorkloadRef(second_submit=payload["second_submit"])


def spec_contents(run: RunSpec) -> dict:
    """The canonical, JSON-able contents of a run spec — everything that
    determines what the run computes, and nothing that doesn't (``index``)."""
    return {
        "scenario": run.scenario,
        "workload": _workload_to_dict(run.workload),
        "cluster": asdict(run.cluster),
        "policy": run.policy.name if run.policy is not None else None,
        "scheduler": asdict(run.scheduler),
        "interference_factor": run.interference_factor,
    }


def spec_from_contents(contents: dict, index: int = 0) -> RunSpec:
    """Rebuild a run spec from its stored contents (inverse of
    :func:`spec_contents` up to the grid ``index``)."""
    policy = contents["policy"]
    return RunSpec(
        index=index,
        scenario=contents["scenario"],
        workload=_workload_from_dict(contents["workload"]),
        cluster=ClusterRef(**contents["cluster"]),
        policy=PolicyRef(policy) if policy is not None else None,
        interference_factor=contents["interference_factor"],
        scheduler=SchedulerRef(**contents["scheduler"]),
    )


def content_key(run: RunSpec) -> str:
    """Stable content hash of a run spec (hex SHA-256 of its canonical JSON)."""
    payload = json.dumps(spec_contents(run), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- the store ------------------------------------------------------------------------


class ContentStore:
    """Content-addressed, mergeable directory of one entry file per cell.

    Contract shared by both tiers: entries are pure functions of their key's
    spec, reads never abort a campaign (a bad entry is a miss, and ``run in
    store`` exactly when :meth:`get` would hit), writes are atomic, and
    :meth:`merge` is the cross-host sharding union.
    """

    #: Entry file suffix, format version stamped into (and required of)
    #: every entry, the index journal's ``kind`` and the word messages use
    #: for one entry.
    SUFFIX: str
    VERSION: int
    KIND: str
    NOUN: str

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._index: StoreIndex | None = None

    def __getstate__(self) -> dict:
        # Stores ship into pool/SSH workers (WorkerContext); the index is
        # per-process derived state and rebuilds lazily on the other side.
        return {name: value for name, value in vars(self).items() if name != "_index"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._index = None

    @property
    def index(self) -> StoreIndex:
        """The store's append-only JSONL index (derived metadata; the entry
        files stay the only ground truth)."""
        if self._index is None:
            self._index = StoreIndex(
                self.root,
                suffix=self.SUFFIX,
                store_version=self.VERSION,
                describe=self._describe,
                kind=self.KIND,
            )
        return self._index

    # -- codec hooks -------------------------------------------------------------

    def _decode(self, key: str, path: Path):
        """The tier's entry for one file; raises one of :data:`READ_ERRORS`
        on an unreadable, malformed or stale-format file."""
        raise NotImplementedError

    def _summarise(self, entry) -> dict | None:
        """The render-ready fields the tier's ``ls`` table prints, or
        ``None`` when the entry cannot render."""
        raise NotImplementedError

    def _bind(self, run: RunSpec, entry):
        """What :meth:`get` returns for a decoded hit on ``run`` (the entry
        itself unless the tier rebinds it to the requesting spec)."""
        return entry

    # -- addressing --------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{self.SUFFIX}"

    def scan(self) -> frozenset[str]:
        """Every key present, from the index journal — O(1) filesystem work
        on a warm store, one ``listdir`` + stat-diff after any write.

        The campaign warm-scan and :meth:`merge` probe membership for N
        cells against this one set.  Presence is name-level only — readers
        still validate format on access, so a scanned key can turn out to
        be a miss when its entry is stale — and the index self-heals from
        the directory whenever it is missing, torn or disagrees with it.
        """
        if not self.root.is_dir():
            return frozenset()
        return self.index.scan()

    def keys(self) -> list[str]:
        return sorted(self.scan())

    def __len__(self) -> int:
        return len(self.scan())

    def __contains__(self, run: RunSpec) -> bool:
        """Whether :meth:`get` would hit on ``run`` (without counting as a
        read for LRU retention)."""
        try:
            self._bind(run, self._read(content_key(run)))
        except READ_ERRORS:
            return False
        return True

    # -- read/write --------------------------------------------------------------

    def _read(self, key: str):
        return self._decode(key, self.path_for(key))

    def get(self, run: RunSpec, key: str | None = None):
        """The stored entry of ``run``'s cell, or ``None`` on a miss
        (including unreadable, old-format or otherwise malformed entries — a
        bad cache entry must mean "re-simulate", never abort the campaign).
        ``key`` is an optional precomputed ``content_key(run)`` so batch
        scans hash each spec once."""
        if key is None:
            key = content_key(run)
        try:
            hit = self._bind(run, self._read(key))
        except READ_ERRORS:
            return None
        self.index.note_read(key)
        return hit

    def _write(self, key: str, data: bytes, summary: dict | None) -> Path:
        """Write one entry file and journal it (idempotent overwrite)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        # Unique temp name + atomic rename: concurrent writers of the same
        # cell (pool workers, campaign shards) cannot interleave bytes.
        tmp = self.root / f".{key}.{os.getpid()}.tmp"
        tmp.write_bytes(data)
        tmp.replace(path)
        try:
            st = path.stat()
        except OSError:
            return path  # the next scan reconciles the written file in
        self.index.record_put(
            key,
            size=st.st_size,
            mtime_ns=st.st_mtime_ns,
            version=self.VERSION,
            summary=summary,
        )
        return path

    def _describe(self, path: Path) -> tuple[object, dict | None]:
        """Index rebuild callback: a file's format version and summary, with
        every failure mapping to "present but not renderable" — never raises."""
        try:
            entry = self._decode(path.name[: -len(self.SUFFIX)], path)
        except READ_ERRORS:
            return None, None
        return self.VERSION, self._summarise(entry)

    def load(self, key: str):
        """Read one entry by (possibly abbreviated, unambiguous) key."""
        matches = [k for k in self.keys() if k.startswith(key)]
        if not matches:
            raise KeyError(f"no {self.NOUN} with key {key!r} in {self.root}")
        if len(matches) > 1:
            raise KeyError(f"key {key!r} is ambiguous ({len(matches)} matches)")
        entry = self._read(matches[0])
        self.index.note_read(matches[0])
        return entry

    def summaries(
        self, prefix: str | None = None, limit: int | None = None
    ) -> list[IndexEntry]:
        """Render-ready listing rows straight from the index — one journal
        read instead of N entry reads.  Keys whose file is stale or
        unreadable (``summary is None``) are excluded, matching
        :meth:`entries`'s visibility rule; rows come in key order."""
        if not self.root.is_dir():
            return []
        rows = self.index.live_entries()
        out: list[IndexEntry] = []
        for key in sorted(rows):
            if limit is not None and len(out) >= limit:
                break
            if prefix is not None and not key.startswith(prefix):
                continue
            if rows[key].summary is None:
                continue
            out.append(rows[key])
        return out

    def entries(self) -> Iterator:
        """All live entries, sorted by key (corrupt or old-format files are
        skipped — same visibility rule as :meth:`get`)."""
        for key in self.keys():
            try:
                yield self._read(key)
            except READ_ERRORS:
                continue

    # -- maintenance -------------------------------------------------------------

    def remove(self, key: str) -> None:
        self.path_for(key).unlink(missing_ok=True)
        self.index.record_remove(key)

    def gc(
        self,
        predicate=None,
        dry_run: bool = False,
        lru_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> list[str]:
        """Collect entries: unreadable/old-format files always, plus any whose
        decoded entry satisfies ``predicate``, plus the retention policies'
        picks — ``max_age`` dooms entries whose file is older than that many
        seconds, ``lru_bytes`` then evicts least-recently-read entries until
        the survivors total at most that many bytes (recency comes from the
        index's read tracking).  Returns removed keys."""
        doomed: list[str] = []
        for key in self.keys():
            try:
                entry = self._read(key)
            except READ_ERRORS:
                doomed.append(key)
                continue
            if predicate is not None and predicate(entry):
                doomed.append(key)
        doomed.extend(
            self.index.retention_doomed(
                lru_bytes=lru_bytes, max_age=max_age, now=now, exclude=set(doomed)
            )
        )
        if not dry_run:
            for key in doomed:
                self.remove(key)
                _log.debug("gc removed %s", key[:12])
        _log.info(
            "gc %s %d of %d %s file(s) in %s",
            "would remove" if dry_run else "removed",
            len(doomed),
            len(self.keys()) + (0 if dry_run else len(doomed)),
            self.KIND,
            self.root,
        )
        return doomed

    def merge(self, other: "ContentStore", overwrite: bool = False) -> int:
        """Union another store's entries into this one (the campaign-sharding
        merge path: shards fill disjoint key sets, the union is the campaign).

        Returns the number of entries copied.  With ``overwrite=False`` keys
        already present locally win, which is safe because entries are pure
        functions of their key's spec.  Old-format or unreadable source
        entries are never imported, and a stale or unreadable local file
        never shadows a current incoming one — cells whose serialised
        contents survived a schema bump keep their key, so a pre-bump shard
        must not block the post-bump entry.
        """
        copied = 0
        present = self.scan()
        for key in sorted(other.scan()):
            if not overwrite and key in present:
                # Check the local side first: a warm re-merge (coordinator
                # re-running after each shard lands) then skips without ever
                # reading the source store — and the single-pass scan above
                # means absent keys cost no filesystem probe at all.
                try:
                    self._read(key)
                    continue
                except READ_ERRORS:
                    pass  # stale or unreadable: the incoming entry wins
            try:
                entry = other._read(key)
                data = entry.path.read_bytes()
            except READ_ERRORS:
                continue
            self._write(key, data, self._summarise(entry))
            copied += 1
        _log.info("merged %d %s file(s) from %s", copied, self.KIND, other.root)
        return copied
