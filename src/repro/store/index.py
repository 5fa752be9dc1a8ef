"""Append-only JSONL index over a one-file-per-cell store root.

Both store tiers are one file per content key, which keeps writes atomic and
merges a plain file union — but made every ``scan()``, ``ls`` and warm
campaign lookup an O(N) directory walk, and every listing an O(N) sequence
of full entry reads.  :class:`StoreIndex` journals the store's membership
and render-ready summary fields into a sibling ``<root>.index.jsonl`` file,
following the append-only-manifest pattern of
:class:`repro.exec.manifest.CampaignManifest`:

* every record is one JSON line appended with the file opened in append
  mode, so concurrent writers (pool workers, SSH workers on a shared
  filesystem) interleave whole records, never bytes;
* replay is last-state-wins and skips malformed lines, so a torn tail from
  a crashed writer costs at most that writer's record;
* the journal compacts in place (temp file + atomic rename) once it holds
  several times more lines than live entries.

The index is **derived metadata, never ground truth**: the directory of
entry files is authoritative, and every anomaly — missing index, truncated
tail, foreign bytes, an entry file added or deleted behind the index's back
— degrades to a directory reconcile that self-heals the journal.  Freshness
is tracked with explicit ``synced`` records carrying the root directory's
mtime: a scan whose journal carries a ``synced`` marker matching the current
directory mtime trusts the replayed key set outright (O(1) in the number of
filesystem operations); anything else falls back to one ``listdir`` plus a
stat-diff, re-describing only the files whose size or mtime changed.

Record kinds::

    {"record": "index", "version": 1, "kind": ..., "store_version": N}
    {"record": "entry", "key": K, "size": S, "mtime_ns": T, "version": V,
     "summary": {...} | null}
    {"record": "remove", "key": K}
    {"record": "read", "key": K}
    {"record": "synced", "dir_mtime_ns": T}

The first valid line must be the ``index`` header; a version or
``store_version`` mismatch invalidates the whole journal (rebuilt on the
next scan, exactly like a schema bump turns store entries into misses).
``read`` records implement LRU retention without wall-clock entries: a
key's recency is the line number of its last ``entry``/``read`` record, so
``gc(lru_bytes=...)`` evicts in journal order, oldest activity first.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.obs.log import get_logger

_log = get_logger("store.index")

INDEX_VERSION = 1

#: The journal lives *next to* the store root (``<root>.index.jsonl``), not
#: inside it: the root directory stays exactly the set of entry files, so
#: whole-directory byte comparisons, shard shipping and ``merge`` never see
#: the index, and the root's mtime only moves when ground truth changes.
INDEX_SUFFIX = ".index.jsonl"

#: Compact once the journal holds more than ``_COMPACT_FACTOR`` lines per
#: live entry (and at least ``_COMPACT_FLOOR`` lines — tiny stores never
#: compact).
_COMPACT_FLOOR = 64
_COMPACT_FACTOR = 4

#: Buffered ``read`` notes flush to disk once this many accumulate (or on
#: the next scan/maintenance write, whichever comes first).
_READ_FLUSH = 64

#: In-memory fallback marker for :attr:`StoreIndex._sig` when the journal
#: cannot be written (read-only shipped shard directories): the replayed
#: state stays authoritative for this object and every scan re-verifies
#: against the directory via the ``synced`` check.
_MEMORY = "memory"


@dataclass(frozen=True)
class IndexEntry:
    """One indexed cell: identity, cheap stat fields and a render summary.

    ``summary`` holds the tier-specific fields its ``ls`` table renders
    (scenario, workload label, headline metrics, ...); it is ``None`` for
    files that are unreadable or carry a stale format version — those keys
    still *scan* (presence is name-level, matching the stores' contract)
    but never render.
    """

    key: str
    size: int
    mtime_ns: int
    version: object
    summary: dict | None


def _loads_or_none(line: bytes) -> object:
    """One journal line's record, or ``None`` when it does not parse."""
    try:
        return json.loads(line)
    except ValueError:
        return None


class _State:
    """Replayed journal state: live entries plus activity ordinals."""

    __slots__ = ("entries", "order", "lines", "synced_ns")

    def __init__(self) -> None:
        self.entries: dict[str, IndexEntry] = {}
        #: key -> line number of its last entry/read record (LRU recency).
        self.order: dict[str, int] = {}
        self.lines = 0
        self.synced_ns: int | None = None


class StoreIndex:
    """The journal of one store root.

    ``describe`` is the tier's callback ``path -> (version, summary | None)``
    used when the index (re)builds from the directory; it must never raise
    (an unreadable file describes as ``(None, None)``).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        suffix: str,
        store_version: int,
        describe: Callable[[Path], tuple[object, dict | None]],
        kind: str = "store",
    ) -> None:
        self.root = Path(root)
        self.suffix = suffix
        self.store_version = store_version
        self.describe = describe
        self.kind = kind
        #: Scan outcomes, for telemetry: ``hits`` (fresh journal trusted
        #: outright), ``reconciles`` (stat-diff against the directory),
        #: ``rebuilds`` (journal missing/invalid, re-described from scratch).
        self.stats = {"hits": 0, "reconciles": 0, "rebuilds": 0}
        self._state: _State | None = None
        self._sig: tuple[int, int] | str | None = None
        self._pending_reads: list[str] = []

    @property
    def path(self) -> Path:
        return self.root.parent / f"{self.root.name}{INDEX_SUFFIX}"

    # -- journal replay ----------------------------------------------------------

    def _stat_sig(self) -> tuple[int, int] | None:
        try:
            st = self.path.stat()
        except OSError:
            return None
        return (st.st_size, st.st_mtime_ns)

    def _replay(self) -> _State | None:
        """Parse the journal, last state wins; ``None`` when the file is
        missing, has no valid header, or was written for another schema."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            return None
        # Fast path: a clean journal parses in one bulk json.loads (the
        # lines joined into an array), several times faster than one loads
        # per line at 10k+ entries.  Any torn tail, blank line or foreign
        # bytes fail the bulk parse and drop to one loads per line, where an
        # unparsable line becomes a ``None`` that still counts as a line.
        stripped = raw.strip()
        try:
            records = (
                json.loads(b"[" + stripped.replace(b"\n", b",") + b"]")
                if stripped
                else []
            )
        except ValueError:
            records = [_loads_or_none(line) for line in raw.splitlines()]
        state = _State()
        saw_header = False
        for record in records:
            state.lines += 1
            if not isinstance(record, dict):
                continue  # torn tail or foreign bytes: skip, never abort
            if not saw_header:
                if (
                    record.get("record") != "index"
                    or record.get("version") != INDEX_VERSION
                    or record.get("store_version") != self.store_version
                ):
                    return None
                saw_header = True
                continue
            self._apply(state, record)
        return state if saw_header else None

    def _apply(self, state: _State, record: dict) -> None:
        kind = record.get("record")
        key = record.get("key")
        if kind == "entry" and isinstance(key, str):
            state.entries[key] = IndexEntry(
                key=key,
                size=int(record.get("size", 0)),
                mtime_ns=int(record.get("mtime_ns", 0)),
                version=record.get("version"),
                summary=record.get("summary"),
            )
            state.order[key] = state.lines
        elif kind == "remove" and isinstance(key, str):
            state.entries.pop(key, None)
            state.order.pop(key, None)
        elif kind == "read" and isinstance(key, str):
            if key in state.entries:
                state.order[key] = state.lines
        elif kind == "synced":
            try:
                state.synced_ns = int(record["dir_mtime_ns"])
            except (KeyError, TypeError, ValueError):
                pass

    def _load(self) -> _State | None:
        if self._sig == _MEMORY and self._state is not None:
            return self._state
        sig = self._stat_sig()
        if sig is not None and self._state is not None and sig == self._sig:
            return self._state
        self._state = self._replay()
        self._sig = sig
        return self._state

    # -- journal writes (all best-effort) ----------------------------------------

    def _header_record(self) -> dict:
        return {
            "record": "index",
            "version": INDEX_VERSION,
            "kind": self.kind,
            "store_version": self.store_version,
        }

    def _write_records(self, records: Iterable[dict], mode: str) -> bool:
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        try:
            with open(self.path, mode, encoding="utf-8") as stream:
                stream.write(text)
        except OSError:
            return False
        return True

    def _append(self, state: _State, records: list[dict]) -> None:
        """Apply ``records`` to the in-memory state and journal them; a
        failed write (read-only root) keeps the state in memory only."""
        for record in records:
            state.lines += 1
            self._apply(state, record)
        self._state = state
        if self._write_records(records, "a"):
            self._sig = self._stat_sig()
        else:
            self._sig = _MEMORY

    def _rewrite(self, records: list[dict]) -> _State:
        """Replace the whole journal (rebuild/compaction): temp file +
        atomic rename, so concurrent readers always see a valid journal."""
        state = _State()
        state.lines = 1  # the header line
        for record in records:
            state.lines += 1
            self._apply(state, record)
        self._state = state
        text = "".join(
            json.dumps(r, sort_keys=True) + "\n"
            for r in [self._header_record()] + records
        )
        tmp = self.path.parent / f".{self.path.name}.{os.getpid()}.tmp"
        try:
            tmp.write_text(text, encoding="utf-8")
            tmp.replace(self.path)
            self._sig = self._stat_sig()
        except OSError:
            self._sig = _MEMORY
        return state

    # -- scanning ----------------------------------------------------------------

    def scan(self) -> frozenset[str]:
        """Every key present, trusting a fresh journal outright and falling
        back to a self-healing directory reconcile on any disagreement."""
        try:
            dir_ns = self.root.stat().st_mtime_ns
        except OSError:
            return frozenset()
        self.flush_reads()
        state = self._load()
        if state is not None and state.synced_ns == dir_ns:
            self.stats["hits"] += 1
            return frozenset(state.entries)
        return self._reconcile(state, dir_ns)

    def _listing(self) -> dict[str, tuple[int, int]]:
        """key -> (size, mtime_ns) of every entry file currently on disk."""
        disk: dict[str, tuple[int, int]] = {}
        try:
            names = os.listdir(self.root)
        except OSError:
            return disk
        for name in names:
            if not name.endswith(self.suffix) or name.startswith("."):
                continue
            try:
                st = (self.root / name).stat()
            except OSError:
                continue  # raced with a concurrent remove
            disk[name[: -len(self.suffix)]] = (st.st_size, st.st_mtime_ns)
        return disk

    def _entry_record(self, key: str, size: int, mtime_ns: int) -> dict:
        version, summary = self.describe(self.root / f"{key}{self.suffix}")
        return {
            "record": "entry",
            "key": key,
            "size": size,
            "mtime_ns": mtime_ns,
            "version": version,
            "summary": summary,
        }

    def _reconcile(self, state: _State | None, dir_ns: int) -> frozenset[str]:
        disk = self._listing()
        if state is None:
            self.stats["rebuilds"] += 1
            _log.debug("index %s: rebuilding from %d file(s)", self.path, len(disk))
            records = [
                self._entry_record(key, size, mtime_ns)
                for key, (size, mtime_ns) in sorted(disk.items())
            ]
            records.append({"record": "synced", "dir_mtime_ns": dir_ns})
            self._rewrite(records)
            return frozenset(disk)
        self.stats["reconciles"] += 1
        records: list[dict] = []
        for key, (size, mtime_ns) in sorted(disk.items()):
            known = state.entries.get(key)
            if known is None or known.size != size or known.mtime_ns != mtime_ns:
                records.append(self._entry_record(key, size, mtime_ns))
        for key in sorted(set(state.entries) - set(disk)):
            records.append({"record": "remove", "key": key})
        if records:
            _log.debug("index %s: reconciled %d change(s)", self.path, len(records))
        records.append({"record": "synced", "dir_mtime_ns": dir_ns})
        self._append(state, records)
        self._maybe_compact(state)
        return frozenset(disk)

    def live_entries(self) -> dict[str, IndexEntry]:
        """key -> :class:`IndexEntry` after a consistency pass — one journal
        read instead of N entry reads on a warm store."""
        keys = self.scan()
        state = self._state
        if state is None:
            return {}
        return {key: state.entries[key] for key in keys if key in state.entries}

    # -- store write-through -----------------------------------------------------

    def record_put(
        self, key: str, size: int, mtime_ns: int, version: object, summary: dict | None
    ) -> None:
        """Journal one written entry (called after the atomic rename).

        Deliberately does *not* append a ``synced`` marker: the put changed
        the directory mtime, so the next scan performs one stat-diff
        reconcile and re-marks freshness — which is also what heals the
        journal when other writers landed entries concurrently.
        """
        record = {
            "record": "entry",
            "key": key,
            "size": size,
            "mtime_ns": mtime_ns,
            "version": version,
            "summary": summary,
        }
        state = self._load()
        if state is None:
            if self.path.exists():
                return  # invalid journal: leave it for the next scan's rebuild
            # First write against this root: start the journal with what we
            # know.  No synced marker — if the directory predates the index,
            # the next scan reconciles the rest of the files in.
            self._rewrite([record])
            return
        self._append(state, self._drain_reads() + [record])
        self._maybe_compact(state)

    def record_remove(self, key: str) -> None:
        state = self._load()
        if state is None:
            return  # missing/invalid journal: the next scan rebuilds anyway
        self._append(state, self._drain_reads() + [{"record": "remove", "key": key}])

    # -- read tracking -----------------------------------------------------------

    def note_read(self, key: str) -> None:
        """Buffer one read for LRU retention; flushed in batches so hot
        lookups stay one list append."""
        self._pending_reads.append(key)
        if len(self._pending_reads) >= _READ_FLUSH:
            self.flush_reads()

    def _drain_reads(self) -> list[dict]:
        reads, self._pending_reads = self._pending_reads, []
        return [{"record": "read", "key": key} for key in reads]

    def flush_reads(self) -> None:
        if not self._pending_reads:
            return
        records = self._drain_reads()
        state = self._load()
        if state is None:
            return  # recency hints are best-effort; never force a rebuild
        self._append(state, records)
        self._maybe_compact(state)

    # -- compaction --------------------------------------------------------------

    def _maybe_compact(self, state: _State) -> None:
        if state.lines <= max(_COMPACT_FLOOR, _COMPACT_FACTOR * len(state.entries)):
            return
        # Live entries in activity order: replay assigns recency by line
        # number, so writing oldest-first preserves LRU order across the
        # rewrite without journalling any timestamps.
        records = [
            {
                "record": "entry",
                "key": entry.key,
                "size": entry.size,
                "mtime_ns": entry.mtime_ns,
                "version": entry.version,
                "summary": entry.summary,
            }
            for _ordinal, entry in sorted(
                (state.order.get(key, 0), entry) for key, entry in state.entries.items()
            )
        ]
        if state.synced_ns is not None:
            records.append({"record": "synced", "dir_mtime_ns": state.synced_ns})
        _log.debug(
            "index %s: compacted %d line(s) -> %d entr%s",
            self.path,
            state.lines,
            len(records),
            "y" if len(records) == 1 else "ies",
        )
        self._rewrite(records)

    # -- retention ---------------------------------------------------------------

    def retention_doomed(
        self,
        lru_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
        exclude: frozenset[str] | set[str] = frozenset(),
    ) -> list[str]:
        """Keys the retention policy wants gone, never touching ground truth.

        ``max_age`` dooms entries whose *file* is older than that many
        seconds (``now`` is injectable for tests); ``lru_bytes`` then evicts
        the least-recently-active survivors — journal activity order, a
        key's last ``entry``/``read`` record — until the remaining entries
        total at most that many bytes.  ``exclude`` lists keys already
        doomed by the caller (their bytes don't count against the budget).
        A negative ``lru_bytes`` or a negative or non-finite ``max_age``
        raises :class:`ValueError`.
        """
        if lru_bytes is not None and lru_bytes < 0:
            raise ValueError(f"lru_bytes must be >= 0, got {lru_bytes!r}")
        if max_age is not None and not (math.isfinite(max_age) and max_age >= 0):
            raise ValueError(
                f"max_age must be a finite number >= 0, got {max_age!r}"
            )
        if lru_bytes is None and max_age is None:
            return []
        live = self.scan()
        state = self._state
        if state is None:
            return []
        entries = {
            key: state.entries[key]
            for key in live
            if key in state.entries and key not in exclude
        }
        doomed: list[str] = []
        if max_age is not None:
            cutoff_ns = int(((time.time() if now is None else now) - max_age) * 1e9)
            for key in sorted(entries):
                if entries[key].mtime_ns < cutoff_ns:
                    doomed.append(key)
        if lru_bytes is not None:
            doomed_set = set(doomed)
            survivors = sorted(
                (state.order.get(key, 0), key)
                for key in entries
                if key not in doomed_set
            )
            total = sum(entries[key].size for _ordinal, key in survivors)
            for _ordinal, key in survivors:
                if total <= lru_bytes:
                    break
                doomed.append(key)
                total -= entries[key].size
        return doomed
