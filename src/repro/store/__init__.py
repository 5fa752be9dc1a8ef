"""Shared machinery of the content-addressed store tiers.

* :mod:`repro.store.content` — the content key and
  :class:`~repro.store.content.ContentStore`, everything
  :class:`~repro.results.store.ResultStore` and
  :class:`~repro.traces.store.TraceStore` share; each tier supplies only
  its codec (suffix, version, index kind, ``_decode`` and ``_summarise``).
* :mod:`repro.store.index` — the append-only JSONL index that makes scans
  O(1) on warm stores.  It is derived metadata: the one-file-per-cell
  directory stays the only ground truth.
* :mod:`repro.store.cli` — the ``ls``/``show``/``gc`` commands of both
  store CLIs.
"""

from repro.store.index import INDEX_SUFFIX, INDEX_VERSION, IndexEntry, StoreIndex

__all__ = ["INDEX_SUFFIX", "INDEX_VERSION", "IndexEntry", "StoreIndex"]
