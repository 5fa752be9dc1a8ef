"""Persistent results layer — the seam between execution and reporting.

PR 1 made the paper's evaluation grid declarative (`repro.campaign`); this
package makes it *persistent and reusable*:

* :mod:`repro.results.store` — a content-addressed
  :class:`~repro.results.store.ResultStore`: every run is keyed by a stable
  hash of its :class:`~repro.campaign.spec.RunSpec` contents (scenario,
  workload reference + seed, cluster, mask policy, scheduler options,
  interference — and *not* its grid index), and its
  :class:`~repro.campaign.runner.RunMetrics` row persists as one JSON file.
  ``run_campaign(..., store=...)`` consults the store first and simulates
  only the misses; cached and fresh campaigns aggregate byte-identically.
  Stores merge by key union, which is the cross-host sharding path.
* :mod:`repro.results.sinks` — the Paraver-style ``.prv`` (with its
  ``.pcf``/``.row`` companions) and JSONL renderers behind ``python -m
  repro.traces export``.
* :mod:`repro.results.query` — list / show / diff reporting over stores,
  also available as ``python -m repro.results ls|show|diff|gc``.

The *trace* tier — full per-run tracers, content-addressed by the same key —
lives in :mod:`repro.traces`; ``python -m repro.results merge --traces``
ships both tiers of a sharded campaign in one command.
"""

from repro.results.query import (
    StoreDiff,
    diff_stores,
    render_diff,
    render_entry,
    render_store_table,
)
from repro.results.sinks import pcf_text, prv_text, read_prv, row_text
from repro.results.store import (
    DEFAULT_STORE_ROOT,
    STORE_FORMAT_VERSION,
    ResultStore,
    StoreEntry,
    content_key,
    spec_contents,
    spec_from_contents,
)

__all__ = [
    "ResultStore",
    "StoreEntry",
    "DEFAULT_STORE_ROOT",
    "STORE_FORMAT_VERSION",
    "content_key",
    "spec_contents",
    "spec_from_contents",
    "prv_text",
    "pcf_text",
    "row_text",
    "read_prv",
    "StoreDiff",
    "diff_stores",
    "render_diff",
    "render_entry",
    "render_store_table",
]
