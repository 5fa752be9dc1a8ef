"""The ``ls``/``show``/``gc`` commands both store CLIs share.

``python -m repro.results`` and ``python -m repro.traces`` each describe
their tier with one :class:`StoreCommands` — the store class, its default
root, how to render the listing and one entry, and the words its help text
and output use — and add their tier-only commands (``diff``/``merge``,
``export``) around it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.store.content import ContentStore


def checked(convert, ok, rule: str):
    """An argparse ``type`` that converts and accepts only ``ok`` values."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


#: Ready-made types for the store and campaign CLIs' numeric flags.
positive_int = checked(int, lambda v: v >= 1, "an integer >= 1")
non_negative_int = checked(int, lambda v: v >= 0, "an integer >= 0")
positive_finite = checked(
    float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0"
)
non_negative_finite = checked(
    float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0"
)


@dataclass(frozen=True)
class StoreCommands:
    """One tier's ``ls``/``show``/``gc`` wiring (metrics-tier wording by
    default)."""

    store: Callable[[str], ContentStore]
    default_root: Path
    #: ``(store, limit=, prefix=) -> str``: the ``ls`` table.
    render_table: Callable[..., str]
    #: ``(entry, args) -> str``: what ``show`` prints for one entry.
    render_entry: Callable[[object, argparse.Namespace], str]
    label: str = "store"
    cell: str = "cell"
    entry: str = "entry"
    entries: str = "entries"
    #: What the ``gc`` filters are said to match.
    matching: str = "entries"
    #: The unit of the ``gc`` summary line.
    removed: str = "entr(y/ies)"

    def add_store(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--store", default=str(self.default_root),
                            help=f"{self.label} root (default {self.default_root})")

    def add_ls(self, sub) -> None:
        ls = sub.add_parser("ls", help=f"list stored {self.cell}s")
        self.add_store(ls)
        ls.add_argument("--limit", type=positive_int, default=None, metavar="N",
                        help="print at most N rows")
        ls.add_argument("--prefix", default=None,
                        help="only list keys starting with this hex prefix")

    def add_show(self, sub, help: str) -> argparse.ArgumentParser:
        show = sub.add_parser("show", help=help)
        show.add_argument("key", help="content key (an unambiguous prefix is enough)")
        self.add_store(show)
        return show

    def add_gc(self, sub) -> None:
        gc = sub.add_parser(
            "gc", help=f"collect {self.entries} (dry run without --delete)"
        )
        self.add_store(gc)
        gc.add_argument("--scenario", default=None,
                        help=f"also collect {self.matching} of this scenario")
        gc.add_argument("--workload-contains", default=None, metavar="SUBSTRING",
                        help=f"also collect {self.matching} whose workload "
                             "label contains this")
        gc.add_argument("--all", action="store_true",
                        help=f"collect every {self.entry}")
        gc.add_argument("--lru", type=non_negative_int, default=None, metavar="BYTES",
                        help=f"evict least-recently-read {self.entries} until "
                             "the survivors total at most BYTES")
        gc.add_argument("--max-age", type=non_negative_finite, default=None,
                        metavar="SECONDS",
                        help=f"also collect {self.entries} whose file is older "
                             "than this")
        gc.add_argument("--delete", action="store_true",
                        help="actually delete (default: dry run)")

    def load(self, store: ContentStore, key: str):
        """The entry ``key`` names, or ``None`` after reporting why not."""
        try:
            return store.load(key)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return None

    def run(self, args: argparse.Namespace) -> int | None:
        """Run ``ls``/``show``/``gc``; ``None`` for a tier-only command."""
        if args.command not in ("ls", "show", "gc"):
            return None
        store = self.store(args.store)
        if args.command == "ls":
            print(f"{self.label} {store.root}: {len(store)} {self.cell}(s)")
            print(self.render_table(store, limit=args.limit, prefix=args.prefix))
            return 0
        if args.command == "show":
            entry = self.load(store, args.key)
            if entry is None:
                return 1
            print(self.render_entry(entry, args))
            return 0
        removed = store.gc(
            gc_predicate(args),
            dry_run=not args.delete,
            lru_bytes=args.lru,
            max_age=args.max_age,
        )
        verb = "removed" if args.delete else "would remove"
        print(f"gc {store.root}: {verb} {len(removed)} {self.removed}")
        for key in removed:
            print(f"  {key[:12]}")
        return 0


def gc_predicate(args: argparse.Namespace):
    """The entry filter ``gc``'s ``--all``/``--scenario``/
    ``--workload-contains`` flags select (``None``: only stale entries)."""
    if args.all:
        return lambda entry: True
    if args.scenario is None and args.workload_contains is None:
        return None  # only unreadable/old-format entries
    return lambda entry: (
        args.scenario in (None, entry.contents["scenario"])
        and (args.workload_contains is None
             or args.workload_contains in entry.run.workload.label)
    )
