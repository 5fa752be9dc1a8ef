"""``python -m repro.results`` — inspect and maintain a result store.

Subcommands::

    ls    [--store ROOT]                    list stored cells
    show  KEY [--store ROOT]                per-job metrics of one cell
    diff  STORE_A STORE_B                   cell-by-cell campaign comparison
    merge OUT SHARD [SHARD ...] [--traces T_OUT T_SHARD ...]
                                            union N shard stores into OUT,
                                            optionally shipping the trace
                                            tier in the same command
    gc    [--store ROOT] [filters] [--delete]   collect entries

``diff`` exits 0 when the stores agree on every shared cell and have the same
key set, 1 otherwise — so two shards (or a re-run) can be verified from CI.
``merge`` is the campaign-sharding transport: each host runs its
``CampaignSpec.shard(n)`` slice into a local store, ships the directory, and
the coordinator merges them all in one call (entries are pure functions of
their keys, so collisions are idempotent; first store wins unless
``--overwrite``).  ``gc`` is a dry run unless ``--delete`` is given;
unreadable or old-format entries are always candidates.
"""

from __future__ import annotations

import argparse
import sys

from repro.results.query import diff_stores, render_diff, render_entry, render_store_table
from repro.results.store import DEFAULT_STORE_ROOT, ResultStore
from repro.store.cli import StoreCommands

COMMANDS = StoreCommands(
    store=ResultStore,
    default_root=DEFAULT_STORE_ROOT,
    render_table=render_store_table,
    render_entry=lambda entry, args: render_entry(entry),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.results",
        description="Inspect a content-addressed campaign result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    COMMANDS.add_ls(sub)
    COMMANDS.add_show(sub, help="show one cell's full metrics")

    diff = sub.add_parser("diff", help="diff two stores cell by cell")
    diff.add_argument("store_a")
    diff.add_argument("store_b")

    merge = sub.add_parser(
        "merge", help="union one or more shard stores into a target store"
    )
    merge.add_argument("out", help="target store root (created if missing)")
    merge.add_argument("shards", nargs="+", metavar="SHARD",
                       help="shard store roots to merge in, in order")
    merge.add_argument("--overwrite", action="store_true",
                       help="later shards overwrite existing keys "
                            "(default: first occurrence wins)")
    merge.add_argument("--traces", nargs="+", default=None,
                       metavar="TRACE_ROOT",
                       help="also merge trace tiers: first value is the "
                            "target trace store, the rest are the shards' "
                            "trace stores — so one command ships both tiers "
                            "of a sharded campaign")

    COMMANDS.add_gc(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    code = COMMANDS.run(args)
    if code is not None:
        return code
    if args.command == "diff":
        diff = diff_stores(ResultStore(args.store_a), ResultStore(args.store_b))
        print(render_diff(diff))
        return 0 if diff.identical else 1
    if args.command == "merge":
        from repro.traces.store import TraceStore

        if args.traces is not None and len(args.traces) < 2:
            print("--traces needs a target root and at least one shard root",
                  file=sys.stderr)
            return 2
        # A typo'd shard path must not read as a successful (empty) merge:
        # the whole point is transporting another host's cells.
        trace_shards = args.traces[1:] if args.traces is not None else []
        missing = [root for root in args.shards if not ResultStore(root).root.is_dir()]
        missing += [root for root in trace_shards if not TraceStore(root).root.is_dir()]
        if missing:
            for root in missing:
                print(f"shard store {root} does not exist", file=sys.stderr)
            return 1
        # Per tier: target, shards, and the wording of its two output lines.
        tiers = [(ResultStore(args.out), map(ResultStore, args.shards),
                  "", "entr(y/ies)", "store", "cell(s)")]
        if args.traces is not None:
            tiers.append((TraceStore(args.traces[0]), map(TraceStore, trace_shards),
                          "traces ", "trace(s)", "trace store", "trace(s)"))
        for target, shards, what, unit, label, cells in tiers:
            total = 0
            for shard in shards:
                copied = target.merge(shard, overwrite=args.overwrite)
                total += copied
                print(f"merged {what}{shard.root}: "
                      f"{copied} of {len(shard)} {unit} copied")
            print(f"{label} {target.root}: {len(target)} {cells} after merging {total}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
