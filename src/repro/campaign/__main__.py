"""``python -m repro.campaign`` — run a synthetic scenario sweep.

Generates a family of seeded synthetic workloads, expands the
scenario × workload (× policy) grid into runs, executes them on a process
pool and prints the aggregated metrics table plus a Serial-vs-DROM summary.

Example::

    python -m repro.campaign --workloads 5 --njobs 3 --nnodes 4 \\
        --workers 4 --work-scale 0.05 --iterations 20
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.runner import run_campaign
from repro.obs.log import LEVELS, configure, get_logger
from repro.campaign.spec import (
    NODE_POLICY_NAMES,
    POLICY_REGISTRY,
    CampaignSpec,
    ClusterRef,
    PolicyRef,
    SchedulerRef,
    SyntheticWorkloadRef,
)
from repro.core.floats import left_sum
from repro.store.cli import (
    non_negative_finite,
    non_negative_int,
    positive_finite,
    positive_int,
)
from repro.workload.generator import (
    BURSTY,
    POISSON,
    UNIFORM,
    SizeMixEntry,
    WorkloadSpec,
    heavy_tailed_size_mix,
)
from repro.workload.runner import DROM, SERIAL

_log = get_logger("campaign.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run a parallel Serial-vs-DROM scenario sweep.",
    )
    sweep = parser.add_argument_group("sweep")
    sweep.add_argument("--workloads", type=int, default=5,
                       help="number of synthetic workloads to draw (default 5)")
    sweep.add_argument("--scenarios", default=f"{SERIAL},{DROM}",
                       help="comma-separated scenarios (default serial,drom)")
    sweep.add_argument("--policies", default="",
                       help="comma-separated mask-distribution policies "
                            f"({','.join(sorted(POLICY_REGISTRY))}); "
                            "empty = the paper's default")
    sweep.add_argument("--seed", type=int, default=0,
                       help="base seed for workload generation: workload i "
                            "uses seed+i (default 0)")
    sweep.add_argument("--workers", type=positive_int, default=1,
                       help="worker processes (default 1 = in-process)")
    sweep.add_argument("--backfill", choices=("off", "on", "both"), default="off",
                       help="controller backfill: off, on, or sweep both "
                            "as a scheduler axis (default off)")
    sweep.add_argument("--node-policies", default="",
                       help="comma-separated node-selection policies "
                            f"({','.join(sorted(NODE_POLICY_NAMES))}) swept as "
                            "a scheduler axis; empty = stock node order")
    sweep.add_argument("--store", default=None, metavar="ROOT",
                       help="content-addressed result store: cells already in "
                            "the store are served from it, fresh rows are "
                            "written back (created if missing)")
    sweep.add_argument("--trace-store", default=None, metavar="ROOT",
                       help="content-addressed trace tier: every executed run "
                            "persists its full trace under the same content "
                            "key; with --store, a run only skips execution "
                            "when both tiers hit (created if missing)")
    sweep.add_argument("--profile", default=None, metavar="OUT.pstats",
                       help="profile the sweep with cProfile: forces the "
                            "in-process executor (--workers is ignored), "
                            "writes the stats to the given path and prints "
                            "the top 20 functions by cumulative time")
    sweep.add_argument("--shard", default=None, metavar="K/N",
                       help="run only shard K of N (1-based): the workload "
                            "axis is dealt round-robin over N balanced shard "
                            "campaigns; combine with per-host --store roots "
                            "and 'python -m repro.results merge' to "
                            "distribute a sweep")

    dist = parser.add_argument_group("distributed execution")
    dist.add_argument("--executor", action="append", default=None, metavar="SPEC",
                      help="execute cells on an executor backend instead of "
                           "--workers: 'local:N' (N persistent worker "
                           "processes), 'ssh:HOST[:SLOTS]' (stream cells to a "
                           "remote worker over SSH; empty HOST = loopback "
                           "subprocess), or 'slurm:DIR' (write array-job "
                           "scripts into DIR; see --submit). Repeat the flag "
                           "to orchestrate several backends at once — cells "
                           "are dealt to whichever executor has a free slot")
    dist.add_argument("--manifest", default=None, metavar="PATH",
                      help="journal the campaign into an append-only JSONL "
                           "manifest (cell intent + completions); a crashed "
                           "campaign restarts with --resume PATH")
    dist.add_argument("--resume", default=None, metavar="MANIFEST",
                      help="resume a campaign from its manifest: the run list "
                           "is rebuilt from the journal (grid flags are "
                           "ignored) and only cells missing from the store "
                           "tiers re-execute; requires --store")
    dist.add_argument("--cell-timeout", type=positive_finite, default=None,
                      metavar="S",
                      help="per-cell timeout in seconds for --workers N>1 "
                           "and --executor (timed-out cells retry; default "
                           "none)")
    dist.add_argument("--retries", type=non_negative_int, default=2,
                      help="extra attempts per cell on transient executor "
                           "failures (default 2)")
    dist.add_argument("--backoff", type=non_negative_finite, default=0.5,
                      metavar="S",
                      help="base retry backoff in seconds, doubled per "
                           "attempt (default 0.5)")
    dist.add_argument("--submit", action="store_true",
                      help="with --executor slurm:DIR, submit the generated "
                           "scripts via sbatch (afterok-chained summarize "
                           "job included); without it the scripts are only "
                           "written for inspection or manual submission")

    obs = parser.add_argument_group("observability")
    obs.add_argument("--progress", action="store_true",
                     help="repaint a live done/total | cache hits | cells/s | "
                          "ETA line on stderr as cells complete")
    obs.add_argument("--telemetry", default=None, metavar="OUT.json",
                     help="record the campaign's span tree and write the "
                          "machine-readable telemetry summary (cells/sec, "
                          "per-tier hit rates, p50/p95 cell wall-clock) to "
                          "the given path")
    obs.add_argument("--chrome-trace", default=None, metavar="OUT.json",
                     help="export the span tree as Chrome trace-event JSON "
                          "(load in chrome://tracing or ui.perfetto.dev)")
    obs.add_argument("--log-level", choices=sorted(LEVELS), default=None,
                     help="stderr log level for the repro stack; overrides "
                          "the REPRO_LOG environment variable "
                          "(default: REPRO_LOG or warning)")

    cluster = parser.add_argument_group("cluster")
    cluster.add_argument("--nnodes", type=int, default=4,
                         help="nodes in the partition (default 4)")
    cluster.add_argument("--sockets", type=int, default=2,
                         help="sockets per node (default 2, MN3-like)")
    cluster.add_argument("--cores-per-socket", type=int, default=8,
                         help="cores per socket (default 8, MN3-like)")

    workload = parser.add_argument_group("workload generation")
    workload.add_argument("--njobs", type=int, default=3,
                          help="jobs per synthetic workload (default 3)")
    workload.add_argument("--arrival", choices=(POISSON, UNIFORM, BURSTY),
                          default=POISSON,
                          help="arrival process (default poisson)")
    workload.add_argument("--mean-interarrival", type=float, default=120.0,
                          help="mean seconds between submissions (default 120)")
    workload.add_argument("--burst-size", type=int, default=4,
                          help="jobs per burst with --arrival bursty (default 4)")
    workload.add_argument("--nodes-per-job", type=int, default=2,
                          help="nodes each job requests (default 2)")
    workload.add_argument("--size-mix", default="", metavar="N[:W],...",
                          help="heterogeneous job sizes: comma-separated node "
                               "counts with optional weights, e.g. '1:4,2:2,4:1'; "
                               "each job draws its own resource request "
                               "(empty = uniform --nodes-per-job requests)")
    workload.add_argument("--heavy-tailed-sizes", type=int, default=None,
                          metavar="MAX_NODES",
                          help="shorthand for a power-law size mix over "
                               "power-of-two node counts up to MAX_NODES")
    workload.add_argument("--work-scale", type=float, default=0.05,
                          help="scale on each app's nominal work (default 0.05)")
    workload.add_argument("--iterations", type=int, default=20,
                          help="malleability points per rank (default 20)")
    return parser


def _parse_size_mix(args: argparse.Namespace) -> tuple[SizeMixEntry, ...]:
    if args.heavy_tailed_sizes is not None:
        if args.size_mix.strip():
            raise ValueError("--size-mix and --heavy-tailed-sizes are exclusive")
        return heavy_tailed_size_mix(args.heavy_tailed_sizes)
    entries = []
    for token in (t.strip() for t in args.size_mix.split(",") if t.strip()):
        nodes, _, weight = token.partition(":")
        entries.append(
            SizeMixEntry(nodes=int(nodes), weight=float(weight) if weight else 1.0)
        )
    return tuple(entries)


def build_spec(args: argparse.Namespace) -> CampaignSpec:
    workload_spec = WorkloadSpec(
        njobs=args.njobs,
        arrival=args.arrival,
        mean_interarrival=args.mean_interarrival,
        nodes=args.nodes_per_job,
        work_scale=args.work_scale,
        iterations=args.iterations,
        size_mix=_parse_size_mix(args),
        burst_size=args.burst_size,
    )
    # Cross-axis check: drawn sizes are rigid requests, so a width beyond the
    # partition would be rejected at submit time, deep inside the sweep —
    # surface it as a usage error before simulating anything.
    widest = max(
        (entry.nodes for entry in workload_spec.size_mix),
        default=workload_spec.nodes,
    )
    if widest > args.nnodes:
        raise ValueError(
            f"the size mix draws {widest}-node jobs but the partition has "
            f"only {args.nnodes} node(s)"
        )
    workloads = tuple(
        SyntheticWorkloadRef(spec=workload_spec, seed=args.seed + i)
        for i in range(args.workloads)
    )
    scenarios = tuple(s.strip() for s in args.scenarios.split(",") if s.strip())
    policies: tuple[PolicyRef | None, ...]
    if args.policies.strip():
        policies = tuple(
            PolicyRef(p.strip()) for p in args.policies.split(",") if p.strip()
        )
    else:
        policies = (None,)
    backfills = {"off": (False,), "on": (True,), "both": (False, True)}[args.backfill]
    if args.node_policies.strip():
        node_policies: tuple[str | None, ...] = tuple(
            p.strip() for p in args.node_policies.split(",") if p.strip()
        )
    else:
        node_policies = (None,)
    schedulers = tuple(
        SchedulerRef(backfill=backfill, node_policy=node_policy)
        for backfill in backfills
        for node_policy in node_policies
    )
    return CampaignSpec(
        name="cli-sweep",
        workloads=workloads,
        scenarios=scenarios,
        clusters=(
            ClusterRef(
                nnodes=args.nnodes,
                kind="uniform",
                sockets=args.sockets,
                cores_per_socket=args.cores_per_socket,
            ),
        ),
        policies=policies,
        schedulers=schedulers,
    )


def _parse_executors(tokens: list[str]) -> list:
    """Build orchestrator-driven executors from ``--executor`` specs
    (``slurm:`` specs are handled separately — they are batch submissions,
    not orchestrator backends)."""
    from repro.exec import LocalPoolExecutor, SSHExecutor

    executors = []
    for token in tokens:
        kind, _, rest = token.partition(":")
        if kind == "local":
            executors.append(LocalPoolExecutor(slots=int(rest) if rest else None))
        elif kind == "ssh":
            host, _, slots = rest.partition(":")
            executors.append(
                SSHExecutor(
                    host=host or None,
                    slots=int(slots) if slots else 1,
                    shared_filesystem=host == "",
                )
            )
        else:
            raise ValueError(
                f"unknown executor spec {token!r} (expected local:N, "
                "ssh:HOST[:SLOTS] or slurm:DIR)"
            )
    return executors


def _slurm_main(args: argparse.Namespace, spec: CampaignSpec, directory: str) -> int:
    """The ``--executor slurm:DIR`` path: prepare (and optionally submit)
    a chunked array-job campaign instead of orchestrating live cells."""
    import sys as _sys
    from pathlib import Path

    import repro
    from repro.exec import SlurmArrayExecutor

    if not directory:
        raise ValueError("the slurm executor needs a submission directory: "
                         "--executor slurm:DIR")
    if args.store is None:
        raise ValueError("--executor slurm:DIR requires --store (a root the "
                         "compute nodes share)")
    slurm = SlurmArrayExecutor(
        directory,
        store_root=args.store,
        trace_root=args.trace_store,
        python=_sys.executable,
        repo_root=Path(repro.__file__).resolve().parents[2],
    )
    runs = spec.expand()
    submission = slurm.prepare(spec.name, runs)
    print(
        f"slurm submission prepared in {submission.directory}: "
        f"{submission.total} cell(s) in {len(submission.chunks)} array "
        f"job(s) + summarize ({submission.summarize_path.name})"
    )
    if args.submit:
        job_ids = slurm.submit(submission)
        print(f"submitted: jobs {', '.join(job_ids[:-1])}, summarize {job_ids[-1]}")
    else:
        print("dry run (no --submit): inspect the scripts, then sbatch them "
              "or re-run with --submit")
    return 0


def _select_shard(spec: CampaignSpec, shard: str) -> CampaignSpec:
    """Resolve a ``K/N`` shard selector against ``spec.shard(N)``."""
    k_text, _, n_text = shard.partition("/")
    try:
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise ValueError(f"--shard must look like K/N, got {shard!r}") from None
    if not 1 <= k <= n:
        raise ValueError(f"--shard index must satisfy 1 <= K <= N, got {shard!r}")
    shards = spec.shard(n)
    if k > len(shards):
        raise ValueError(
            f"shard {k}/{n} is empty: the campaign only has "
            f"{len(spec.workloads)} workload(s)"
        )
    return shards[k - 1]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure(args.log_level)
    executor_tokens = args.executor or []
    slurm_tokens = [t for t in executor_tokens if t.partition(":")[0] == "slurm"]
    spec = None
    try:
        if slurm_tokens and len(executor_tokens) > 1:
            raise ValueError(
                "slurm:DIR is a batch submission and cannot be mixed with "
                "other --executor specs"
            )
        if slurm_tokens and args.resume is not None:
            raise ValueError(
                "--executor slurm:DIR cannot be combined with --resume; "
                "resume locally (the summarize job does exactly that)"
            )
        executors = _parse_executors(
            [t for t in executor_tokens if t not in slurm_tokens]
        ) or None
        if args.resume is None:
            # A resume rebuilds its run list from the manifest; the grid
            # flags only matter on a fresh campaign.
            spec = build_spec(args)
            if args.shard is not None:
                spec = _select_shard(spec, args.shard)
        if slurm_tokens:
            return _slurm_main(args, spec, slurm_tokens[0].partition(":")[2])
    except ValueError as exc:
        # Bad registry names (--policies, --node-policies, --scenarios) and
        # bad executor specs read like any other usage error instead of a
        # traceback.
        parser.error(str(exc))
    if spec is not None:
        backend = (
            f"{len(executors)} executor(s)" if executors
            else f"{args.workers} worker(s)"
        )
        print(
            f"campaign {spec.name!r}: {spec.nruns} runs "
            f"({len(spec.workloads)} workloads x {len(spec.scenarios)} scenarios "
            f"x {len(spec.policies)} policies x {len(spec.schedulers)} schedulers) "
            f"on {backend}"
        )
    store = None
    if args.store is not None:
        from repro.results.store import ResultStore

        store = ResultStore(args.store)
    trace_store = None
    if args.trace_store is not None:
        from repro.traces.store import TraceStore

        trace_store = TraceStore(args.trace_store)
    telemetry = None
    if args.telemetry is not None or args.chrome_trace is not None:
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
    if args.resume is not None:
        if store is None:
            parser.error("--resume requires --store (the warm scan against "
                         "it is what skips completed cells)")
        from repro.campaign.runner import resume_campaign

        result = resume_campaign(
            args.resume,
            store,
            workers=args.workers,
            trace_store=trace_store,
            telemetry=telemetry,
            progress=args.progress,
            executor=executors,
            timeout=args.cell_timeout,
            retries=args.retries,
            backoff=args.backoff,
        )
        print(
            f"resumed campaign {result.name!r} from {args.resume}: "
            f"{result.executed} cell(s) re-executed, "
            f"{result.cache_hits} already in the store"
        )
    else:
        workers, profiler = args.workers, None
        if args.profile is not None:
            # Profile the serial executor: a worker pool would hide the hot
            # path in child processes, so the sweep runs in-process under
            # cProfile.
            import cProfile

            if args.workers != 1 or executors:
                _log.warning(
                    "--profile forces the in-process executor; ignoring "
                    "--workers/--executor"
                )
            workers, executors, profiler = 1, None, cProfile.Profile()
            profiler.enable()
        try:
            result = run_campaign(
                spec,
                workers=workers,
                store=store,
                trace_store=trace_store,
                telemetry=telemetry,
                progress=args.progress,
                executor=executors,
                manifest=args.manifest,
                timeout=args.cell_timeout,
                retries=args.retries,
                backoff=args.backoff,
            )
        finally:
            if profiler is not None:
                profiler.disable()
                profiler.dump_stats(args.profile)
        if profiler is not None:
            import pstats

            print(f"profile written to {args.profile}; top 20 by cumulative time:")
            pstats.Stats(profiler).strip_dirs().sort_stats("cumulative").print_stats(20)
    if telemetry is not None:
        from repro.obs.export import write_chrome_trace, write_summary

        if args.telemetry is not None:
            document = write_summary(telemetry, args.telemetry)
            print(f"telemetry summary written to {args.telemetry}")
            sched = document["summary"].get("scheduler") or {}
            if sched.get("jobs"):
                print(
                    f"scheduler: {sched['jobs']} job(s), mean wait "
                    f"{sched['mean_wait']:.3f} s, max wait "
                    f"{sched['max_wait']:.3f} s, allocation utilization "
                    f"{sched['utilization']:.3f}"
                )
        if args.chrome_trace is not None:
            write_chrome_trace(telemetry, args.chrome_trace)
            print(f"chrome trace written to {args.chrome_trace}")
    print(result.to_table(tiers=store is not None or trace_store is not None))
    if store is not None:
        print(
            f"\nstore {store.root}: {result.cache_hits} cache hit(s), "
            f"{result.executed} simulated, {len(store)} cell(s) stored"
        )
    if trace_store is not None:
        print(
            f"trace store {trace_store.root}: {len(trace_store)} trace(s) stored"
        )

    by_scenario = result.by_scenario()
    if SERIAL in by_scenario and DROM in by_scenario:
        pairs = [
            (cell[SERIAL], cell[DROM])
            for cell in result.scenario_pairs()
            if SERIAL in cell and DROM in cell
        ]
        if pairs:
            gains = [
                (s.average_response_time - d.average_response_time)
                / s.average_response_time
                for s, d in pairs
                if s.average_response_time > 0
            ]
            mean_gain = left_sum(gains) / len(gains) if gains else 0.0
            print(
                f"\nDROM vs Serial over {len(pairs)} workload cells: "
                f"mean average-response-time gain {100 * mean_gain:+.1f}%"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
