"""The four drombench workloads: inputs drawn from the seed, the timed
phase, output digests and the oracle check.

Every workload drives the program through its public API only
(``run_campaign``, ``ResultStore``, ``TraceStore``, ``TraceReader``,
``prv_text``) as one closed-loop client: ``run_campaign(workers=1)`` for cold
work, and each warm query sent after the previous one returned.

Inputs are a pure function of the seed.  The synthetic application mixes are
pinned (``*_MIX_SEED``) and the seed draws the arrival process instead: DROM
batching cost is superlinear in how the mix interleaves, and redrawing the
mix moved ``drom-scale`` throughput by 11% from seed to seed, which would
swamp the regressions the bounds are meant to catch.  Paper cells draw their
second-job submit instants from the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.campaign.runner import execute_run, run_campaign, summarise_run
from repro.campaign.spec import (
    CampaignSpec,
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    RunSpec,
    SchedulerRef,
    SyntheticWorkloadRef,
)
from repro.obs.telemetry import Telemetry
from repro.results import sinks
from repro.results.store import ResultStore, metrics_to_payload
from repro.traces.query import TraceReader
from repro.traces.store import TraceStore
from repro.workload.generator import WorkloadSpec

#: Generator seeds of the pinned synthetic mixes.
SCALE_MIX_SEED = 1
TRACED_MIX_SEEDS = (1, 2)
FIGURE_MIX_SEED = 3

#: Submit instants per paper family in ``paper-grid`` (x 4 families x
#: fcfs/backfill x serial/drom = 1200 cells).
PAPER_DRAWS = 75

#: Warm-figures trace queries, one per (stored cell, kind).
QUERY_KINDS = (
    "job_intervals",
    "ipc_histogram",
    "steps_between",
    "fairness_summary",
    "render_job_widths",
    "prv_text",
)
#: Warm campaign re-runs in the warm-figures query mix, and in the block
#: after it that ``cells_per_s`` times; each must execute nothing.
RERUNS = 4
REFRESHES = 200


def digest(value) -> str:
    """SHA-256 of the canonical JSON of ``value`` (floats via ``repr``)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rows_digest(rows) -> str:
    """One digest over campaign rows: every ``RunMetrics`` field, keyed by
    cell id."""
    return digest({row.run.cell_id: metrics_to_payload(row) for row in rows})


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``repro.obs`` uses the same rule)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Outcome:
    """What one timed phase did, as the parent process aggregates it."""

    #: Cells resolved (simulated, or served warm) and the seconds they took.
    cells: int = 0
    cell_seconds: float = 0.0
    #: Cells simulated during the timed phase.
    executed: int = 0
    #: Seconds per closed-loop operation (a cell, or a warm query).
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Output id -> (sha256, operations the output covers).
    digests: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: Bytes the cold writes added to both store tiers, and their cells.
    store_bytes: int = 0
    store_cells: int = 0

    def fail(self, ops: int, what: str) -> None:
        self.failed += ops
        print(f"drombench: {what}", file=sys.stderr)


def _tier_bytes(*roots: Path) -> int:
    """Bytes of the entry files (the index journals live beside the roots)."""
    return sum(
        path.stat().st_size
        for root in roots
        if root.is_dir()
        for path in root.iterdir()
        if path.is_file()
    )


def _submits(rng: random.Random, n: int) -> list[float]:
    """``n`` distinct submit instants in [60 s, 180 s), millisecond grid."""
    return [round(60.0 + k / 1000.0, 3) for k in rng.sample(range(120_000), n)]


def _interarrival(rng: random.Random) -> float:
    return round(rng.uniform(110.0, 130.0), 3)


def _synthetic(njobs: int, mix_seed: int, interarrival: float) -> SyntheticWorkloadRef:
    """One cell of the ROADMAP scaling sweep's synthetic family."""
    return SyntheticWorkloadRef(
        spec=WorkloadSpec(
            njobs=njobs,
            iterations=2000,
            work_scale=0.3,
            mean_interarrival=interarrival,
        ),
        seed=mix_seed,
    )


class CompletionStamps:
    """A ``progress=`` stream for ``run_campaign``: its progress line repaints
    once per completed cell, so the instants of the ``\\r`` repaints are the
    cells' completion times (one more repaint closes the line)."""

    def __init__(self) -> None:
        self.instants: list[float] = []

    def write(self, text: str) -> None:
        if text.startswith("\r"):
            self.instants.append(time.perf_counter())

    def flush(self) -> None:
        pass

    def latencies(self, start: float, cells: int) -> list[float]:
        if len(self.instants) < cells:
            raise RuntimeError(
                f"progress line repainted {len(self.instants)} time(s) "
                f"for {cells} completed cell(s)"
            )
        marks = [start, *self.instants[:cells]]
        return [b - a for a, b in zip(marks, marks[1:])]


# -- cold workloads -------------------------------------------------------------------


@dataclass
class ColdState:
    specs: list[CampaignSpec]
    work: Path
    both_tiers: bool
    #: Cells the oracle re-executes after the timed phase.
    oracle: list[RunSpec] = field(default_factory=list)

    @property
    def results_root(self) -> Path:
        return self.work / "results"

    @property
    def traces_root(self) -> Path:
        return self.work / "traces"


def _cold_timed(state: ColdState, obs: Telemetry) -> Outcome:
    store = ResultStore(state.results_root)
    traces = TraceStore(state.traces_root) if state.both_tiers else None
    outcome = Outcome()
    rows = []
    for spec in state.specs:
        stamps = CompletionStamps()
        outcome.attempted += spec.nruns
        start = time.perf_counter()
        try:
            with obs.span("campaign", name=spec.name) as span:
                result = run_campaign(
                    spec, workers=1, store=store, trace_store=traces, progress=stamps
                )
                span.count("executed", result.executed)
        except Exception:
            traceback.print_exc()
            outcome.fail(spec.nruns, f"campaign {spec.name!r} raised")
            continue
        wall = time.perf_counter() - start
        outcome.cells += len(result)
        outcome.cell_seconds += wall
        outcome.executed += result.executed
        outcome.latencies.extend(stamps.latencies(start, result.executed))
        rows.extend(result.rows)
    outcome.digests["rows"] = (rows_digest(rows), outcome.attempted)
    outcome.store_bytes = _tier_bytes(state.results_root, state.traces_root)
    outcome.store_cells = outcome.executed
    return outcome


def _reference_oracle(state: ColdState, outcome: Outcome) -> None:
    """Re-execute the oracle cells on the single-step reference loop and
    require the stored rows to equal them."""
    store = ResultStore(state.results_root)
    for run in state.oracle:
        expected = summarise_run(run, execute_run(run, batching=False))
        if store.get(run) != expected:
            outcome.fail(1, f"oracle: stored row of {run.cell_id} differs from the reference loop")


def _trace_oracle(state: ColdState, outcome: Outcome) -> None:
    """Re-execute the oracle cells live and require both stored tiers to
    reproduce the live row and trace records exactly."""
    store = ResultStore(state.results_root)
    traces = TraceStore(state.traces_root)
    for run in state.oracle:
        live = execute_run(run, trace=True)
        entry = traces.get(run)
        if (
            store.get(run) != summarise_run(run, live)
            or entry is None
            or list(entry.tracer) != list(live.tracer)
            or entry.tracer.mask_changes() != live.tracer.mask_changes()
        ):
            outcome.fail(1, f"oracle: stored tiers of {run.cell_id} differ from a live run")


def paper_grid(seed: int, work: Path) -> ColdState:
    """In-situ, in-situ with a 1-node analytics job, high-priority and
    interference 1.3, crossed with fcfs/backfill and serial/drom."""
    rng = random.Random(f"paper-grid/{seed}")
    schedulers = (SchedulerRef(), SchedulerRef(backfill=True))
    insitu = [InSituWorkloadRef(analytics_submit=t) for t in _submits(rng, PAPER_DRAWS)]
    hetero = [
        InSituWorkloadRef(analytics_submit=t, analytics_nodes=1)
        for t in _submits(rng, PAPER_DRAWS)
    ]
    uc2 = [HighPriorityWorkloadRef(second_submit=t) for t in _submits(rng, PAPER_DRAWS)]
    interfered = [
        InSituWorkloadRef(analytics_submit=t) for t in _submits(rng, PAPER_DRAWS)
    ]
    specs = [
        CampaignSpec(
            "paper-grid", workloads=tuple(insitu + hetero + uc2), schedulers=schedulers
        ),
        CampaignSpec(
            "paper-grid-interference",
            workloads=tuple(interfered),
            schedulers=schedulers,
            interference_factor=1.3,
        ),
    ]
    runs = [run for spec in specs for run in spec.expand()]
    return ColdState(specs, work, both_tiers=False, oracle=rng.sample(runs, 4))


def drom_scale(seed: int, work: Path) -> ColdState:
    """Synthetic njobs 6/24/96 x serial/drom, metrics tier only."""
    rng = random.Random(f"drom-scale/{seed}")
    workloads = tuple(
        _synthetic(njobs, SCALE_MIX_SEED, _interarrival(rng)) for njobs in (6, 24, 96)
    )
    spec = CampaignSpec("drom-scale", workloads=workloads)
    # The reference loop is ~10x slower than the batched one: check the
    # njobs=6 pair only.
    return ColdState([spec], work, both_tiers=False, oracle=spec.expand()[:2])


def traced_synth(seed: int, work: Path) -> ColdState:
    """Synthetic njobs=24, two mixes x serial/drom, into both tiers."""
    rng = random.Random(f"traced-synth/{seed}")
    workloads = tuple(
        _synthetic(24, mix_seed, _interarrival(rng)) for mix_seed in TRACED_MIX_SEEDS
    )
    spec = CampaignSpec("traced-synth", workloads=workloads)
    return ColdState([spec], work, both_tiers=True, oracle=[rng.choice(spec.expand())])


# -- warm-figures ----------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One stored cell and the parameters of the queries sent against it."""

    run: RunSpec
    large: bool
    job: str
    window: tuple[float, float]


@dataclass
class WarmState:
    spec: CampaignSpec
    work: Path
    cells: list[Cell]
    #: (kind, cell index or None for a re-run), in the order they are sent.
    queries: list[tuple[str, int | None]]
    seeded_rows: str
    store_bytes: int
    #: Cell indices the oracle answers again from a live run.
    oracle: list[int]

    @property
    def results_root(self) -> Path:
        return self.work / "results"

    @property
    def traces_root(self) -> Path:
        return self.work / "traces"


def warm_figures(seed: int, work: Path) -> WarmState:
    """Seed both tiers cold with 4 large synthetic cells (24k step records
    each) and 12 paper cells, then plan 100 warm queries over them."""
    rng = random.Random(f"warm-figures/{seed}")
    large = [_synthetic(6, FIGURE_MIX_SEED, _interarrival(rng)) for _ in range(2)]
    paper = [
        *(InSituWorkloadRef(analytics_submit=t) for t in _submits(rng, 2)),
        *(InSituWorkloadRef(analytics_submit=t, analytics_nodes=1) for t in _submits(rng, 2)),
        *(HighPriorityWorkloadRef(second_submit=t) for t in _submits(rng, 2)),
    ]
    spec = CampaignSpec("warm-figures", workloads=tuple(large + paper))
    seeded = run_campaign(
        spec,
        workers=1,
        store=ResultStore(work / "results"),
        trace_store=TraceStore(work / "traces"),
    )
    cells = []
    for row in seeded.rows:
        run = row.run
        makespan = row.makespan_end
        lo = rng.uniform(0.0, 0.9) * makespan
        cells.append(
            Cell(
                run=run,
                large=isinstance(run.workload, SyntheticWorkloadRef),
                job=rng.choice(run.workload.build().job_labels()),
                window=(lo, lo + 0.05 * makespan),
            )
        )
    queries: list[tuple[str, int | None]] = [("rerun", None)] * RERUNS
    queries += [(kind, i) for i in range(len(cells)) for kind in QUERY_KINDS]
    rng.shuffle(queries)
    small = [i for i, cell in enumerate(cells) if not cell.large]
    return WarmState(
        spec=spec,
        work=work,
        cells=cells,
        queries=queries,
        seeded_rows=rows_digest(seeded.rows),
        store_bytes=_tier_bytes(work / "results", work / "traces"),
        oracle=rng.sample(small, 2),
    )


def _ask(kind: str, reader: TraceReader, cell: Cell, tracer: Callable):
    """One figure query; ``tracer`` yields the full tracer (stored or live)."""
    if kind == "job_intervals":
        return reader.job_intervals()
    if kind == "ipc_histogram":
        return reader.ipc_histogram(cell.job)
    if kind == "steps_between":
        return reader.steps_between(*cell.window)
    if kind == "fairness_summary":
        return reader.fairness_summary()
    if kind == "render_job_widths":
        return reader.render_job_widths()
    return sinks.prv_text(tracer())


def _canonical(kind: str, answer):
    """A query answer as JSON-able data (digested outside the timed region)."""
    if kind == "ipc_histogram":
        return answer.tolist()
    if kind == "steps_between":
        return [step.to_record() for step in answer]
    if kind == "fairness_summary":
        return dataclasses.asdict(answer)
    return answer


def _rerun(state: WarmState, obs: Telemetry):
    """The seeding campaign again, against fresh store objects."""
    with obs.span("campaign", name=state.spec.name) as campaign:
        result = run_campaign(
            state.spec,
            workers=1,
            store=ResultStore(state.results_root),
            trace_store=TraceStore(state.traces_root),
        )
        campaign.count("executed", result.executed)
    return result


def _rerun_ok(state: WarmState, outcome: Outcome, result) -> bool:
    outcome.executed += result.executed
    if result.executed:
        outcome.fail(1, f"warm re-run executed {result.executed} cell(s)")
        return False
    if rows_digest(result.rows) != state.seeded_rows:
        outcome.fail(1, "warm re-run rows differ from the cold seeding")
        return False
    return True


def _warm_timed(state: WarmState, obs: Telemetry) -> Outcome:
    outcome = Outcome(store_bytes=state.store_bytes, store_cells=len(state.cells))
    reruns_ok = 0
    for kind, index in state.queries:
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            with obs.span("query", kind=kind) as span:
                if index is None:
                    result = _rerun(state, obs)
                else:
                    cell = state.cells[index]
                    entry = TraceStore(state.traces_root).get(cell.run)
                    if entry is None:
                        raise LookupError(f"no stored trace for {cell.run.cell_id}")
                    answer = _ask(kind, TraceReader(entry), cell, lambda: entry.tracer)
                    span.count("segments_inflated", entry.segments_inflated)
        except Exception:
            traceback.print_exc()
            outcome.fail(1, f"{kind} query raised")
            continue
        outcome.latencies.append(time.perf_counter() - start)
        if index is None:
            reruns_ok += _rerun_ok(state, outcome, result)
        else:
            outcome.digests[f"{kind}.{index:02d}"] = (digest(_canonical(kind, answer)), 1)
    # A re-run takes milliseconds: time a block of them for cells_per_s.
    for _ in range(REFRESHES):
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            result = _rerun(state, obs)
        except Exception:
            traceback.print_exc()
            outcome.fail(1, "warm re-run raised")
            continue
        outcome.cell_seconds += time.perf_counter() - start
        outcome.cells += len(result)
        reruns_ok += _rerun_ok(state, outcome, result)
    outcome.digests["rows"] = (state.seeded_rows, reruns_ok)
    return outcome


def _warm_oracle(state: WarmState, outcome: Outcome) -> None:
    """Answer the oracle cells' queries from live runs; the warm answers must
    be byte-identical."""
    for index in state.oracle:
        cell = state.cells[index]
        live = execute_run(cell.run, trace=True)
        reader = TraceReader(live.tracer, sched=live.sched)
        for kind in QUERY_KINDS:
            expected = digest(_canonical(kind, _ask(kind, reader, cell, lambda: live.tracer)))
            got = outcome.digests.get(f"{kind}.{index:02d}")
            if got is None or got[0] != expected:
                outcome.fail(1, f"oracle: warm {kind} of {cell.run.cell_id} differs from live")


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], object]
    timed: Callable[[object, Telemetry], Outcome]
    oracle: Callable[[object, Outcome], None]


WORKLOADS: dict[str, Workload] = {
    "paper-grid": Workload(paper_grid, _cold_timed, _reference_oracle),
    "drom-scale": Workload(drom_scale, _cold_timed, _reference_oracle),
    "traced-synth": Workload(traced_synth, _cold_timed, _trace_oracle),
    "warm-figures": Workload(warm_figures, _warm_timed, _warm_oracle),
}
