"""Use case 1 — In-Situ Analytics (Section 6.1, Figures 3–12).

Each function regenerates the data behind one figure: the Serial and DROM
scenarios of the corresponding workloads are simulated and the same series the
paper plots (total run time, per-job response time, average response time,
thread utilisation traces) are returned as plain data structures, ready to be
printed by the benchmarks or asserted by the tests.

All of them now go through the campaign subsystem: the figure sweeps expand
to a :class:`~repro.campaign.spec.CampaignSpec` grid (so they can be executed
on a worker pool like any other campaign), and the trace-based figures use
:func:`~repro.campaign.runner.run_scenario_pair` on the same declarative
workload references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.runner import RunMetrics, run_campaign, run_scenario_pair
from repro.campaign.spec import CampaignSpec, InSituWorkloadRef
from repro.metrics.collect import relative_improvement
from repro.metrics.paraver import ParaverView
from repro.workload.runner import DROM, SERIAL, ScenarioResult

#: Analytics configurations evaluated against each simulator configuration,
#: matching the X axes of Figures 4/6 (Pils) and 7 (STREAM).
PILS_CONFIGS = ("Conf. 1", "Conf. 2", "Conf. 3")
SIMULATOR_CONFIGS = ("Conf. 1", "Conf. 2")


@dataclass(frozen=True)
class WorkloadComparison:
    """Serial vs DROM comparison of one workload (one X position of a figure)."""

    workload: str
    simulator: str
    simulator_config: str
    analytics: str
    analytics_config: str
    serial_total_run_time: float
    drom_total_run_time: float
    serial_response: dict[str, float]
    drom_response: dict[str, float]
    serial_average_response: float
    drom_average_response: float

    @property
    def total_run_time_gain(self) -> float:
        """Fractional improvement of DROM over Serial (positive = DROM wins)."""
        return relative_improvement(self.serial_total_run_time, self.drom_total_run_time)

    @property
    def average_response_gain(self) -> float:
        return relative_improvement(
            self.serial_average_response, self.drom_average_response
        )

    @property
    def simulator_label(self) -> str:
        return f"{self.simulator} {self.simulator_config}"

    @property
    def analytics_label(self) -> str:
        return f"{self.analytics} {self.analytics_config}"

    @property
    def simulator_response_change(self) -> float:
        """Fractional increase of the simulator's response time under DROM."""
        serial = self.serial_response[self.simulator_label]
        drom = self.drom_response[self.simulator_label]
        return drom / serial - 1.0

    @property
    def analytics_response_reduction(self) -> float:
        """Fractional decrease of the analytics' response time under DROM."""
        serial = self.serial_response[self.analytics_label]
        drom = self.drom_response[self.analytics_label]
        return 1.0 - drom / serial


def _comparison_from_rows(
    ref: InSituWorkloadRef, serial: RunMetrics, drom: RunMetrics
) -> WorkloadComparison:
    return WorkloadComparison(
        workload=serial.workload_name,
        simulator=ref.simulator,
        simulator_config=ref.simulator_config,
        analytics=ref.analytics,
        analytics_config=ref.analytics_config,
        serial_total_run_time=serial.total_run_time,
        drom_total_run_time=drom.total_run_time,
        serial_response=dict(serial.response_times),
        drom_response=dict(drom.response_times),
        serial_average_response=serial.average_response_time,
        drom_average_response=drom.average_response_time,
    )


def compare_workloads(
    refs: list[InSituWorkloadRef], workers: int = 1, store=None
) -> list[WorkloadComparison]:
    """Run the Serial+DROM campaign of several workloads and pair the rows.

    ``store`` (a :class:`~repro.results.store.ResultStore`) memoises the
    cells: the figure sweeps overlap heavily (Figures 4/6 share every cell,
    Figure 8 is a superset of both), so one warm store serves a whole
    use-case-1 regeneration with only the first sweep simulating.
    """
    spec = CampaignSpec(
        name="usecase1",
        workloads=tuple(refs),
        scenarios=(SERIAL, DROM),
    )
    result = run_campaign(spec, workers=workers, store=store)
    comparisons = []
    for cell in result.scenario_pairs():
        serial, drom = cell[SERIAL], cell[DROM]
        comparisons.append(_comparison_from_rows(serial.run.workload, serial, drom))
    return comparisons


def compare_workload(
    simulator: str,
    simulator_config: str,
    analytics: str,
    analytics_config: str,
    store=None,
) -> WorkloadComparison:
    """Run the Serial and DROM scenarios of one simulator+analytics workload."""
    ref = InSituWorkloadRef(simulator, simulator_config, analytics, analytics_config)
    return compare_workloads([ref], store=store)[0]


# -- Figures 4/9 (total run time, simulator + Pils) --------------------------------------


def simulator_pils_run_time(simulator: str, store=None) -> list[WorkloadComparison]:
    """Figure 4 (NEST) / Figure 9 (CoreNeuron): total run time vs Pils config."""
    return compare_workloads(
        [
            InSituWorkloadRef(simulator, sim_conf, "Pils", pils_conf)
            for sim_conf in SIMULATOR_CONFIGS
            for pils_conf in PILS_CONFIGS
        ],
        store=store,
    )


# -- Figures 6/10 (individual response times, simulator + Pils) -----------------------------


def simulator_pils_response(simulator: str, store=None) -> list[WorkloadComparison]:
    """Figure 6 (NEST) / Figure 10 (CoreNeuron): per-job response times."""
    return simulator_pils_run_time(simulator, store=store)


# -- Figures 7/11 (simulator + STREAM) ------------------------------------------------------


def simulator_stream(simulator: str, store=None) -> list[WorkloadComparison]:
    """Figure 7 (NEST) / Figure 11 (CoreNeuron): run time and response with STREAM."""
    return compare_workloads(
        [
            InSituWorkloadRef(simulator, sim_conf, "STREAM", "Conf. 1")
            for sim_conf in SIMULATOR_CONFIGS
        ],
        store=store,
    )


# -- Figures 8/12 (average response time over all workloads of one simulator) ------------------


def simulator_average_response(simulator: str, store=None) -> list[WorkloadComparison]:
    """Figure 8 (NEST) / Figure 12 (CoreNeuron): average response times.

    With a warm ``store`` this whole sweep is served from cache — its grid is
    exactly the union of the Figure 4/6 and Figure 7 grids.
    """
    refs = []
    for sim_conf in SIMULATOR_CONFIGS:
        for pils_conf in PILS_CONFIGS:
            refs.append(InSituWorkloadRef(simulator, sim_conf, "Pils", pils_conf))
        refs.append(InSituWorkloadRef(simulator, sim_conf, "STREAM", "Conf. 1"))
    return compare_workloads(refs, store=store)


# -- Figure 5 (imbalance trace after shrinking) ---------------------------------------------------


@dataclass(frozen=True)
class ImbalanceTrace:
    """Figure 5: per-thread utilisation of the shrunk NEST rank."""

    workload: str
    #: Thread utilisation of the simulator's rank 0 over the whole run
    #: (thread id -> busy fraction).
    utilisation: dict[int, float]
    #: Thread utilisation restricted to the period in which the rank ran with
    #: fewer threads than it initialised with — the window Figure 5 shows.
    shrunk_utilisation: dict[int, float]
    #: Number of DROM mask changes the simulator observed.
    mask_changes: int
    #: ASCII rendering of the per-thread activity timeline.
    rendering: str = field(repr=False, default="")

    @property
    def overloaded_threads(self) -> list[int]:
        """Threads that stay fully busy during the shrunk window (they pick up
        the orphaned chunks of the removed thread)."""
        return [t for t, u in self.shrunk_utilisation.items() if u >= 0.999]

    @property
    def underloaded_threads(self) -> list[int]:
        """Threads that show idle time during the shrunk window."""
        return [t for t, u in self.shrunk_utilisation.items() if u < 0.999]


def imbalance_trace(
    simulator: str = "NEST",
    simulator_config: str = "Conf. 1",
    analytics_config: str = "Conf. 2",
    store=None,
    trace_store=None,
) -> ImbalanceTrace:
    """Reproduce Figure 5: the static-partition imbalance after a shrink.

    The simulator loses one CPU per node to Pils Conf. 2; the orphaned data
    chunks are executed by a subset of the remaining threads, which therefore
    stay busy while the others show idle time.

    With both store tiers given (``store`` for metrics, ``trace_store`` for
    traces), a warm call replays the stored trace instead of simulating.
    """
    ref = InSituWorkloadRef(simulator, simulator_config, "Pils", analytics_config)
    result = run_scenario_pair(ref, store=store, trace_store=trace_store)[DROM]
    workload = result.workload
    sim_label = workload.jobs[0].label
    tracer = result.tracer
    view = ParaverView(tracer, bin_seconds=100.0)

    # Utilisation restricted to the steps executed with a reduced team.
    shrunk_busy: dict[int, float] = {}
    shrunk_total: dict[int, float] = {}
    for step in tracer.steps(sim_label, rank=0):
        plan_threads = len(step.thread_utilisation)
        if plan_threads == 0:
            continue
        initial = workload.jobs[0].app.config.threads_per_rank
        if step.nthreads >= initial:
            continue
        for thread, util in enumerate(step.thread_utilisation):
            shrunk_busy[thread] = shrunk_busy.get(thread, 0.0) + util * step.duration
            shrunk_total[thread] = shrunk_total.get(thread, 0.0) + step.duration
    shrunk_utilisation = {
        t: shrunk_busy[t] / shrunk_total[t] for t in sorted(shrunk_busy)
    }

    return ImbalanceTrace(
        workload=workload.name,
        utilisation=tracer.thread_utilisation(sim_label, rank=0),
        shrunk_utilisation=shrunk_utilisation,
        mask_changes=len(tracer.mask_changes(sim_label)),
        rendering=view.render_thread_activity(sim_label),
    )


# -- Figure 3 (conceptual timeline) ------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioTimeline:
    """Figure 3: width (CPUs in use) of each job over time, per scenario."""

    scenario: str
    rendering: str
    job_intervals: dict[str, tuple[float, float]]


def scenario_timelines(
    simulator: str = "NEST",
    simulator_config: str = "Conf. 1",
    analytics: str = "Pils",
    analytics_config: str = "Conf. 2",
    store=None,
    trace_store=None,
) -> dict[str, ScenarioTimeline]:
    """Reproduce the Figure 3 schematic from actual simulated runs.

    With both store tiers given, warm calls replay stored traces instead of
    simulating, and ``python -m repro.traces export`` re-emits either
    scenario's trace as ``.prv``/JSONL.
    """
    ref = InSituWorkloadRef(simulator, simulator_config, analytics, analytics_config)
    results = run_scenario_pair(ref, store=store, trace_store=trace_store)
    workload = results[DROM].workload
    timelines: dict[str, ScenarioTimeline] = {}
    for scenario, result in results.items():
        view = ParaverView(result.tracer, bin_seconds=100.0)
        labels = [job.label for job in workload.jobs]
        intervals = {label: result.tracer.span(label) for label in labels}
        timelines[scenario] = ScenarioTimeline(
            scenario=scenario,
            rendering=view.render_job_widths(labels),
            job_intervals=intervals,
        )
    return timelines
