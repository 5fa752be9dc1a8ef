"""Use case 2 — High-priority job (Section 6.2, Figures 13–15).

A long NEST simulation is running on the two nodes when a high-priority
CoreNeuron job arrives.  In the Serial scenario CoreNeuron waits for NEST to
finish; in the DROM scenario the node CPUs are equipartitioned so CoreNeuron
starts immediately, and it expands to the full nodes when NEST completes.

The paper reports three observations, each regenerated here:

* Figure 13 — cycles-per-µs traces of both scenarios and a ~2.5 % total
  run-time improvement with DROM;
* Figure 14 — per-thread IPC histograms: the two scenarios are comparable,
  i.e. co-allocation does not disturb the applications;
* Figure 15 — average response time improves (~10 % in the paper) because the
  high-priority job starts immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.campaign.runner import run_campaign, run_scenario_pair
from repro.campaign.spec import CampaignSpec, HighPriorityWorkloadRef
from repro.metrics.collect import relative_improvement
from repro.traces.query import TraceReader
from repro.workload.runner import DROM, SERIAL, ScenarioResult

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class UseCase2Result:
    """All the measurements of use case 2, for both scenarios.

    ``serial``/``drom`` are either live
    :class:`~repro.workload.runner.ScenarioResult` executions or
    :class:`~repro.traces.query.ScenarioReplay` reconstructions from the two
    store tiers — every accessor below only touches the reporting interface
    the two share (``metrics``, ``tracer``), so figures regenerated from a
    warm store render byte-identically to a cold run.
    """

    serial: ScenarioResult
    drom: ScenarioResult
    nest_label: str
    coreneuron_label: str
    #: How many of the two scenarios actually simulated (0 on a fully warm
    #: store — the CI trace-tier smoke asserts this).
    executed: int = 2

    # -- Figure 13: total run time + traces -------------------------------------------

    @property
    def serial_total_run_time(self) -> float:
        return self.serial.metrics.total_run_time

    @property
    def drom_total_run_time(self) -> float:
        return self.drom.metrics.total_run_time

    @property
    def total_run_time_gain(self) -> float:
        return relative_improvement(self.serial_total_run_time, self.drom_total_run_time)

    def cycles_rendering(self, scenario: str, bin_seconds: float = 200.0) -> str:
        """ASCII equivalent of Figure 13's per-job width/cycles timeline."""
        return self._reader(scenario).render_job_widths(
            [self.nest_label, self.coreneuron_label], bin_seconds=bin_seconds
        )

    # -- Figure 14: IPC histograms ----------------------------------------------------------

    def _reader(self, scenario: str) -> TraceReader:
        result = self.serial if scenario == SERIAL else self.drom
        return TraceReader(result.tracer)

    def mean_ipc(self, scenario: str, job: str) -> float:
        return self._reader(scenario).mean_ipc(job)

    def ipc_comparison(self) -> dict[str, tuple[float, float]]:
        """job -> (serial mean IPC, DROM mean IPC); the two should be close."""
        out: dict[str, tuple[float, float]] = {}
        for job in (self.nest_label, self.coreneuron_label):
            out[job] = (self.mean_ipc(SERIAL, job), self.mean_ipc(DROM, job))
        return out

    def ipc_histograms(self, scenario: str, bins: int = 20) -> dict[str, np.ndarray]:
        """job -> aggregated IPC histogram over all threads (Figure 14)."""
        reader = self._reader(scenario)
        return {
            job: reader.ipc_histogram(job, bins=bins)
            for job in (self.nest_label, self.coreneuron_label)
        }

    # -- Figure 15: average response time ---------------------------------------------------------

    @property
    def serial_average_response(self) -> float:
        return self.serial.metrics.average_response_time

    @property
    def drom_average_response(self) -> float:
        return self.drom.metrics.average_response_time

    @property
    def average_response_gain(self) -> float:
        return relative_improvement(self.serial_average_response, self.drom_average_response)

    # -- per-job details --------------------------------------------------------------------------------

    def response_times(self) -> dict[str, dict[str, float]]:
        return {
            SERIAL: dict(self.serial.metrics.response_times()),
            DROM: dict(self.drom.metrics.response_times()),
        }

    def wait_times(self) -> dict[str, dict[str, float]]:
        return {
            SERIAL: dict(self.serial.metrics.wait_times()),
            DROM: dict(self.drom.metrics.wait_times()),
        }

    def coreneuron_expanded(self) -> bool:
        """Whether CoreNeuron grew back to the full nodes after NEST ended
        (the expansion at time (d) of Figure 13)."""
        changes = self.drom.tracer.mask_changes(self.coreneuron_label)
        return any(change.new_threads > 8 for change in changes)


@dataclass(frozen=True)
class UseCase2Responses:
    """The Figure 15 slice of use case 2: response-time metrics only.

    Unlike :class:`UseCase2Result` this carries no tracers, so it can be
    served entirely from a content-addressed
    :class:`~repro.results.store.ResultStore` — the store-backed path the
    figure benchmarks use for cheap regeneration.
    """

    nest_label: str
    coreneuron_label: str
    serial_average_response: float
    drom_average_response: float
    #: scenario -> {job label -> response time (s)}.
    responses: dict[str, dict[str, float]]

    @property
    def average_response_gain(self) -> float:
        return relative_improvement(
            self.serial_average_response, self.drom_average_response
        )


def usecase2_responses(
    second_submit: float = 120.0, store=None
) -> UseCase2Responses:
    """Figure 15 through the campaign/store path (no traces simulated twice).

    ``store`` (a :class:`~repro.results.store.ResultStore`) memoises the two
    runs like any other campaign cell, so a warm store regenerates the figure
    without simulating at all.
    """
    spec = CampaignSpec(
        name="usecase2",
        workloads=(HighPriorityWorkloadRef(second_submit=second_submit),),
        scenarios=(SERIAL, DROM),
    )
    result = run_campaign(spec, store=store)
    cell = result.scenario_pairs()[0]
    serial, drom = cell[SERIAL], cell[DROM]
    labels = [label for label, _ in serial.response_times]
    return UseCase2Responses(
        nest_label=labels[0],
        coreneuron_label=labels[1],
        serial_average_response=serial.average_response_time,
        drom_average_response=drom.average_response_time,
        responses={
            SERIAL: dict(serial.response_times),
            DROM: dict(drom.response_times),
        },
    )


def run_usecase2(
    second_submit: float = 120.0, store=None, trace_store=None
) -> UseCase2Result:
    """Run both scenarios of use case 2 through the campaign API.

    ``store``/``trace_store`` are the metrics and trace tiers: scenarios
    whose cells hit in both are replayed instead of simulated (Figures 13
    and 14 after one cold run), and misses write both tiers back.  The
    paper's Figure 13 timelines come from exactly these traces, so
    ``python -m repro.traces export`` makes the use case inspectable post
    hoc as ``.prv``/JSONL.  The cells share their content keys with
    :func:`usecase2_responses`'s campaign, so one warm store serves
    Figures 13–15 together.
    """
    ref = HighPriorityWorkloadRef(second_submit=second_submit)
    results = run_scenario_pair(ref, store=store, trace_store=trace_store)
    workload = results[DROM].workload
    return UseCase2Result(
        serial=results[SERIAL],
        drom=results[DROM],
        nest_label=workload.jobs[0].label,
        coreneuron_label=workload.jobs[1].label,
        executed=sum(1 for result in results.values() if not result.replayed),
    )
