"""Integration tests of the scenario runner (Serial vs DROM end to end)."""

from __future__ import annotations

import pytest

from repro.cpuset.distribution import EquipartitionPolicy
from repro.metrics.collect import relative_improvement
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.runner import DROM, SERIAL, ScenarioRunner, run_both_scenarios
from repro.workload.workloads import (
    Workload,
    WorkloadJob,
    high_priority_workload,
    in_situ_workload,
)
from repro.workload import configs
from repro.runtime.process import ThreadModel
from step_oracle import canonical_steps


@pytest.fixture(scope="module")
def nest_pils_results():
    """Both scenarios of the NEST Conf. 1 + Pils Conf. 2 workload (shared)."""
    return run_both_scenarios(in_situ_workload("NEST", "Conf. 1", "Pils", "Conf. 2"))


class TestSerialScenario:
    def test_analytics_waits_for_simulation(self, nest_pils_results):
        serial = nest_pils_results[SERIAL]
        waits = serial.metrics.wait_times()
        assert waits["NEST Conf. 1"] == 0.0
        assert waits["Pils Conf. 2"] > 0.0
        # the analytics starts exactly when the simulation ends
        nest = serial.metrics.job("NEST Conf. 1")
        pils = serial.metrics.job("Pils Conf. 2")
        assert pils.start_time == pytest.approx(nest.end_time)

    def test_total_run_time_is_sum_of_phases(self, nest_pils_results):
        serial = nest_pils_results[SERIAL]
        nest = serial.metrics.job("NEST Conf. 1")
        pils = serial.metrics.job("Pils Conf. 2")
        assert serial.metrics.total_run_time == pytest.approx(
            nest.run_time + pils.run_time, rel=1e-6
        )

    def test_scenario_labels(self, nest_pils_results):
        assert nest_pils_results[SERIAL].scenario == SERIAL
        assert nest_pils_results[DROM].scenario == DROM


class TestDromScenario:
    def test_analytics_starts_immediately(self, nest_pils_results):
        drom = nest_pils_results[DROM]
        assert drom.metrics.wait_times()["Pils Conf. 2"] == 0.0

    def test_simulation_shrinks_and_expands(self, nest_pils_results):
        drom = nest_pils_results[DROM]
        changes = drom.tracer.mask_changes("NEST Conf. 1")
        assert len(changes) >= 2  # shrink at co-allocation, expand at release
        counts = [c.new_threads for c in changes]
        assert min(counts) == 15  # one CPU per node went to Pils Conf. 2
        assert max(counts) == 16  # and came back afterwards

    def test_oversubscription_limited_to_polling_latency(self, nest_pils_results):
        """The running job keeps its old mask until it polls DROM, so a short
        transient overlap right after a mask change is expected — but it must
        stay confined to that polling latency (a tiny fraction of the run) and
        never occur in steady state."""
        drom = nest_pils_results[DROM]
        events = [
            (step.start, step.end, step.node, step.nthreads, step.job, step.rank)
            for step in canonical_steps(drom.tracer)
        ]
        change_times = [c.time for c in drom.tracer.mask_changes()]
        boundaries = sorted({e[0] for e in events})
        oversubscribed_time = 0.0
        for i, t in enumerate(boundaries):
            horizon = boundaries[i + 1] if i + 1 < len(boundaries) else drom.end_time
            per_node: dict[str, int] = {}
            seen: set[tuple[str, int]] = set()
            for start, end, node, nthreads, job, rank in events:
                if start <= t < end and (job, rank) not in seen:
                    seen.add((job, rank))
                    per_node[node] = per_node.get(node, 0) + nthreads
            for node, total in per_node.items():
                if total > 16:
                    # must be explained by a pending mask change nearby
                    assert any(t - 60.0 <= c <= t + 60.0 for c in change_times), (
                        f"unexplained oversubscription at t={t} on {node}"
                    )
                    oversubscribed_time += horizon - t
        assert oversubscribed_time <= 0.03 * drom.metrics.total_run_time

    def test_drom_beats_serial_on_total_run_time(self, nest_pils_results):
        serial, drom = nest_pils_results[SERIAL], nest_pils_results[DROM]
        assert drom.metrics.total_run_time < serial.metrics.total_run_time

    def test_drom_beats_serial_on_average_response(self, nest_pils_results):
        serial, drom = nest_pils_results[SERIAL], nest_pils_results[DROM]
        gain = relative_improvement(
            serial.metrics.average_response_time, drom.metrics.average_response_time
        )
        assert gain > 0.30

    def test_end_time_matches_metrics(self, nest_pils_results):
        drom = nest_pils_results[DROM]
        assert drom.end_time == pytest.approx(drom.metrics.makespan_end)

    def test_job_lookup_by_label(self, nest_pils_results):
        drom = nest_pils_results[DROM]
        assert drom.job("NEST Conf. 1").spec.name == "NEST Conf. 1"


class TestRunnerVariants:
    def test_single_job_workload_runs_identically_in_both_scenarios(self):
        """With no co-allocation the DROM machinery adds no overhead (the
        paper: 'We didn't find any visible overhead between them')."""
        workload = Workload(
            name="solo NEST",
            jobs=(WorkloadJob(app=configs.nest("Conf. 1"), submit_time=0.0),),
        )
        results = run_both_scenarios(workload)
        assert results[SERIAL].metrics.total_run_time == pytest.approx(
            results[DROM].metrics.total_run_time, rel=1e-9
        )

    def test_custom_policy_is_accepted(self):
        workload = in_situ_workload("NEST", "Conf. 1", "STREAM", "Conf. 1")
        runner = ScenarioRunner(True, policy=EquipartitionPolicy())
        result = runner.run(workload)
        assert result.metrics.total_run_time > 0

    def test_interference_hook_slows_co_run(self):
        workload = in_situ_workload("NEST", "Conf. 1", "Pils", "Conf. 2")
        plain = ScenarioRunner(True).run(workload)
        slowed = ScenarioRunner(
            True, interference=lambda job, node, others: 1.5 if others else 1.0
        ).run(workload)
        assert slowed.metrics.total_run_time > plain.metrics.total_run_time

    def test_ompss_thread_model_used_for_pils(self, nest_pils_results):
        workload = nest_pils_results[DROM].workload
        assert workload.jobs[1].thread_model is ThreadModel.OMPSS

    def test_trace_can_be_disabled(self):
        workload = in_situ_workload("NEST", "Conf. 1", "STREAM", "Conf. 1")
        result = ScenarioRunner(True).run(workload, trace=False)
        assert len(result.tracer) == 0
        assert result.metrics.total_run_time > 0


class TestPricingScales:
    """The batched fast path prices each step once per distinct input."""

    N24 = WorkloadSpec(njobs=24, iterations=2000, work_scale=0.3, mean_interarrival=120.0)

    @pytest.fixture(scope="class")
    def n24(self):
        return generate_workload(self.N24, seed=1)

    def test_serial_prices_every_step_once(self, n24):
        result = ScenarioRunner(False).run(n24, trace=False)
        assert result.steps_priced / result.steps_advanced == 1.0

    def test_drom_reprices_only_on_input_changes(self, n24):
        # Re-pricing every remaining step at every batch measured 44x here.
        result = ScenarioRunner(True).run(n24, trace=False)
        assert result.steps_priced / result.steps_advanced <= 8


class TestMaskChangeRecords:
    def test_old_threads_is_recorded(self, nest_pils_results):
        """Regression: every MaskChangeRecord used to carry old_threads=-1."""
        drom = nest_pils_results[DROM]
        changes = drom.tracer.mask_changes()
        assert changes
        assert all(c.old_threads > 0 for c in changes)

    def test_first_change_starts_from_initial_team(self, nest_pils_results):
        drom = nest_pils_results[DROM]
        first = drom.tracer.mask_changes("NEST Conf. 1")[0]
        assert first.old_threads == 16  # Conf. 1: 16 threads per rank
        assert first.new_threads == 15  # one CPU per node went to Pils

    def test_change_chain_is_consistent_per_rank(self, nest_pils_results):
        """old_threads of each change equals new_threads of the previous one."""
        drom = nest_pils_results[DROM]
        per_rank: dict[tuple[str, int], list] = {}
        for change in drom.tracer.mask_changes():
            per_rank.setdefault((change.job, change.rank), []).append(change)
        for chain in per_rank.values():
            for earlier, later in zip(chain, chain[1:]):
                assert later.old_threads == earlier.new_threads


class TestCompletionStats:
    @staticmethod
    def _small_workload() -> Workload:
        return Workload(
            name="solo STREAM",
            jobs=(WorkloadJob(app=configs.stream("Conf. 1"), submit_time=0.0),),
        )

    def test_unexpected_stats_errors_propagate(self, monkeypatch):
        """Regression: _complete swallowed every exception around the stats
        snapshot, silently dropping job_stats."""
        from repro.core.stats import StatsModule

        def boom(self, pid):
            raise RuntimeError("stats backend corrupted")

        monkeypatch.setattr(StatsModule, "process_stats", boom)
        with pytest.raises(RuntimeError, match="stats backend corrupted"):
            ScenarioRunner(True).run(self._small_workload(), trace=False)

    def test_missing_stats_records_are_tolerated(self, monkeypatch):
        from repro.core.errors import ProcessNotRegisteredError
        from repro.core.stats import StatsModule

        def missing(self, pid):
            raise ProcessNotRegisteredError(pid)

        monkeypatch.setattr(StatsModule, "process_stats", missing)
        result = ScenarioRunner(True).run(self._small_workload(), trace=False)
        assert result.job_stats["STREAM Conf. 1"] == []

    def test_job_stats_snapshot_present_by_default(self):
        result = ScenarioRunner(True).run(self._small_workload(), trace=False)
        records = result.job_stats["STREAM Conf. 1"]
        assert len(records) == 2  # one per MPI rank
        assert all(r.useful_time > 0 for r in records)


class TestUseCase2Workload:
    def test_high_priority_job_structure(self):
        workload = high_priority_workload()
        assert workload.jobs[0].label == "NEST Conf. 1"
        assert workload.jobs[1].label == "CoreNeuron Conf. 1"
        assert workload.jobs[1].priority > workload.jobs[0].priority

    def test_coreneuron_expands_after_nest_ends(self):
        results = run_both_scenarios(high_priority_workload())
        drom = results[DROM]
        changes = drom.tracer.mask_changes("CoreNeuron Conf. 1")
        assert any(c.new_threads == 16 for c in changes)
        nest_end = drom.metrics.job("NEST Conf. 1").end_time
        expansion_times = [c.time for c in changes if c.new_threads == 16]
        assert min(expansion_times) >= nest_end


class TestRunBothScenariosForwarding:
    """Regression: run_both_scenarios used to forward only cluster/policy and
    silently dropped backfill, node_policy, interference and batching."""

    def test_every_option_reaches_both_runners(self, monkeypatch):
        captured = []
        real = ScenarioRunner

        class Recorder(real):
            def __init__(self, drom_enabled, **kwargs):
                captured.append((drom_enabled, dict(kwargs)))
                super().__init__(drom_enabled, **kwargs)

        monkeypatch.setattr("repro.workload.runner.ScenarioRunner", Recorder)

        def interference(job, node, co_runners):
            return 1.0

        run_both_scenarios(
            in_situ_workload("NEST", "Conf. 1", "Pils", "Conf. 2"),
            interference=interference,
            node_policy="first-fit",
            backfill=True,
            batching=False,
        )
        assert [drom for drom, _ in captured] == [False, True]
        for _drom, kwargs in captured:
            assert kwargs["backfill"] is True
            assert kwargs["node_policy"] == "first-fit"
            assert kwargs["interference"] is interference
            assert kwargs["batching"] is False

    def test_interference_slows_the_drom_scenario(self):
        workload = in_situ_workload("NEST", "Conf. 1", "Pils", "Conf. 2")
        base = run_both_scenarios(workload)
        slowed = run_both_scenarios(
            workload,
            interference=lambda job, node, co: 2.0 if co else 1.0,
        )
        # Co-located DROM jobs slow down; the serial scenario never co-runs.
        assert (
            slowed[DROM].metrics.total_run_time
            > base[DROM].metrics.total_run_time
        )
        assert slowed[SERIAL].metrics.total_run_time == pytest.approx(
            base[SERIAL].metrics.total_run_time
        )
