"""Tests of the DROM statistics module and the DROM-aware node policies.

Both features come from the paper's future-work section: collecting run-time
performance data that the scheduler can consult, and using it to choose
"victim" nodes with low utilisation.
"""

from __future__ import annotations

import math

import pytest

from repro.core.errors import ProcessNotRegisteredError
from repro.core.shmem import NodeSharedMemory
from repro.core.stats import ProcessStats, StatsModule
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import ClusterTopology
from repro.slurm.jobs import JobSpec
from repro.slurm.policies import (
    FirstFit,
    LeastAllocatedFirst,
    LowestUtilisationFirst,
)
from repro.slurm.slurmctld import NodeState, Slurmctld
from repro.workload.runner import DROM, SERIAL, run_both_scenarios
from repro.workload.workloads import in_situ_workload


class TestProcessStats:
    def test_utilisation_and_efficiency(self):
        stats = ProcessStats(pid=1, useful_time=80, idle_time=10, mpi_time=10,
                             cpu_seconds_owned=100)
        assert stats.utilisation == pytest.approx(0.8)
        assert stats.parallel_efficiency == pytest.approx(0.8)

    def test_zero_denominators(self):
        stats = ProcessStats(pid=1)
        assert stats.utilisation == 0.0
        assert stats.parallel_efficiency == 0.0

    def test_utilisation_capped_at_one(self):
        stats = ProcessStats(pid=1, useful_time=200, cpu_seconds_owned=100)
        assert stats.utilisation == 1.0


class TestStatsModule:
    def test_recording_requires_registration(self, shmem):
        stats = StatsModule(shmem)
        with pytest.raises(ProcessNotRegisteredError):
            stats.record_compute_batch(99, [(1.0, 0.0, 1, 1.0, 1)])
        with pytest.raises(ProcessNotRegisteredError):
            stats.process_stats(99)

    def test_accumulation(self, shmem):
        shmem.register(1, CpuSet.from_range(0, 4))
        stats = StatsModule(shmem)
        stats.record_compute_batch(1, [(30.0, 10.0, 4, 10.0, 1)])
        stats.record_mpi(1, 5.0)
        stats.record_mask_change(1)
        record = stats.process_stats(1)
        assert record.useful_time == 30.0
        assert record.idle_time == 10.0
        assert record.mpi_time == 5.0
        assert record.cpu_seconds_owned == 40.0
        assert record.mask_changes == 1
        assert record.utilisation == pytest.approx(0.75)
        assert stats.pids() == [1]

    def test_negative_values_rejected(self, shmem):
        shmem.register(1, CpuSet([0]))
        stats = StatsModule(shmem)
        with pytest.raises(ValueError):
            stats.record_compute_batch(1, [(-1.0, 0.0, 1, 1.0, 1)])
        with pytest.raises(ValueError):
            stats.record_mpi(1, -1.0)
        with pytest.raises(ValueError):
            stats.record_compute_batch(1, [(1.0, 0.0, -1, 1.0, 1)])

    def test_counted_batch_matches_per_step_calls(self, shmem):
        # Values whose repeated sums round differently from a product: a
        # count-k entry must replay k count-1 entries' additions, not multiply.
        entries = [(0.1, 0.7, 3, 0.3, 7), (1e-9, 0.0, 1, 1 / 3, 1), (2.2, 0.1, 8, 0.05, 13)]
        shmem.register(1, CpuSet([0]))
        shmem.register(2, CpuSet([1]))
        stats = StatsModule(shmem)
        for pid in (1, 2):
            stats.record_compute_batch(pid, [(0.5, 0.25, 1, 0.5, 1)])
        stats.record_compute_batch(1, entries)
        for *entry, count in entries:
            for _ in range(count):
                stats.record_compute_batch(2, [(*entry, 1)])
        batched, stepped = stats.process_stats(1), stats.process_stats(2)
        for name in ("useful_time", "idle_time", "cpu_seconds_owned"):
            assert getattr(batched, name).hex() == getattr(stepped, name).hex()
        assert batched.useful_time != 0.5 + sum(u * n for u, _, _, _, n in entries)

    @pytest.mark.parametrize(
        "bad",
        [(-1.0, 0.0, 1, 1.0, 1), (1.0, -1.0, 1, 1.0, 1), (1.0, 0.0, -1, 1.0, 1),
         (1.0, 0.0, 1, -1.0, 1), (1.0, 0.0, 1, 1.0, 0), (1.0, 0.0, 1, 1.0, -2)],
        ids=["useful", "idle", "ncpus", "seconds", "zero-count", "negative-count"],
    )
    def test_invalid_batch_entry_leaves_record_untouched(self, shmem, bad):
        shmem.register(1, CpuSet([0]))
        stats = StatsModule(shmem)
        stats.record_compute_batch(1, [(1.0, 0.5, 2, 3.0, 2)])
        before = ProcessStats(**vars(stats.process_stats(1)))
        with pytest.raises(ValueError):
            stats.record_compute_batch(1, [(1.0, 0.5, 2, 3.0, 4), bad])
        assert stats.process_stats(1) == before

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [0, 1, 2, 3], ids=["useful", "idle", "ncpus", "seconds"])
    def test_non_finite_batch_entry_leaves_record_untouched(self, shmem, field, value):
        shmem.register(1, CpuSet([0]))
        stats = StatsModule(shmem)
        stats.record_compute_batch(1, [(1.0, 0.5, 2, 3.0, 2)])
        before = ProcessStats(**vars(stats.process_stats(1)))
        bad = [1.0, 0.5, 2, 3.0, 40]
        bad[field] = value
        with pytest.raises(ValueError, match="finite"):
            stats.record_compute_batch(1, [(1.0, 0.5, 2, 3.0, 4), tuple(bad)])
        assert stats.process_stats(1) == before

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_mpi_time_leaves_record_untouched(self, shmem, value):
        shmem.register(1, CpuSet([0]))
        stats = StatsModule(shmem)
        stats.record_mpi(1, 2.0)
        with pytest.raises(ValueError, match="finite"):
            stats.record_mpi(1, value)
        assert stats.process_stats(1).mpi_time == 2.0

    def test_node_summary_aggregates(self, shmem):
        shmem.register(1, CpuSet.from_range(0, 8))
        shmem.register(2, CpuSet.from_range(8, 16))
        stats = StatsModule(shmem)
        stats.record_compute_batch(1, [(80.0, 20.0, 8, 12.5, 1)])  # 100 cpu-seconds
        stats.record_compute_batch(2, [(40.0, 60.0, 8, 12.5, 1)])
        summary = stats.node_summary()
        assert summary.nprocesses == 2
        assert summary.cpus_owned == 16
        assert summary.utilisation == pytest.approx((80 + 40) / 200)
        assert summary.parallel_efficiency == pytest.approx(120 / 200)

    def test_node_summary_ignores_record_creation_order(self, mn3_node):
        # Owned CPU-seconds whose left fold depends on its order: added as
        # 1, 1e16, 1 the ones round away; as 1, 1, 1e16 they do not.
        def summary(creation_order):
            shmem = NodeSharedMemory(mn3_node)
            for pid in (1, 2, 3):
                shmem.register(pid, CpuSet([pid]))
            stats = StatsModule(shmem)
            owned = {1: 1.0, 2: 1e16, 3: 1.0}
            for pid in creation_order:
                stats.record_compute_batch(pid, [(1.0, 0.0, 1, owned[pid], 1)])
            return stats.node_summary()

        first, second = summary([1, 2, 3]), summary([1, 3, 2])
        assert first.utilisation.hex() == second.utilisation.hex()
        assert first.parallel_efficiency.hex() == second.parallel_efficiency.hex()

    def test_empty_node_summary(self, shmem):
        summary = StatsModule(shmem).node_summary()
        assert summary.nprocesses == 0
        assert summary.utilisation == 0.0

    def test_drop_removes_record(self, shmem):
        shmem.register(1, CpuSet([0]))
        stats = StatsModule(shmem)
        stats.record_compute_batch(1, [(1.0, 0.0, 1, 1.0, 1)])
        stats.drop(1)
        assert stats.pids() == []


class TestNodeSelectionPolicies:
    def make_states(self):
        a = NodeState(name="a", ncpus=16)
        b = NodeState(name="b", ncpus=16)
        c = NodeState(name="c", ncpus=16)
        b.running[1] = (2, 16, True)
        c.running[2] = (1, 4, True)
        return [a, b, c]

    def test_first_fit_keeps_order(self):
        states = self.make_states()
        assert [s.name for s in FirstFit().order(states)] == ["a", "b", "c"]

    def test_least_allocated_first(self):
        states = self.make_states()
        assert [s.name for s in LeastAllocatedFirst().order(states)] == ["a", "c", "b"]

    def test_lowest_utilisation_first_with_mapping(self):
        states = self.make_states()
        policy = LowestUtilisationFirst({"a": 0.9, "b": 0.2, "c": 0.6})
        assert [s.name for s in policy.order(states)] == ["b", "c", "a"]

    def test_lowest_utilisation_unknown_nodes_sort_last(self):
        states = self.make_states()
        policy = LowestUtilisationFirst({"b": 0.2})
        ordered = [s.name for s in policy.order(states)]
        assert ordered[0] == "b"
        assert set(ordered[1:]) == {"a", "c"}

    def test_lowest_utilisation_with_callable(self):
        states = self.make_states()
        policy = LowestUtilisationFirst(lambda name: {"a": 0.1}.get(name))
        assert policy.order(states)[0].name == "a"

    def test_policy_plugs_into_slurmctld(self):
        """With the low-utilisation policy, a one-node job lands on the node
        whose occupant wastes the most CPU."""
        cluster = ClusterTopology.marenostrum3(2)
        utilisation = {"mn3-0": 0.95, "mn3-1": 0.30}
        ctld = Slurmctld(
            cluster, drom_enabled=True,
            node_policy=LowestUtilisationFirst(utilisation),
        )
        # Two running one-node jobs, one per node.
        for _ in range(2):
            ctld.submit(JobSpec(name="running", nodes=1, ntasks=1, cpus_per_task=16), 0.0)
        ctld.schedule(0.0)
        new = ctld.submit(JobSpec(name="new", nodes=1, ntasks=1, cpus_per_task=16), 1.0)
        decisions = ctld.schedule(1.0)
        assert decisions[0].job is new
        assert decisions[0].nodes == ("mn3-1",)  # the badly-utilised node


class TestRunnerStatsIntegration:
    def test_job_stats_collected_per_scenario(self):
        results = run_both_scenarios(in_situ_workload("NEST", "Conf. 1", "Pils", "Conf. 2"))
        for scenario in (SERIAL, DROM):
            result = results[scenario]
            assert set(result.job_stats.keys()) == {"NEST Conf. 1", "Pils Conf. 2"}
            nest_records = result.job_stats["NEST Conf. 1"]
            assert len(nest_records) == 2  # one per MPI rank
            for record in nest_records:
                assert record.cpu_seconds_owned > 0
                assert 0.0 < record.utilisation <= 1.0

    def test_drom_run_reports_mask_changes_serial_does_not(self):
        results = run_both_scenarios(in_situ_workload("NEST", "Conf. 1", "Pils", "Conf. 2"))
        drom_changes = sum(r.mask_changes for r in results[DROM].job_stats["NEST Conf. 1"])
        serial_changes = sum(r.mask_changes for r in results[SERIAL].job_stats["NEST Conf. 1"])
        assert drom_changes >= 2
        assert serial_changes == 0

    def test_job_utilisation_helper(self):
        results = run_both_scenarios(in_situ_workload("NEST", "Conf. 1", "Pils", "Conf. 2"))
        drom = results[DROM]
        assert 0.5 <= drom.job_utilisation("NEST Conf. 1") <= 1.0
        assert drom.job_utilisation("unknown job") == 0.0
