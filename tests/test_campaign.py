"""Tests of the campaign subsystem: spec expansion, execution, determinism."""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignSpec,
    ClusterRef,
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    PolicyRef,
    RunSpec,
    SchedulerRef,
    SyntheticWorkloadRef,
    execute_run,
    run_campaign,
    run_scenario_pair,
    summarise_run,
)
from repro.campaign.__main__ import main as campaign_cli
from repro.cpuset.distribution import SocketAwareEquipartition
from repro.workload import configs
from repro.workload.generator import AppMixEntry, SizeMixEntry, WorkloadSpec
from repro.workload.runner import DROM, SERIAL, ScenarioRunner
from repro.workload.workloads import Workload, WorkloadJob

#: Cheap synthetic family for pool tests.
SMALL = WorkloadSpec(njobs=3, mean_interarrival=90.0, work_scale=0.04, iterations=16)


def small_sweep(nworkloads: int = 2, **kwargs) -> CampaignSpec:
    defaults = dict(
        name="test-sweep",
        workloads=tuple(
            SyntheticWorkloadRef(spec=SMALL, seed=i) for i in range(nworkloads)
        ),
        scenarios=(SERIAL, DROM),
        clusters=(ClusterRef(nnodes=4, kind="mn3"),),
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TestSpecExpansion:
    def test_grid_size_and_stable_indices(self):
        spec = small_sweep(
            nworkloads=3,
            clusters=(ClusterRef(nnodes=2), ClusterRef(nnodes=4)),
            policies=(None, PolicyRef("socket")),
        )
        runs = spec.expand()
        assert len(runs) == spec.nruns == 3 * 2 * 2 * 2
        assert [r.index for r in runs] == list(range(len(runs)))
        # Expansion is deterministic and repeatable.
        assert runs == spec.expand()

    def test_scenarios_adjacent_per_cell(self):
        runs = small_sweep().expand()
        assert runs[0].scenario == SERIAL and runs[1].scenario == DROM
        assert runs[0].workload == runs[1].workload

    def test_run_ids_are_unique(self):
        runs = small_sweep(nworkloads=3).expand()
        assert len({r.run_id for r in runs}) == len(runs)

    def test_duplicate_workload_refs_stay_distinct_cells(self):
        ref = SyntheticWorkloadRef(spec=SMALL, seed=0)
        spec = CampaignSpec(name="dup", workloads=(ref, ref))
        result = run_campaign(spec)
        cells = result.scenario_pairs()
        assert len(cells) == 2
        assert all(set(cell) == {SERIAL, DROM} for cell in cells)

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            RunSpec(index=0, scenario="turbo", workload=HighPriorityWorkloadRef())

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError, match="at least one workload"):
            CampaignSpec(name="empty", workloads=())

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            PolicyRef("round-robin")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: WorkloadSpec(work_scale=float("nan")),
            lambda: WorkloadSpec(work_scale=float("inf")),
            lambda: WorkloadSpec(mean_interarrival=float("nan")),
            lambda: WorkloadSpec(mean_interarrival=float("inf")),
            lambda: AppMixEntry("STREAM", "Conf. 1", weight=float("nan")),
            lambda: AppMixEntry("STREAM", "Conf. 1", weight=float("inf")),
            lambda: SizeMixEntry(nodes=2, weight=float("nan")),
            lambda: InSituWorkloadRef(analytics_submit=float("nan")),
            lambda: InSituWorkloadRef(analytics_submit=-1.0),
            lambda: HighPriorityWorkloadRef(second_submit=float("inf")),
            lambda: HighPriorityWorkloadRef(second_submit=-1.0),
            lambda: RunSpec(index=0, scenario=SERIAL, workload=HighPriorityWorkloadRef(),
                            interference_factor=float("nan")),
            lambda: RunSpec(index=0, scenario=SERIAL, workload=HighPriorityWorkloadRef(),
                            interference_factor=0.0),
            lambda: small_sweep(interference_factor=float("inf")),
            lambda: small_sweep(interference_factor=-2.0),
            lambda: ClusterRef(kind="uniform", sockets=0),
            lambda: ClusterRef(kind="uniform", cores_per_socket=0),
        ],
        ids=["work-scale-nan", "work-scale-inf", "interarrival-nan", "interarrival-inf",
             "app-weight-nan", "app-weight-inf", "size-weight-nan", "analytics-submit-nan",
             "analytics-submit-negative", "second-submit-inf", "second-submit-negative",
             "run-interference-nan", "run-interference-zero", "campaign-interference-inf",
             "campaign-interference-negative", "sockets-0", "cores-per-socket-0"],
    )
    def test_non_finite_or_out_of_range_input_rejected(self, build):
        with pytest.raises(ValueError, match="must be"):
            build()

    def test_policy_ref_builds_registry_class(self):
        assert isinstance(PolicyRef("socket").build(), SocketAwareEquipartition)

    def test_cluster_ref_builds_requested_shape(self):
        cluster = ClusterRef(nnodes=4, kind="uniform", sockets=1, cores_per_socket=4)
        topo = cluster.build()
        assert topo.nnodes == 4
        assert topo.ncpus == 16


class TestSharding:
    def test_shards_are_balanced_and_cover_the_grid(self):
        spec = small_sweep(nworkloads=5)
        shards = spec.shard(2)
        assert [len(s.workloads) for s in shards] == [3, 2]
        assert sum(s.nruns for s in shards) == spec.nruns
        # Every workload lands in exactly one shard.
        dealt = [w for s in shards for w in s.workloads]
        assert sorted(dealt, key=lambda w: w.seed) == sorted(
            spec.workloads, key=lambda w: w.seed
        )

    def test_shard_names_and_other_axes_preserved(self):
        spec = small_sweep(nworkloads=4, schedulers=(SchedulerRef(backfill=True),))
        shards = spec.shard(2)
        assert [s.name for s in shards] == [
            "test-sweep[shard 1/2]",
            "test-sweep[shard 2/2]",
        ]
        assert all(s.schedulers == spec.schedulers for s in shards)
        assert all(s.clusters == spec.clusters for s in shards)

    def test_more_shards_than_workloads_drops_empties(self):
        shards = small_sweep(nworkloads=2).shard(5)
        assert len(shards) == 2

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            small_sweep().shard(0)

    def test_shard_cells_union_equals_full_campaign(self):
        from repro.results.store import content_key

        spec = small_sweep(nworkloads=3)
        full = {content_key(run) for run in spec.expand()}
        dealt = {
            content_key(run) for s in spec.shard(2) for run in s.expand()
        }
        assert dealt == full


class TestExecution:
    def test_execute_run_is_pure(self):
        run = RunSpec(
            index=0,
            scenario=DROM,
            workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
            cluster=ClusterRef(nnodes=4),
        )
        a = execute_run(run, trace=False)
        b = execute_run(run, trace=False)
        # Job ids are process-global counters, so compare the campaign-level
        # summary (timings, labels) rather than raw Job records.
        assert summarise_run(run, a) == summarise_run(run, b)

    def test_scenario_pair_returns_full_results(self):
        results = run_scenario_pair(
            SyntheticWorkloadRef(spec=SMALL, seed=1), cluster=ClusterRef(nnodes=4)
        )
        assert set(results) == {SERIAL, DROM}
        assert len(results[DROM].tracer) > 0  # tracing on by default

    def test_interference_factor_slows_co_runs(self):
        ref = InSituWorkloadRef("NEST", "Conf. 1", "Pils", "Conf. 2")
        plain = execute_run(RunSpec(index=0, scenario=DROM, workload=ref))
        slowed = execute_run(
            RunSpec(index=1, scenario=DROM, workload=ref, interference_factor=1.5)
        )
        assert slowed.metrics.total_run_time > plain.metrics.total_run_time


class TestSchedulerAxis:
    """The backfill × node-selection scheduler axis (ROADMAP follow-on)."""

    def backfill_workload(self) -> Workload:
        # j1 takes 4 CPUs/node, j2 (16 CPUs/node) blocks behind it, j3
        # (2 CPUs/node) fits next to j1 — exactly the shape backfill helps.
        return Workload(
            name="backfill-shape",
            jobs=(
                WorkloadJob(app=configs.pils("Conf. 3"), submit_time=0.0, name="wide"),
                WorkloadJob(app=configs.nest("Conf. 1"), submit_time=0.0, name="blocked"),
                WorkloadJob(app=configs.stream("Conf. 1"), submit_time=0.0, name="small"),
            ),
            nodes=2,
        )

    def test_backfill_starts_fitting_job_early(self):
        workload = self.backfill_workload()
        fcfs = ScenarioRunner(drom_enabled=False).run(workload, trace=False)
        backfill = ScenarioRunner(drom_enabled=False, backfill=True).run(
            workload, trace=False
        )
        assert fcfs.metrics.wait_times()["small"] > 0.0
        assert backfill.metrics.wait_times()["small"] == 0.0
        assert (
            backfill.metrics.average_response_time
            < fcfs.metrics.average_response_time
        )

    def test_axis_expands_and_labels(self):
        spec = small_sweep(
            schedulers=(SchedulerRef(), SchedulerRef(backfill=True)),
        )
        runs = spec.expand()
        assert len(runs) == spec.nruns == 2 * 2 * 2
        assert len({r.run_id for r in runs}) == len(runs)
        labels = {r.scheduler.label for r in runs}
        assert labels == {"fcfs", "backfill"}

    def test_backfill_and_node_policy_sweep_executes(self):
        spec = small_sweep(
            nworkloads=1,
            scenarios=(DROM,),
            schedulers=(
                SchedulerRef(),
                SchedulerRef(backfill=True, node_policy="least-allocated"),
                SchedulerRef(node_policy="lowest-utilisation"),
            ),
        )
        result = run_campaign(spec)
        assert len(result) == 3
        table = result.to_table()
        assert "backfill+least-allocated" in table
        assert "lowest-utilisation" in table
        assert "fcfs" in table

    def test_unknown_node_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown node policy"):
            SchedulerRef(node_policy="round-robin")

    def test_empty_schedulers_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            small_sweep(schedulers=())

    def test_cli_rejects_unknown_node_policy_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            campaign_cli(["--node-policies", "round-robin"])
        assert exc_info.value.code == 2  # argparse usage error, not a traceback
        assert "unknown node policy" in capsys.readouterr().err

    def test_cli_backfill_sweep(self, capsys):
        code = campaign_cli(
            [
                "--workloads", "1",
                "--njobs", "2",
                "--scenarios", "drom",
                "--backfill", "both",
                "--work-scale", "0.04",
                "--iterations", "12",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 schedulers" in out
        assert "backfill" in out and "fcfs" in out

    def test_cli_profile_writes_pstats_and_prints_hotspots(self, capsys, tmp_path):
        import pstats

        out_path = tmp_path / "sweep.pstats"
        code = campaign_cli(
            [
                "--workloads", "1",
                "--njobs", "2",
                "--work-scale", "0.04",
                "--iterations", "12",
                "--workers", "4",
                "--profile", str(out_path),
            ]
        )
        captured = capsys.readouterr()
        out = captured.out
        assert code == 0
        assert out_path.exists()
        assert "top 20 by cumulative time" in out
        # Profiling forces the in-process executor; the warning now goes
        # through the repro logging stack, i.e. to stderr.
        assert "ignoring --workers" in captured.err
        assert "cumtime" in out
        # The dump is a loadable pstats file with real samples in it.
        stats = pstats.Stats(str(out_path))
        assert stats.total_calls > 0


class TestDeterminism:
    @pytest.fixture(scope="class")
    def sweep_results(self):
        """One ≥20-run sweep over a 4-node cluster, serial and pooled."""
        spec = small_sweep(
            nworkloads=5,
            clusters=(ClusterRef(nnodes=4, kind="mn3"), ClusterRef(nnodes=4, kind="uniform")),
        )
        assert spec.nruns >= 20
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=4)
        return spec, serial, pooled

    def test_pool_matches_serial_execution_exactly(self, sweep_results):
        _spec, serial, pooled = sweep_results
        assert pooled.rows == serial.rows

    def test_aggregated_table_is_byte_identical(self, sweep_results):
        _spec, serial, pooled = sweep_results
        assert pooled.to_table() == serial.to_table()

    def test_rows_in_run_index_order(self, sweep_results):
        _spec, _serial, pooled = sweep_results
        assert [m.run.index for m in pooled.rows] == list(range(len(pooled)))

    def test_scenario_pairs_cover_every_cell(self, sweep_results):
        spec, serial, _pooled = sweep_results
        cells = serial.scenario_pairs()
        assert len(cells) == spec.nruns // len(spec.scenarios)
        assert all(set(cell) == {SERIAL, DROM} for cell in cells)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            run_campaign(small_sweep(), workers=0)


class TestAggregation:
    @pytest.fixture(scope="class")
    def uc_result(self):
        return run_campaign(
            CampaignSpec(
                name="uc",
                workloads=(InSituWorkloadRef("NEST", "Conf. 1", "Pils", "Conf. 2"),),
            )
        )

    def test_row_metrics_match_direct_execution(self, uc_result):
        serial_row = uc_result.by_scenario()[SERIAL][0]
        direct = execute_run(serial_row.run, trace=False)
        assert serial_row.total_run_time == direct.metrics.total_run_time
        assert dict(serial_row.response_times) == dict(direct.metrics.response_times())

    def test_drom_beats_serial_in_table(self, uc_result):
        cell = uc_result.scenario_pairs()[0]
        assert cell[DROM].total_run_time < cell[SERIAL].total_run_time

    def test_table_mentions_every_run(self, uc_result):
        table = uc_result.to_table()
        assert table.count("NEST Conf. 1 + Pils Conf. 2") == 2
        for scenario in (SERIAL, DROM):
            assert scenario in table

    def test_job_utilisation_recorded(self, uc_result):
        row = uc_result.by_scenario()[DROM][0]
        assert all(0.0 < u <= 1.0 for _job, u in row.job_utilisation)


class TestCli:
    def test_cli_runs_a_sweep(self, capsys):
        code = campaign_cli(
            [
                "--workloads", "2",
                "--njobs", "2",
                "--nnodes", "4",
                "--workers", "2",
                "--work-scale", "0.04",
                "--iterations", "12",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 runs" in out
        assert "drom" in out and "serial" in out
        assert "DROM vs Serial" in out

    def test_cli_policy_axis(self, capsys):
        code = campaign_cli(
            [
                "--workloads", "1",
                "--njobs", "2",
                "--scenarios", "drom",
                "--policies", "socket,equipartition",
                "--work-scale", "0.04",
                "--iterations", "12",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "socket" in out and "equipartition" in out

    def test_cli_heterogeneous_sweep(self, capsys):
        code = campaign_cli(
            [
                "--workloads", "1",
                "--njobs", "3",
                "--nnodes", "4",
                "--arrival", "bursty",
                "--burst-size", "3",
                "--size-mix", "1:2,2",
                "--backfill", "on",
                "--work-scale", "0.04",
                "--iterations", "12",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 runs" in out and "backfill" in out

    def test_cli_shard_selects_a_slice(self, capsys):
        args = [
            "--workloads", "3",
            "--njobs", "2",
            "--work-scale", "0.04",
            "--iterations", "12",
        ]
        code = campaign_cli(args + ["--shard", "1/2"])
        out = capsys.readouterr().out
        assert code == 0
        # 3 workloads dealt over 2 shards: the first gets 2 of them.
        assert "4 runs" in out and "2 workloads" in out

    def test_cli_bad_shard_rejected(self, capsys):
        base = ["--workloads", "2", "--njobs", "2"]
        for shard in ("2", "0/2", "3/2", "x/y"):
            with pytest.raises(SystemExit):
                campaign_cli(base + ["--shard", shard])
            capsys.readouterr()

    @pytest.mark.parametrize(
        "flags",
        [["--workers", "0"], ["--workers", "-2"], ["--retries", "-1"],
         ["--backoff", "-1"], ["--backoff", "nan"],
         ["--cell-timeout", "-5", "--workers", "2"],
         ["--cell-timeout", "0", "--workers", "2"], ["--cell-timeout", "nan"]],
        ids=["workers=0", "workers=-2", "retries=-1", "backoff=-1", "backoff=nan",
             "cell-timeout=-5", "cell-timeout=0", "cell-timeout=nan"],
    )
    def test_cli_bad_executor_argument_is_a_usage_error(self, capsys, flags):
        base = ["--workloads", "1", "--njobs", "2", "--work-scale", "0.04",
                "--iterations", "12"]
        with pytest.raises(SystemExit) as exited:
            campaign_cli(base + flags)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flags[0]}" in err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--work-scale", "nan"], "work_scale"), (["--work-scale", "inf"], "work_scale"),
         (["--mean-interarrival", "nan"], "mean_interarrival"),
         (["--sockets", "0"], "sockets"), (["--cores-per-socket", "0"], "cores_per_socket")],
        ids=["work-scale=nan", "work-scale=inf", "mean-interarrival=nan", "sockets=0",
             "cores-per-socket=0"],
    )
    def test_cli_bad_workload_or_cluster_argument_is_a_usage_error(self, capsys, flags, message):
        base = ["--workloads", "1", "--njobs", "2", "--work-scale", "0.04",
                "--iterations", "12"]
        with pytest.raises(SystemExit) as exited:
            campaign_cli(base + flags)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and message in err

    def test_cli_size_mix_and_heavy_tailed_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            campaign_cli(
                ["--size-mix", "1,2", "--heavy-tailed-sizes", "4"]
            )
        assert "exclusive" in capsys.readouterr().err

    def test_cli_size_mix_wider_than_partition_is_a_usage_error(self, capsys):
        # Regression: this used to crash with a raw traceback mid-sweep.
        with pytest.raises(SystemExit):
            campaign_cli(["--nnodes", "2", "--size-mix", "4"])
        assert "only 2 node(s)" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            campaign_cli(["--heavy-tailed-sizes", "8", "--nnodes", "4"])
        assert "only 4 node(s)" in capsys.readouterr().err
