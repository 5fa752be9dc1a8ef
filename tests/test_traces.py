"""Tests of the content-addressed trace tier (`repro.traces`).

Covers the store round trip (byte-identical artifacts, exact float
equality), the run-length step segments (differential round trips of
generated cells and of a hand-built tracer that forces every kind of run
break, doctored run counts raising), the two-tier campaign memoisation contract ("skip execution only
when both tiers hit"), scenario replay equality against live executions, the
query engine, the CLI, merge/sharding, and the reader edge cases the
satellites call out (empty tracer, horizon-0 run, mask-change-only trace,
``EV_STEP_IPC_MILLI`` round trip through the compressed tier).
"""

from __future__ import annotations

import gzip
import json
import random

import pytest

from repro.campaign import (
    CampaignSpec,
    ClusterRef,
    HighPriorityWorkloadRef,
    RunSpec,
    SchedulerRef,
    SyntheticWorkloadRef,
    execute_run,
    run_campaign,
    run_scenario_pair,
)
from repro.experiments.usecase1 import imbalance_trace, scenario_timelines
from repro.experiments.usecase2 import run_usecase2
from repro.metrics.tracing import (
    MaskChangeRecord,
    StepRecord,
    StepRun,
    Tracer,
    expand_runs,
)
from repro.results import (
    ParaverTraceSink,
    ResultStore,
    content_key,
    pcf_text,
    prv_text,
    read_prv,
    row_text,
)
from repro.results.sinks import EV_STEP_IPC_MILLI
from repro.traces import (
    TRACE_FORMAT_VERSION,
    ScenarioReplay,
    TraceReader,
    TraceStore,
)
from repro.traces.__main__ import main as traces_main
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM, SERIAL

SMALL = WorkloadSpec(njobs=2, mean_interarrival=90.0, work_scale=0.04, iterations=12)


def small_spec(name: str = "traces", seeds=(0,)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        workloads=tuple(SyntheticWorkloadRef(spec=SMALL, seed=s) for s in seeds),
        clusters=(ClusterRef(nnodes=4),),
    )


@pytest.fixture(scope="module")
def traced_run():
    run = RunSpec(
        index=0,
        scenario=DROM,
        workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
        cluster=ClusterRef(nnodes=4),
    )
    return run, execute_run(run, trace=True)


def store_and_reload(
    tmp_path, tracer: Tracer, scenario: str = SERIAL, segment_steps: int = 2048
):
    """Round-trip a hand-built tracer through a TraceStore artifact."""
    from repro.workload.runner import ScenarioResult

    run = RunSpec(
        index=0,
        scenario=scenario,
        workload=SyntheticWorkloadRef(spec=SMALL, seed=99),
        cluster=ClusterRef(nnodes=4),
    )
    ends = [s.end for s in tracer]
    result = ScenarioResult(
        scenario=scenario,
        workload=run.workload.build(),
        metrics=None,
        tracer=tracer,
        jobs={},
        end_time=max(ends) if ends else 0.0,
    )
    store = TraceStore(tmp_path, segment_steps=segment_steps)
    store.put(run, result)
    return store.get(run)


class TestTraceStoreRoundTrip:
    def test_put_get_exact_equality(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        path = store.put(run, result)
        assert path == store.path_for(content_key(run))
        entry = store.get(run)
        assert entry is not None
        assert entry.tracer.steps() == result.tracer.steps()
        assert entry.tracer.mask_changes() == result.tracer.mask_changes()
        assert entry.header["end_time"] == result.end_time
        assert entry.header["scenario"] == run.scenario

    def test_reput_is_byte_identical(self, traced_run, tmp_path):
        # gzip mtime is pinned, so the artifact is a pure function of the
        # trace — re-puts and shard merges dedupe byte-wise.
        run, result = traced_run
        store = TraceStore(tmp_path)
        first = store.put(run, result).read_bytes()
        assert store.put(run, result).read_bytes() == first

    def test_same_key_as_metrics_tier(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        store.put(run, result)
        assert store.keys() == [content_key(run)]

    def test_contains_and_miss(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        assert run not in store
        assert store.get(run) is None
        store.put(run, result)
        assert run in store

    def test_stale_version_is_a_miss_and_gc_collects(self, traced_run, tmp_path):
        # Version 2 predates the chunked layout and the sched member; like
        # every format but the current one it reads as a miss.
        run, result = traced_run
        store = TraceStore(tmp_path)
        path = store.put(run, result)
        text = gzip.decompress(path.read_bytes()).decode()
        lines = text.splitlines()
        header = json.loads(lines[0])
        header["version"] = 2
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
        assert run not in store
        assert store.get(run) is None
        assert store.gc(dry_run=True) == [content_key(run)]
        assert store.gc() == [content_key(run)]
        assert len(store) == 0

    def test_corrupt_artifact_is_a_miss(self, traced_run, tmp_path):
        run, _result = traced_run
        store = TraceStore(tmp_path)
        store.path_for(content_key(run)).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(content_key(run)).write_bytes(b"not gzip at all")
        assert store.get(run) is None
        assert list(store.entries()) == []

    def test_truncated_artifact_is_a_miss_and_collectable(self, traced_run, tmp_path):
        # Regression: a gzip stream cut mid-way (interrupted shard copy)
        # raises EOFError/zlib.error, which must read as a miss — never
        # abort a campaign — and must be gc-able.
        run, result = traced_run
        store = TraceStore(tmp_path)
        path = store.put(run, result)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert run not in store
        assert store.get(run) is None
        assert list(store.entries()) == []
        fresh = TraceStore(tmp_path / "fresh")
        assert fresh.merge(store) == 0
        assert store.gc() == [content_key(run)]
        assert not path.exists()

    def test_load_by_prefix(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        store.put(run, result)
        key = content_key(run)
        assert store.load(key[:10]).key == key
        with pytest.raises(KeyError, match="no trace"):
            store.load("ffffff")


class TestTraceStoreMerge:
    def test_union_of_shards(self, tmp_path):
        spec = small_spec(seeds=(0, 1))
        shard_a, shard_b = spec.shard(2)
        store_a = TraceStore(tmp_path / "a")
        store_b = TraceStore(tmp_path / "b")
        run_campaign(shard_a, trace_store=store_a)
        run_campaign(shard_b, trace_store=store_b)
        merged = TraceStore(tmp_path / "merged")
        assert merged.merge(store_a) == len(store_a)
        assert merged.merge(store_b) == len(store_b)
        assert set(merged.keys()) == set(store_a.keys()) | set(store_b.keys())
        # The merged tier serves the full campaign without simulating.
        mstore = ResultStore(tmp_path / "metrics")
        run_campaign(spec, store=mstore)  # warm the metrics tier
        warm = run_campaign(spec, store=mstore, trace_store=merged)
        assert warm.executed == 0

    def test_local_current_entry_wins_and_stale_source_skipped(
        self, traced_run, tmp_path
    ):
        run, result = traced_run
        local = TraceStore(tmp_path / "local")
        remote = TraceStore(tmp_path / "remote")
        local.put(run, result)
        before = local.path_for(content_key(run)).read_bytes()
        remote.put(run, result)
        assert local.merge(remote) == 0
        assert local.path_for(content_key(run)).read_bytes() == before
        # A stale-format source artifact is never imported.
        stale = remote.path_for(content_key(run))
        stale.write_bytes(gzip.compress(b'{"record": "run", "version": 0}\n'))
        fresh = TraceStore(tmp_path / "fresh")
        assert fresh.merge(remote) == 0
        assert len(fresh) == 0


class TestTwoTierCampaign:
    def test_cold_then_warm_executes_zero(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = run_campaign(spec, store=store, trace_store=traces)
        assert cold.executed == spec.nruns and cold.cache_hits == 0
        assert len(traces) == spec.nruns
        warm = run_campaign(spec, store=store, trace_store=traces)
        assert warm.executed == 0 and warm.cache_hits == spec.nruns
        assert warm.rows == cold.rows

    def test_metrics_hit_trace_miss_resimulates_and_backfills(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        run_campaign(spec, store=store)  # metrics tier only
        backfill = run_campaign(spec, store=store, trace_store=traces)
        assert backfill.executed == spec.nruns  # trace misses force re-runs
        assert len(traces) == spec.nruns
        warm = run_campaign(spec, store=store, trace_store=traces)
        assert warm.executed == 0

    def test_pooled_writes_identical_artifacts(self, tmp_path):
        spec = small_spec(seeds=(0, 1))
        serial = TraceStore(tmp_path / "serial")
        pooled = TraceStore(tmp_path / "pooled")
        run_campaign(spec, workers=1, trace_store=serial)
        run_campaign(spec, workers=2, trace_store=pooled)
        assert serial.keys() == pooled.keys()
        for key in serial.keys():
            assert (
                serial.path_for(key).read_bytes() == pooled.path_for(key).read_bytes()
            )

    def test_pooled_warm_run_executes_zero(self, tmp_path):
        spec = small_spec(seeds=(0, 1))
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = run_campaign(spec, workers=2, store=store, trace_store=traces)
        warm = run_campaign(spec, workers=2, store=store, trace_store=traces)
        assert cold.executed == spec.nruns and warm.executed == 0
        assert warm.rows == cold.rows


class TestScenarioReplay:
    def test_pair_replays_when_both_tiers_hit(self, tmp_path):
        ref = SyntheticWorkloadRef(spec=SMALL, seed=0)
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = run_scenario_pair(
            ref, cluster=ClusterRef(nnodes=4), store=store, trace_store=traces
        )
        assert all(not r.replayed for r in cold.values())
        warm = run_scenario_pair(
            ref, cluster=ClusterRef(nnodes=4), store=store, trace_store=traces
        )
        assert all(isinstance(r, ScenarioReplay) and r.replayed for r in warm.values())
        for scenario in (SERIAL, DROM):
            live, replay = cold[scenario], warm[scenario]
            assert replay.tracer.steps() == live.tracer.steps()
            assert replay.tracer.mask_changes() == live.tracer.mask_changes()
            assert replay.metrics.total_run_time == live.metrics.total_run_time
            assert replay.metrics.response_times() == dict(
                live.metrics.response_times()
            )
            assert replay.metrics.wait_times() == dict(live.metrics.wait_times())
            assert replay.end_time == live.end_time
            assert replay.workload.name == live.workload.name
            for job in live.metrics.response_times():
                assert replay.job_utilisation(job) == pytest.approx(
                    live.job_utilisation(job)
                )

    def test_sinks_are_fed_on_replays(self, tmp_path):
        # Regression: replays carry a full tracer, so a warm pair must still
        # export through its sinks (the pre-tier behaviour), byte-identically.
        from repro.results import JsonlTraceSink

        ref = SyntheticWorkloadRef(spec=SMALL, seed=0)
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        run_scenario_pair(
            ref, cluster=ClusterRef(nnodes=4), store=store, trace_store=traces,
            sinks=(JsonlTraceSink(cold_dir),),
        )
        warm = run_scenario_pair(
            ref, cluster=ClusterRef(nnodes=4), store=store, trace_store=traces,
            sinks=(JsonlTraceSink(warm_dir),),
        )
        assert all(r.replayed for r in warm.values())
        cold_files = sorted(p.name for p in cold_dir.glob("*.jsonl"))
        warm_files = sorted(p.name for p in warm_dir.glob("*.jsonl"))
        assert cold_files == warm_files and len(warm_files) == 2
        for name in warm_files:
            assert (warm_dir / name).read_text() == (cold_dir / name).read_text()

    def test_metrics_only_store_still_executes(self, tmp_path):
        # Without the trace tier the pair must not try to replay.
        ref = SyntheticWorkloadRef(spec=SMALL, seed=0)
        store = ResultStore(tmp_path / "m")
        run_scenario_pair(ref, cluster=ClusterRef(nnodes=4), store=store)
        again = run_scenario_pair(ref, cluster=ClusterRef(nnodes=4), store=store)
        assert all(not r.replayed for r in again.values())


class TestWarmFigures:
    def test_usecase2_warm_is_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = run_usecase2(store=store, trace_store=traces)
        warm = run_usecase2(store=store, trace_store=traces)
        assert cold.executed == 2 and warm.executed == 0
        for scenario in ("serial", "drom"):
            assert warm.cycles_rendering(scenario) == cold.cycles_rendering(scenario)
            for job, hist in cold.ipc_histograms(scenario).items():
                assert (warm.ipc_histograms(scenario)[job] == hist).all()
        assert warm.ipc_comparison() == cold.ipc_comparison()
        assert warm.total_run_time_gain == cold.total_run_time_gain
        assert warm.wait_times() == cold.wait_times()
        assert warm.coreneuron_expanded() == cold.coreneuron_expanded()

    def test_usecase2_shares_cells_with_the_fig15_campaign(self, tmp_path):
        # run_usecase2's scenario pair and usecase2_responses' campaign use
        # the same workload reference, so one warm store serves Figs 13-15.
        run = RunSpec(index=0, scenario=SERIAL, workload=HighPriorityWorkloadRef())
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        run_usecase2(store=store, trace_store=traces)
        assert content_key(run) in store.keys()
        assert content_key(run) in traces.keys()

    def test_scenario_timelines_warm_equality(self, tmp_path):
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = scenario_timelines(store=store, trace_store=traces)
        warm = scenario_timelines(store=store, trace_store=traces)
        assert warm == cold  # frozen dataclasses: rendering + intervals

    def test_imbalance_trace_warm_equality(self, tmp_path):
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = imbalance_trace(store=store, trace_store=traces)
        warm = imbalance_trace(store=store, trace_store=traces)
        assert warm == cold


class TestTraceReader:
    def test_queries_match_tracer(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        store.put(run, result)
        reader = TraceReader(store.get(run))
        assert reader.jobs() == result.tracer.jobs()
        intervals = reader.job_intervals()
        for job in reader.jobs():
            assert intervals[job] == result.tracer.span(job)
            assert reader.ipc_series(job) == [
                (s.start, s.ipc) for s in result.tracer.steps(job)
            ]
        assert reader.mask_change_sequence() == result.tracer.mask_changes()
        assert reader.render_job_widths(bin_seconds=100.0)

    def test_team_size_series_tracks_mask_changes(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        store.put(run, result)
        reader = TraceReader(store.get(run))
        changed = {c.job for c in result.tracer.mask_changes()}
        assert changed, "DROM run should observe mask changes"
        for job in changed:
            ranks = {c.rank for c in result.tracer.mask_changes(job)}
            for rank in ranks:
                series = reader.team_size_series(job, rank)
                changes = [
                    c for c in result.tracer.mask_changes(job) if c.rank == rank
                ]
                assert series[0] == (0.0, changes[0].old_threads)
                assert series[1:] == [(c.time, c.new_threads) for c in changes]

    def test_ipc_histogram_matches_counter_log(self, traced_run):
        _run, result = traced_run
        reader = TraceReader(result.tracer)
        job = result.tracer.jobs()[0]
        total = reader.ipc_histogram(job)
        per_thread = result.tracer.counter_log().ipc_histogram(job)
        assert total.sum() == sum(c.sum() for c in per_thread.values())


class TestReaderEdgeCases:
    """Satellite: read_prv/read_jsonl edge cases through the compressed tier."""

    def test_empty_tracer_round_trip(self, tmp_path):
        entry = store_and_reload(tmp_path, Tracer())
        assert len(entry.tracer) == 0
        assert entry.tracer.mask_changes() == []
        reader = TraceReader(entry)
        assert reader.job_intervals() == {}
        # The .prv export of an empty trace still has a valid header.
        out = tmp_path / "empty.prv"
        out.write_text(prv_text(entry.tracer))
        header, states, events = read_prv(out)
        assert header.startswith("#Paraver") and states == [] and events == []

    def test_horizon_zero_run(self, tmp_path):
        # All steps have zero duration at t=0: the horizon is 0 but the
        # trace is non-empty, and every derived view must stay well-formed.
        tracer = Tracer()
        tracer.record_step(
            StepRecord(
                job="j", rank=0, node="n0", start=0.0, duration=0.0, phase="p",
                nthreads=2, thread_utilisation=(1.0, 1.0), ipc=1.5, work_units=1.0,
            )
        )
        entry = store_and_reload(tmp_path, tracer)
        reader = TraceReader(entry)
        assert reader.job_intervals() == {"j": (0.0, 0.0)}
        assert reader.view().horizon() == 0.0
        out = tmp_path / "h0.prv"
        out.write_text(prv_text(entry.tracer))
        header, states, events = read_prv(out)
        assert ":0_us:" in header
        assert len(states) == 2 and len(events) == 1

    def test_mask_change_only_trace(self, tmp_path):
        tracer = Tracer()
        tracer.record_mask_change(
            MaskChangeRecord(job="j", rank=0, time=1.0, old_threads=4, new_threads=2)
        )
        entry = store_and_reload(tmp_path, tracer, scenario=DROM)
        assert len(entry.tracer) == 0
        assert entry.tracer.mask_changes() == tracer.mask_changes()
        reader = TraceReader(entry)
        assert reader.team_size_series("j") == [(0.0, 4), (1.0, 2)]
        # The .prv export drops the unanchorable event but stays valid.
        out = tmp_path / "mask.prv"
        out.write_text(prv_text(entry.tracer))
        header, states, events = read_prv(out)
        assert header.startswith("#Paraver") and states == [] and events == []

    def test_step_ipc_milli_round_trip(self, traced_run, tmp_path):
        # EV_STEP_IPC_MILLI values exported from a store-replayed tracer must
        # equal the live export's, line for line.
        run, result = traced_run
        store = TraceStore(tmp_path / "t")
        store.put(run, result)
        live = prv_text(result.tracer)
        replayed = prv_text(store.get(run).tracer)
        assert replayed == live  # full byte equality, a fortiori the events
        marker = f":{EV_STEP_IPC_MILLI}:"
        ipc_events = [l for l in live.splitlines() if marker in l]
        assert ipc_events, "expected per-step IPC events"
        expected = [int(round(s.ipc * 1000)) for s in result.tracer]
        values = [
            int(line.split(marker, 1)[1].split(":", 1)[0]) for line in ipc_events
        ]
        assert values == expected


class TestRunLengthSegments:
    """Format v5: the run-length step segments decode to exactly the live
    tracer's records, and a doctored run count never reads silently."""

    CELLS = [
        (njobs, scenario, backfill, 1.3 if backfill and njobs == 4 else None)
        for njobs in (4, 12)
        for backfill in (False, True)
        for scenario in (SERIAL, DROM)
    ]

    @staticmethod
    def _cell(njobs, scenario, backfill, interference):
        return RunSpec(
            index=0,
            scenario=scenario,
            workload=SyntheticWorkloadRef(
                spec=WorkloadSpec(
                    njobs=njobs, mean_interarrival=60.0, work_scale=0.04, iterations=40
                ),
                seed=njobs,
            ),
            cluster=ClusterRef(nnodes=4),
            interference_factor=interference,
            scheduler=SchedulerRef(backfill=backfill),
        )

    @pytest.mark.parametrize("njobs,scenario,backfill,interference", CELLS)
    def test_generated_cells_round_trip(
        self, njobs, scenario, backfill, interference, tmp_path
    ):
        run = self._cell(njobs, scenario, backfill, interference)
        result = execute_run(run, trace=True)
        live = list(result.tracer)
        store = TraceStore(tmp_path, segment_steps=64)
        store.put(run, result)
        assert len(store.get(run).segments) > 1

        rng = random.Random(f"{njobs}/{scenario}/{backfill}")
        for _ in range(4):
            # A fresh entry each time, so every window reads lazily.
            entry = store.get(run)
            lo = rng.uniform(0.0, result.end_time)
            hi = rng.uniform(lo, result.end_time)
            assert entry.steps_between(lo, hi) == [
                s for s in live if s.start <= hi and s.end >= lo
            ]
            count = rng.randrange(len(live) + 2)
            assert store.get(run).head_steps(count) == live[:count]

        tracer = store.get(run).tracer
        assert list(tracer) == live
        assert repr(list(tracer)) == repr(live)
        assert tracer.mask_changes() == result.tracer.mask_changes()
        assert prv_text(tracer) == prv_text(result.tracer)
        assert pcf_text(tracer) == pcf_text(result.tracer)
        assert row_text(tracer) == row_text(result.tracer)

    def test_run_breaks_round_trip_repr_exactly(self, tmp_path):
        def step(start, duration=1.0, rank=0, **changes):
            fields = dict(
                job="j", rank=rank, node="n0", start=start, duration=duration,
                phase="p", nthreads=2, thread_utilisation=(1.0, 0.5), ipc=1.5,
                work_units=1.0,
            )
            fields.update(changes)
            return StepRecord(**fields)

        steps = [
            step(0.0), step(1.0), step(2.0),
            step(5.0), step(6.0),  # idle gap
            step(7.0, duration=0.0), step(7.0, duration=0.0),  # zero-duration
            step(7.0), step(8.0, thread_utilisation=(0.8, 0.4)),  # laggard scale
            step(9.0, thread_utilisation=(0.8, 0.4)),
            step(10.0, work_units=1), step(11.0, work_units=1.0),  # int vs float
            step(12.0, ipc=0.0), step(13.0, ipc=-0.0), step(14.0, ipc=0.0),
            step(-0.0, rank=1), step(1.0, rank=1), step(0.0, rank=2),
            step(1.0, rank=2),
        ]
        tracer = Tracer()
        for record in steps:
            tracer.record_step(record)
        entry = store_and_reload(tmp_path, tracer, segment_steps=6)
        assert repr(list(entry.tracer)) == repr(list(tracer))
        for index in range(len(entry.segments)):
            entry.segment_steps(index)  # every segment decodes to its ``n``

    def test_runs_write_the_artifact_single_steps_write(self, tmp_path):
        # The reference loop records one step at a time, the batched runner
        # hands over runs: the artifact may not tell them apart.
        def run(job, rank, start, duration, count, phase="p", util=(1.0, 0.5)):
            return StepRun(job, rank, "n0", start, duration, phase, len(util), util,
                           1.5, 2.0, count)

        head = run("a", 0, 0.0, 0.1, 40)
        runs = [
            run("b", 0, 0.0, 0.3, 90),  # ties with "a" at 0.0: the label decides
            head,
            run("a", 0, head.end, 0.1, 60),  # continues ``head`` across a cut
            run("a", 1, 0.0, 0.1, 70, util=(0.75,)),
            run("a", 0, head.end + 6.0, 0.1, 30, phase="q"),  # after an idle gap
            run("b", 1, 5.0, 0.0, 3),  # zero-duration steps tie on start
            run("b", 0, 27.0, 0.3, 1),
        ]
        single = Tracer()
        for step in expand_runs(runs):
            single.record_step(step)
        batched = Tracer()
        batched.record_steps(runs)
        assert len(batched.runs()) < len(single.runs()) == len(single) == len(batched)

        paths = []
        for name, tracer in (("single", single), ("runs", batched)):
            entry = store_and_reload(tmp_path / name, tracer, segment_steps=64)
            assert len(entry.segments) == 5
            assert list(entry.tracer) == list(single)
            paths.append(entry.path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # Segment 0 opens with "a" rank 0 (labels break the tie at t=0), and
        # the two recorded runs of its 100-step stretch merge: one run per
        # segment it crosses.
        entry = store_and_reload(tmp_path / "runs", batched, segment_steps=64)
        assert entry.segment_runs(0)[0][:2] == ("a", 0)
        stretch = [
            [r.count for r in entry.segment_runs(i) if r[:2] == ("a", 0) and r.phase == "p"]
            for i in range(len(entry.segments))
        ]
        assert [len(counts) for counts in stretch] == [1, 1, 1, 1, 0]
        assert sum(map(sum, stretch)) == 100

    @staticmethod
    def _doctor_count(entry, index, recount):
        """Rewrite segment ``index`` with its longest run's count replaced by
        ``recount(count)``, patching the header's byte table to match."""
        from repro.traces.store import _gzip_member

        data = entry.path.read_bytes()
        offset = entry._segment_offset(index)
        length = entry.segments[index]["bytes"]
        member = json.loads(gzip.decompress(data[offset : offset + length]))
        longest = max(member["runs"], key=lambda run: run[-1])
        assert longest[-1] > 1
        longest[-1] = recount(longest[-1])
        blob = _gzip_member(json.dumps(member, sort_keys=True) + "\n")
        header = json.loads(json.dumps(entry.header))
        header["segments"][index]["bytes"] = len(blob)
        entry.path.write_bytes(
            _gzip_member(json.dumps(header, sort_keys=True) + "\n")
            + data[entry.header_bytes : offset]
            + blob
            + data[offset + length :]
        )

    @pytest.mark.parametrize(
        "recount",
        [lambda n: n - 1, lambda n: n + 1, lambda n: 0],
        ids=["short", "long", "zero"],
    )
    def test_doctored_run_count_raises(self, traced_run, tmp_path, recount):
        run, result = traced_run
        store = TraceStore(tmp_path, segment_steps=16)
        store.put(run, result)
        index = 1
        self._doctor_count(store.get(run), index, recount)
        doctored = store.get(run)
        assert doctored is not None  # the byte-size cross-check still passes
        assert doctored.segment_steps(0) == list(result.tracer)[:16]
        with pytest.raises(ValueError, match=f"segment {index}"):
            doctored.segment_steps(index)
        with pytest.raises(ValueError, match=f"segment {index}"):
            list(store.get(run).tracer)


class TestTracesCli:
    @pytest.fixture()
    def populated(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path / "t")
        store.put(run, result)
        return run, result, store

    def test_ls_and_show(self, populated, capsys):
        run, _result, store = populated
        assert traces_main(["ls", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert content_key(run)[:12] in out and "drom" in out
        assert traces_main(["show", content_key(run)[:10], "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "scenario  drom" in out

    def test_show_unknown_key(self, populated, capsys):
        _run, _result, store = populated
        assert traces_main(["show", "ffff", "--store", str(store.root)]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_export_prv_matches_live_sink(self, populated, tmp_path, capsys):
        run, result, store = populated
        live = ParaverTraceSink(tmp_path / "live").write(run, result)
        out_dir = tmp_path / "exported"
        assert traces_main([
            "export", content_key(run)[:10], "--store", str(store.root),
            "--out", str(out_dir),
        ]) == 0
        exported = list(out_dir.glob("*.prv"))
        assert len(exported) == 1
        assert exported[0].read_text() == live.read_text()
        # Re-export overwrites (content-keyed stem), never accumulates.
        assert traces_main([
            "export", content_key(run)[:10], "--store", str(store.root),
            "--out", str(out_dir),
        ]) == 0
        assert len(list(out_dir.glob("*.prv"))) == 1

    def test_export_jsonl_is_the_flat_record_stream(self, populated, tmp_path, capsys):
        # Header, steps in canonical order, mask changes, sched records: one
        # sorted-key record per line, whatever the artifact's encoding.
        run, result, store = populated
        out_dir = tmp_path / "exported"
        assert traces_main([
            "export", content_key(run)[:10], "--store", str(store.root),
            "--format", "jsonl", "--out", str(out_dir),
        ]) == 0
        exported = list(out_dir.glob("*.jsonl"))
        assert len(exported) == 1
        lines = exported[0].read_text().splitlines()
        assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in lines)
        records = [json.loads(line) for line in lines]
        assert records[0] == store.get(run).header
        nsteps, nmasks = len(result.tracer), len(result.tracer.mask_changes())
        assert result.tracer.mask_changes(), "the fixture should change masks"
        steps = records[1 : 1 + nsteps]
        masks = records[1 + nsteps : 1 + nsteps + nmasks]
        assert [StepRecord.from_record(r) for r in steps] == list(result.tracer)
        assert steps == [s.to_record() for s in result.tracer]
        assert [MaskChangeRecord.from_record(r) for r in masks] == (
            result.tracer.mask_changes()
        )
        sched = records[1 + nsteps + nmasks :]
        assert len(sched) == len(result.sched) > 0
        assert all(r["record"] not in ("step", "mask_change") for r in sched)

    def test_gc_collects_stale_artifact(self, populated, capsys):
        run, _result, store = populated
        path = store.path_for(content_key(run))
        path.write_bytes(gzip.compress(b'{"record": "run", "version": 0}\n'))
        assert traces_main(["gc", "--store", str(store.root)]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert path.exists()
        assert traces_main(["gc", "--store", str(store.root), "--delete"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not path.exists()


class TestMergeCliWithTraces:
    def test_merge_ships_both_tiers(self, tmp_path, capsys):
        from repro.results.__main__ import main as results_main

        spec = small_spec(seeds=(0, 1))
        shards = spec.shard(2)
        for i, shard in enumerate(shards):
            run_campaign(
                shard,
                store=ResultStore(tmp_path / f"m{i}"),
                trace_store=TraceStore(tmp_path / f"t{i}"),
            )
        code = results_main([
            "merge", str(tmp_path / "m"), str(tmp_path / "m0"), str(tmp_path / "m1"),
            "--traces", str(tmp_path / "t"), str(tmp_path / "t0"), str(tmp_path / "t1"),
        ])
        assert code == 0
        warm = run_campaign(
            spec, store=ResultStore(tmp_path / "m"), trace_store=TraceStore(tmp_path / "t")
        )
        assert warm.executed == 0 and warm.cache_hits == spec.nruns

    def test_merge_traces_needs_target_and_shard(self, tmp_path, capsys):
        from repro.results.__main__ import main as results_main

        (tmp_path / "m0").mkdir()
        code = results_main([
            "merge", str(tmp_path / "m"), str(tmp_path / "m0"),
            "--traces", str(tmp_path / "t"),
        ])
        assert code == 2
        assert "--traces" in capsys.readouterr().err

    def test_merge_missing_trace_shard_fails(self, tmp_path, capsys):
        from repro.results.__main__ import main as results_main

        (tmp_path / "m0").mkdir()
        code = results_main([
            "merge", str(tmp_path / "m"), str(tmp_path / "m0"),
            "--traces", str(tmp_path / "t"), str(tmp_path / "missing"),
        ])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err
