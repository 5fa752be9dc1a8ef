"""Tests of the scheduler observability layer (`repro.obs.sched`).

The load-bearing contracts:

* **Event-driven probe** — the controller pushes every lifecycle edge to the
  probe; queue depth is correct even mid-scheduling-pass (skipped jobs stay
  pending), and batched/unbatched executions record identical timelines.
* **Trace format v5** — the sched member round-trips byte-identically, v3
  and v4 artifacts are cache misses that ``gc`` collects, and a truncated
  sched member is a cache miss.
* **Warm == cold** — fairness/utilization queries over a stored artifact
  equal the live run's answers exactly, with zero simulation.
* **Starvation regression** (ROADMAP item 4's pinned numbers) — under
  greedy backfill a small-job stream grows a wide job's ``max_wait``
  without bound.
"""

from __future__ import annotations

import gzip
import io
import json
import logging

import pytest

from repro.campaign import (
    CampaignSpec,
    ClusterRef,
    RunSpec,
    SyntheticWorkloadRef,
    execute_run,
    run_campaign,
)
from repro.cpuset.topology import ClusterTopology
from repro.obs import (
    ClusterProbe,
    FairnessSummary,
    JobLifecycleRecord,
    NodeSample,
    QueueSample,
    SchedTimeline,
    Telemetry,
    TickingClockFactory,
    chrome_trace_events,
    summarise,
    validate_chrome_trace,
    write_summary,
)
from repro.obs.log import configure, resolve_level
from repro.obs.sched import SLOWDOWN_BOUND
from repro.results.store import ResultStore, content_key
from repro.slurm.jobs import JobSpec
from repro.slurm.slurmctld import Slurmctld
from repro.traces.query import TraceReader
from repro.traces.store import TraceStore
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM, SERIAL, ScenarioRunner
from repro.workload.workloads import in_situ_workload

SMALL = WorkloadSpec(njobs=2, mean_interarrival=90.0, work_scale=0.04, iterations=12)


def small_run(scenario: str = DROM) -> RunSpec:
    return RunSpec(
        index=0,
        scenario=scenario,
        workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
        cluster=ClusterRef(nnodes=4),
    )


def rigid(name: str, nodes: int, cpus: int, priority: int = 0) -> JobSpec:
    return JobSpec(
        name=name,
        nodes=nodes,
        ntasks=nodes,
        cpus_per_task=cpus,
        malleable=False,
        priority=priority,
    )


class TestClusterProbe:
    def test_lifecycle_series_from_controller_events(self):
        probe = ClusterProbe()
        ctld = Slurmctld(ClusterTopology.marenostrum3(2), probe=probe)
        a = ctld.submit(rigid("a", 1, 16), 0.0)
        b = ctld.submit(rigid("b", 2, 16), 1.0)
        ctld.schedule(2.0)  # a starts; b blocked behind it (no backfill)
        ctld.job_completed(a.job_id, 10.0)
        ctld.schedule(10.0)  # b starts on both nodes
        ctld.job_completed(b.job_id, 30.0)
        timeline = probe.timeline()

        assert timeline.queue_depth_series() == [
            (0.0, 1),  # a submitted
            (1.0, 2),  # b submitted
            (2.0, 1),  # a started
            (10.0, 1),  # a completed (b still pending)
            (10.0, 0),  # b started
            (30.0, 0),  # b completed
        ]
        assert timeline.running_series() == [
            (0.0, 0), (1.0, 0), (2.0, 1), (10.0, 0), (10.0, 1), (30.0, 0),
        ]
        rows = timeline.job_lifecycle()
        assert [r.job for r in rows] == ["a", "b"]
        assert rows[0].wait_time == 2.0
        assert rows[1].wait_time == 9.0
        assert rows[1].granted_nodes == 2
        assert rows[1].turnaround == 29.0
        # node samples: a's start (1 node), a's completion, b's start and
        # completion on both nodes
        node_events = timeline.utilization_series()
        assert len(node_events) == 1 + 1 + 2 + 2
        busy = [s for s in timeline.utilization_series("mn3-1") if s.busy_cpus]
        assert all(s.ncpus == 16 for s in node_events)
        assert busy[0].busy_cpus == 16

    def test_queue_depth_counts_skipped_jobs_as_pending(self):
        # Mid-pass the controller's queue is mutated (skipped jobs requeue
        # only at pass end); the probe's own counters must not be fooled.
        probe = ClusterProbe()
        ctld = Slurmctld(
            ClusterTopology.marenostrum3(2), backfill=True, probe=probe
        )
        ctld.submit(rigid("small", 1, 8), 0.0)
        ctld.schedule(0.0)  # small occupies half of node 0
        ctld.submit(rigid("wide", 2, 16, priority=1), 1.0)
        ctld.submit(rigid("blocker", 1, 16), 1.0)
        ctld.schedule(1.0)  # wide pops first and blocks; blocker backfills
        depth = probe.timeline().queue_depth_series()[-1][1]
        assert depth == 1

    def test_cancel_of_pending_job_decrements_depth(self):
        probe = ClusterProbe()
        ctld = Slurmctld(ClusterTopology.marenostrum3(2), probe=probe)
        job = ctld.submit(rigid("doomed", 1, 16), 0.0)
        ctld.cancel(job.job_id, 5.0)
        series = probe.timeline().queue_depth_series()
        assert series == [(0.0, 1), (5.0, 0)]
        row = probe.timeline().job_lifecycle()[0]
        assert row.start_time is None and row.wait_time is None

    def test_probe_is_never_polled(self):
        # The controller only notifies on lifecycle edges: a run's sample
        # count is O(jobs), not O(steps).
        result = execute_run(small_run())
        njobs = len(result.sched.jobs)
        assert result.steps_advanced > 0
        # one sample per submit/start/complete edge, nothing per step
        assert len(result.sched.queue) <= 3 * njobs
        assert len(result.sched.nodes) <= 2 * njobs * 4  # starts+frees x nodes


class TestTimelineQueries:
    def test_fairness_percentiles_nearest_rank(self):
        rows = tuple(
            JobLifecycleRecord(
                job=f"j{i}",
                submit_time=0.0,
                start_time=wait,
                end_time=wait + 100.0,
                requested_nodes=1,
                granted_nodes=1,
                co_allocated=False,
            )
            for i, wait in enumerate([0.0, 10.0, 100.0])
        )
        fairness = SchedTimeline(jobs=rows).fairness_summary()
        assert fairness.njobs == 3 and fairness.started == 3
        assert fairness.p50_wait == 10.0
        assert fairness.p95_wait == 100.0
        assert fairness.max_wait == 100.0
        assert fairness.mean_wait == pytest.approx(110.0 / 3)
        # turnarounds 100/110/200 over run_time 100 -> slowdowns 1.0/1.1/2.0
        assert fairness.p50_slowdown == pytest.approx(1.1)
        assert fairness.max_slowdown == pytest.approx(2.0)

    def test_bounded_slowdown_floors_short_jobs(self):
        row = JobLifecycleRecord(
            job="quick",
            submit_time=0.0,
            start_time=0.0,
            end_time=1.0,  # run_time 1s << SLOWDOWN_BOUND
            requested_nodes=1,
            granted_nodes=1,
            co_allocated=False,
        )
        assert row.bounded_slowdown == max(1.0, 1.0 / SLOWDOWN_BOUND)
        pending = JobLifecycleRecord(
            job="pending",
            submit_time=0.0,
            start_time=None,
            end_time=None,
            requested_nodes=1,
            granted_nodes=0,
            co_allocated=False,
        )
        assert pending.bounded_slowdown is None
        summary = SchedTimeline(jobs=(pending,)).fairness_summary()
        assert summary.njobs == 1 and summary.started == 0
        assert summary.max_wait == 0.0

    def test_utilization_integrates_step_function(self):
        nodes = (
            NodeSample(0.0, "n1", 8, 1, 16),
            NodeSample(10.0, "n1", 0, 0, 16),
            NodeSample(0.0, "n2", 16, 1, 16),
        )
        timeline = SchedTimeline(nodes=nodes)
        # n1: 8 cpus x 10s; n2: 16 cpus x 20s
        assert timeline.busy_cpu_seconds(20.0) == 8 * 10 + 16 * 20
        assert timeline.capacity_cpu_seconds(20.0) == 2 * 16 * 20
        assert timeline.utilization(20.0) == pytest.approx(400.0 / 640.0)
        assert [s.node for s in timeline.utilization_series("n2")] == ["n2"]

    def test_codec_round_trip_and_unknown_record(self):
        result = execute_run(small_run())
        timeline = result.sched
        assert len(timeline) > 0
        assert SchedTimeline.from_records(timeline.to_records()) == timeline
        with pytest.raises(ValueError, match="unknown sched record"):
            SchedTimeline.from_records([{"record": "step"}])
        sample = QueueSample(1.0, 2, 3)
        assert QueueSample.from_record(sample.to_record()) == sample


class TestRunnerIntegration:
    def test_batched_and_reference_loops_record_identical_timelines(self):
        workload = in_situ_workload()
        for drom_enabled in (False, True):
            fast = ScenarioRunner(drom_enabled, batching=True).run(workload)
            slow = ScenarioRunner(drom_enabled, batching=False).run(workload)
            assert fast.sched == slow.sched
            assert len(fast.sched.jobs) == 2

    def test_drom_erases_the_serial_wait(self):
        # The paper's core claim, now visible at the scheduler level.
        workload = in_situ_workload()
        serial = ScenarioRunner(False).run(workload).sched.fairness_summary()
        drom = ScenarioRunner(True).run(workload).sched.fairness_summary()
        assert serial.max_wait > 1000.0
        assert drom.max_wait == 0.0
        assert serial.max_slowdown > drom.max_slowdown


class TestSchedPersistence:
    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        run = small_run()
        result = execute_run(run, trace=True)
        store = TraceStore(tmp_path_factory.mktemp("traces"))
        path = store.put(run, result)
        return run, result, store, path

    def test_v5_round_trip_and_warm_equals_cold(self, stored):
        run, result, store, _path = stored
        entry = store.get(run)
        assert entry is not None
        assert entry.header["version"] == 5
        assert entry.header["nsched"] == len(result.sched)
        assert entry.sched == result.sched

        warm = TraceReader(entry)
        live = TraceReader(result.tracer, sched=result.sched)
        assert warm.fairness_summary() == live.fairness_summary()
        assert warm.queue_depth_series() == live.queue_depth_series()
        assert warm.utilization_series() == live.utilization_series()
        assert warm.utilization_series(
            warm.sched.node_names()[0]
        ) == live.utilization_series(live.sched.node_names()[0])
        assert warm.job_lifecycle() == live.job_lifecycle()

    def test_reput_is_byte_identical(self, stored):
        run, result, store, path = stored
        before = path.read_bytes()
        store.put(run, result)
        assert path.read_bytes() == before

    def test_sched_member_inflates_lazily(self, stored):
        run, _result, store, _path = stored
        entry = store.get(run)
        assert "sched" not in entry._inflated
        entry.sched_records()
        assert "sched" in entry._inflated
        # and it never inflated a step segment to answer
        assert entry.segments_inflated == 0

    def test_v3_artifact_is_a_miss_and_gc_collects_it(self, stored, tmp_path):
        # Hand-build a v3 artifact from the current one: drop the trailing
        # sched member and rewrite the header without the v4 fields.  The trace
        # tier is a cache, so the old format is a miss that gc collects.
        run, _result, store, path = stored
        data = path.read_bytes()
        entry = store.get(run)
        header, header_bytes = dict(entry.header), entry.header_bytes
        sched_bytes = header["sched_bytes"]
        assert sched_bytes > 0
        body = data[header_bytes : len(data) - sched_bytes]
        header = {
            k: v for k, v in header.items() if k not in ("sched_bytes", "nsched")
        }
        header["version"] = 3
        from repro.traces.store import _gzip_member

        v3_store = TraceStore(tmp_path)
        v3_path = v3_store.path_for(content_key(run))
        v3_path.parent.mkdir(parents=True, exist_ok=True)
        v3_path.write_bytes(
            _gzip_member(json.dumps(header, sort_keys=True) + "\n") + body
        )
        assert v3_store.get(run) is None
        assert run not in v3_store
        assert v3_store.gc() == [content_key(run)]
        assert not v3_path.exists() and len(v3_store) == 0

    def test_v4_artifact_is_a_miss_and_gc_collects_it(self, stored, tmp_path):
        # Hand-build a v4 artifact from the v5 one: re-encode every step
        # segment as one JSONL line per step and stamp version 4.  No v4
        # reader is kept, so the old format is a miss that gc collects.
        run, _result, store, path = stored
        from repro.traces.store import _gzip_member, _records_member

        data = path.read_bytes()
        entry = store.get(run)
        blobs = [
            _records_member([step.to_record() for step in entry.segment_steps(i)])
            for i in range(len(entry.segments))
        ]
        header = dict(
            entry.header,
            version=4,
            segments=[dict(seg, bytes=len(b)) for seg, b in zip(entry.segments, blobs)],
        )
        v4_store = TraceStore(tmp_path)
        v4_path = v4_store.path_for(content_key(run))
        v4_path.parent.mkdir(parents=True, exist_ok=True)
        v4_path.write_bytes(
            _gzip_member(json.dumps(header, sort_keys=True) + "\n")
            + b"".join(blobs)
            + data[entry._segment_offset(len(entry.segments)) :]
        )
        assert v4_store.get(run) is None
        assert run not in v4_store
        assert v4_store.gc() == [content_key(run)]
        assert not v4_path.exists() and len(v4_store) == 0

    def test_truncated_sched_member_is_a_miss(self, stored, tmp_path):
        run, result, _store, _path = stored
        store = TraceStore(tmp_path / "t")
        path = store.put(run, result)
        data = path.read_bytes()
        path.write_bytes(data[:-2])
        assert store.get(run) is None
        assert run not in store
        path.write_bytes(data)
        assert store.get(run) is not None

    def test_replay_exposes_sched(self, stored, tmp_path):
        from repro.campaign import run_scenario_pair

        run, _result, _store, _path = stored
        store = ResultStore(tmp_path / "metrics")
        trace_store = TraceStore(tmp_path / "traces")
        cold = run_scenario_pair(
            run.workload, store=store, trace_store=trace_store
        )
        warm = run_scenario_pair(
            run.workload, store=store, trace_store=trace_store
        )
        for scenario in (SERIAL, DROM):
            assert warm[scenario].replayed
            assert warm[scenario].sched == cold[scenario].sched
            assert len(warm[scenario].sched.jobs) > 0


class TestStarvationRegression:
    """ROADMAP item 4's pinned numbers: greedy backfill starves a wide job.

    A stream of overlapping small jobs keeps one node partly busy at every
    scheduling pass, so the 2-node rigid job at the *head* of the queue
    waits for the entire stream — its wait grows linearly with the stream
    length.  EASY/conservative backfill must later cap this by reserving
    for the head job.
    """

    @staticmethod
    def _wide_wait_under_stream(nsmall: int) -> float:
        probe = ClusterProbe()
        ctld = Slurmctld(
            ClusterTopology.marenostrum3(2),
            drom_enabled=False,
            backfill=True,
            probe=probe,
        )
        first = ctld.submit(rigid("small-0", 1, 8), 0.0)
        ctld.schedule(0.0)
        wide = ctld.submit(rigid("wide", 2, 16), 1.0)
        ctld.schedule(1.0)  # wide blocked behind small-0
        previous = first
        for i in range(1, nsmall):
            t = 10.0 * i
            current = ctld.submit(rigid(f"small-{i}", 1, 8), t)
            ctld.schedule(t)  # greedy backfill starts it beside the wide job
            ctld.job_completed(previous.job_id, t + 5.0)
            ctld.schedule(t + 5.0)  # wide still blocked: small-i is running
            previous = current
        end = 10.0 * nsmall + 5.0
        ctld.job_completed(previous.job_id, end)
        ctld.schedule(end)  # stream over: the wide job finally starts
        ctld.job_completed(wide.job_id, end + 50.0)
        timeline = probe.timeline()
        row = next(r for r in timeline.job_lifecycle() if r.job == "wide")
        assert row.wait_time is not None
        assert timeline.fairness_summary().max_wait == row.wait_time
        return row.wait_time

    def test_wide_job_max_wait_grows_unbounded(self):
        short = self._wide_wait_under_stream(4)
        long = self._wide_wait_under_stream(8)
        longer = self._wide_wait_under_stream(16)
        assert short == pytest.approx(44.0)
        assert long == pytest.approx(84.0)
        assert longer == pytest.approx(164.0)
        # linear in the stream length: each extra small job adds its period
        assert long - short == pytest.approx(40.0)
        assert longer - long == pytest.approx(80.0)


class TestTelemetryAndExports:
    def small_sweep(self) -> CampaignSpec:
        return CampaignSpec(
            name="sched-sweep",
            workloads=(SyntheticWorkloadRef(spec=SMALL, seed=0),),
            scenarios=(SERIAL, DROM),
            clusters=(ClusterRef(nnodes=4),),
        )

    def test_summary_scheduler_block(self, tmp_path):
        obs = Telemetry(clock_factory=TickingClockFactory())
        run_campaign(self.small_sweep(), telemetry=obs)
        document = write_summary(obs, tmp_path / "telemetry.json")
        sched = document["summary"]["scheduler"]
        assert sched["jobs"] == 4  # 2 jobs x 2 scenarios
        assert sched["started"] == 4
        assert sched["capacity_cpu_seconds"] > 0
        assert 0.0 < sched["utilization"] < 2.0
        assert sched["max_wait"] >= sched["mean_wait"] >= 0.0

    def test_simulate_span_counters_and_series(self):
        obs = Telemetry(clock_factory=TickingClockFactory())
        run_campaign(self.small_sweep(), telemetry=obs)
        simulate = [
            s for root in obs.roots for s in root.walk() if s.name == "simulate"
        ]
        assert simulate
        for span in simulate:
            assert span.counters["sched_jobs"] == 2
            assert span.counters["sched_capacity_cpu_seconds"] > 0
            assert isinstance(span.attrs["sched_queue_series"], list)
            assert span.attrs["sched_queue_series"][0][1] == 1

    def test_chrome_trace_counter_track_validates(self):
        obs = Telemetry(clock_factory=TickingClockFactory())
        run_campaign(self.small_sweep(), telemetry=obs)
        events = chrome_trace_events(obs)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "expected sched counter events"
        assert all("pending" in e["args"] for e in counters)
        # the series attr stays out of the complete events' args
        for event in events:
            if event["ph"] == "X":
                assert "sched_queue_series" not in event.get("args", {})
        validate_chrome_trace({"traceEvents": events})

    def test_validator_rejects_bad_counter(self):
        base = {"name": "c", "cat": "t", "ph": "C", "pid": 0, "tid": 0}
        with pytest.raises(ValueError, match="invalid 'ts'"):
            validate_chrome_trace({"traceEvents": [dict(base, ts=-1, args={"a": 1})]})
        with pytest.raises(ValueError, match="numeric"):
            validate_chrome_trace(
                {"traceEvents": [dict(base, ts=0, args={"a": "high"})]}
            )
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace({"traceEvents": [dict(base, ph="B", ts=0)]})

    def test_executor_series_records_and_exports(self, tmp_path):
        from repro.exec.local import LocalPoolExecutor

        obs = Telemetry(clock_factory=TickingClockFactory())
        run_campaign(
            self.small_sweep(),
            store=ResultStore(tmp_path / "store"),
            executor=[LocalPoolExecutor(slots=2)],
            telemetry=obs,
        )
        executor_spans = [
            s for root in obs.roots for s in root.walk() if s.name == "executor"
        ]
        assert executor_spans
        series = executor_spans[0].attrs["queue_series"]
        assert series and all(len(sample) == 3 for sample in series)
        events = chrome_trace_events(obs)
        queue_counters = [
            e for e in events if e["ph"] == "C" and e["name"].startswith("queue ")
        ]
        assert queue_counters
        assert {"queued", "in_flight"} <= set(queue_counters[0]["args"])
        validate_chrome_trace({"traceEvents": events})

    def test_telemetry_stays_observation_only(self, tmp_path):
        # Default-on probes + sched persistence must not move a single
        # artifact byte between telemetry-on and telemetry-off campaigns.
        spec = self.small_sweep()
        plain = ResultStore(tmp_path / "plain")
        observed = ResultStore(tmp_path / "observed")
        run_campaign(spec, store=plain)
        run_campaign(
            spec,
            store=observed,
            telemetry=Telemetry(clock_factory=TickingClockFactory()),
        )
        for key in sorted(plain.scan()):
            assert (plain.root / f"{key}.json").read_bytes() == (
                observed.root / f"{key}.json"
            ).read_bytes()


class TestLogFallback:
    def test_configure_warns_and_falls_back_on_bad_level(self):
        stream = io.StringIO()
        logger = configure("chatty", stream=stream)
        try:
            assert logger.level == logging.WARNING
            assert "unknown log level" in stream.getvalue()
            assert "falling back" in stream.getvalue()
        finally:
            configure("warning")

    def test_resolve_level_still_strict(self):
        with pytest.raises(ValueError, match="unknown log level"):
            resolve_level("chatty")


class TestTracesCli:
    def test_show_sched(self, tmp_path, capsys):
        from repro.traces.__main__ import main as traces_main

        run = small_run()
        result = execute_run(run, trace=True)
        store = TraceStore(tmp_path)
        store.put(run, result)
        key = content_key(run)
        assert traces_main(["show", key[:12], "--store", str(tmp_path), "--sched"]) == 0
        out = capsys.readouterr().out
        assert "fairness" in out and "queue" in out and "cluster" in out
        assert "Submit (s)" in out
