"""Tests of metrics collection, tracing, the IPC queries and the Paraver views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.collect import JobMetrics, WorkloadMetrics, relative_improvement
from repro.metrics.paraver import ParaverView
from repro.metrics.tracing import MaskChangeRecord, StepRecord, Tracer
from repro.slurm.jobs import Job, JobSpec
from repro.traces.query import TraceReader


def finished_job(name, submit, start, end):
    job = Job(spec=JobSpec(name=name, nodes=1, ntasks=1, cpus_per_task=1))
    job.mark_submitted(submit)
    job.mark_started(start, ("n0",))
    job.mark_completed(end)
    return job


class TestWorkloadMetrics:
    def test_paper_metric_definitions(self):
        """Total run time = last end - first submit; response = end - submit."""
        jobs = [finished_job("sim", 0.0, 0.0, 100.0), finished_job("ana", 10.0, 100.0, 130.0)]
        metrics = WorkloadMetrics.from_jobs(jobs)
        assert metrics.total_run_time == 130.0
        assert metrics.response_times() == {"sim": 100.0, "ana": 120.0}
        assert metrics.wait_times() == {"sim": 0.0, "ana": 90.0}
        assert metrics.run_times() == {"sim": 100.0, "ana": 30.0}
        assert metrics.average_response_time == 110.0
        assert metrics.makespan_end == 130.0
        assert metrics.job("ana").wait_time == 90.0

    def test_unfinished_job_rejected(self):
        job = Job(spec=JobSpec(name="x", nodes=1, ntasks=1, cpus_per_task=1))
        job.mark_submitted(0.0)
        with pytest.raises(ValueError):
            WorkloadMetrics.from_jobs([job])

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            WorkloadMetrics.from_jobs([])

    def test_unknown_job_lookup(self):
        metrics = WorkloadMetrics.from_jobs([finished_job("a", 0, 0, 1)])
        with pytest.raises(KeyError):
            metrics.job("missing")

    def test_relative_improvement(self):
        assert relative_improvement(100.0, 92.0) == pytest.approx(0.08)
        assert relative_improvement(100.0, 110.0) == pytest.approx(-0.10)
        with pytest.raises(ValueError):
            relative_improvement(0.0, 1.0)

    def test_job_metrics_properties(self):
        jm = JobMetrics(job_id=1, name="j", submit_time=5.0, start_time=10.0, end_time=30.0)
        assert jm.wait_time == 5.0
        assert jm.run_time == 20.0
        assert jm.response_time == 25.0


def one_thread_step(start, duration, ipc, job="j"):
    return StepRecord(
        job=job, rank=0, node="n0", start=start, duration=duration, phase="p",
        nthreads=1, thread_utilisation=(1.0,), ipc=ipc, work_units=1.0,
    )


class TestIpcQueries:
    """Figure 14's per-thread IPC (step IPC times thread utilisation)."""

    def test_mean_ipc_weighted_by_duration(self):
        tracer = Tracer()
        tracer.record_step(one_thread_step(0.0, 10.0, 1.0))
        tracer.record_step(one_thread_step(10.0, 30.0, 2.0))
        assert TraceReader(tracer).mean_ipc("j") == pytest.approx((1.0 * 10 + 2.0 * 30) / 40)

    def test_mean_ipc_of_zero_duration_steps_is_the_plain_mean(self):
        tracer = Tracer()
        tracer.record_step(one_thread_step(0.0, 0.0, 1.0))
        tracer.record_step(one_thread_step(0.0, 0.0, 2.0))
        assert TraceReader(tracer).mean_ipc("j") == 1.5

    def test_mean_ipc_missing_job(self):
        with pytest.raises(ValueError):
            TraceReader(Tracer()).mean_ipc("nope")

    def test_histogram_counts_each_thread_step(self):
        tracer = Tracer()
        # Per-thread IPC 1.05, 1.15, 1.25, 1.35 in the first step, 1.0 in the second.
        for start, utils, ipc in ((0.0, (0.525, 0.575, 0.625, 0.675), 2.0), (10.0, (1.0,) * 4, 1.0)):
            tracer.record_step(StepRecord(
                job="sim", rank=0, node="n0", start=start, duration=10.0, phase="p",
                nthreads=4, thread_utilisation=utils, ipc=ipc, work_units=1.0,
            ))
        tracer.record_step(one_thread_step(5.0, 5.0, 0.5, job="ana"))
        reader = TraceReader(tracer)
        hist = reader.ipc_histogram("sim", bins=10, range_=(0.0, 2.0))
        assert hist.dtype == np.float64
        assert hist.tolist() == [0.0] * 5 + [2.0 + 4.0, 2.0] + [0.0] * 3
        assert not reader.ipc_histogram("ghost").any()


class TestTracer:
    def make_tracer(self):
        tracer = Tracer()
        for i in range(3):
            tracer.record_step(StepRecord(
                job="sim", rank=0, node="n0", start=10.0 * i, duration=10.0,
                phase="solve", nthreads=4,
                thread_utilisation=(1.0, 1.0, 0.5, 0.5), ipc=1.2, work_units=5.0,
            ))
        tracer.record_step(StepRecord(
            job="ana", rank=0, node="n0", start=5.0, duration=10.0, phase="compute",
            nthreads=2, thread_utilisation=(1.0, 1.0), ipc=1.8, work_units=3.0,
        ))
        tracer.record_mask_change(MaskChangeRecord("sim", 0, 12.0, 8, 4))
        return tracer

    def test_step_queries(self):
        tracer = self.make_tracer()
        assert len(tracer) == 4
        assert len(tracer.steps("sim")) == 3
        assert len(tracer.steps("sim", rank=0)) == 3
        assert tracer.jobs() == ["sim", "ana"]
        assert tracer.span("sim") == (0.0, 30.0)
        assert len(tracer.mask_changes("sim")) == 1
        assert len(tracer.mask_changes()) == 1
        with pytest.raises(ValueError):
            tracer.span("missing")

    def test_thread_utilisation_time_weighted(self):
        tracer = self.make_tracer()
        util = tracer.thread_utilisation("sim", 0)
        assert util[0] == pytest.approx(1.0)
        assert util[2] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            tracer.thread_utilisation("sim", 99)


class TestParaverView:
    def test_thread_activity_rows(self):
        tracer = TestTracer().make_tracer()
        view = ParaverView(tracer, bin_seconds=10.0)
        rows = view.thread_activity("sim")
        assert len(rows) == 4
        assert rows[0].label.endswith("t0")
        assert rows[0].values[0] == pytest.approx(1.0)
        assert rows[2].values[0] == pytest.approx(0.5)

    def test_job_thread_count_row(self):
        tracer = TestTracer().make_tracer()
        view = ParaverView(tracer, bin_seconds=10.0)
        row = view.job_thread_count("sim")
        assert row.values[0] == pytest.approx(4.0)

    def test_renderings_are_strings(self):
        tracer = TestTracer().make_tracer()
        view = ParaverView(tracer, bin_seconds=10.0)
        text = view.render_thread_activity("sim")
        assert "sim r0 t0" in text
        widths = view.render_job_widths(["sim", "ana"])
        assert "sim" in widths and "ana" in widths

    def test_empty_job_rendering(self):
        view = ParaverView(Tracer(), bin_seconds=10.0)
        assert "no trace data" in view.render_thread_activity("ghost")

    def test_invalid_bin_size(self):
        with pytest.raises(ValueError):
            ParaverView(Tracer(), bin_seconds=0.0)

    @pytest.mark.parametrize("bin_seconds", [float("nan"), float("inf")])
    def test_non_finite_bin_size(self, bin_seconds):
        with pytest.raises(ValueError, match="bin_seconds"):
            ParaverView(Tracer(), bin_seconds=bin_seconds)

    def test_empty_tracer_horizon_zero(self):
        view = ParaverView(Tracer(), bin_seconds=10.0)
        assert view.horizon() == 0.0
        # A horizon-0 view still renders: one all-idle bin per requested job.
        row = view.job_thread_count("ghost")
        assert row.values.shape == (1,)
        assert row.values[0] == 0.0
        text = view.render_job_widths(["ghost"])
        assert "ghost" in text
        assert "one column" in text

    def test_render_with_zero_maximum(self):
        tracer = TestTracer().make_tracer()
        view = ParaverView(tracer, bin_seconds=10.0)
        row = view.job_thread_count("sim")
        # maximum == 0 must not divide by zero; everything maps to idle.
        rendered = row.render(0.0)
        assert rendered == " " * row.values.size
        assert len(rendered) == len(row.render(4.0))

    def test_render_job_widths_all_idle_rows(self):
        # Jobs with no steps at all: the shared maximum falls back to 1.0 and
        # every cell renders idle instead of raising.
        view = ParaverView(Tracer(), bin_seconds=10.0)
        text = view.render_job_widths(["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 3  # header + one row per job
        assert lines[1].endswith("| |") and lines[2].endswith("| |")
