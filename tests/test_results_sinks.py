"""Tests of the ``.prv``-style renderer behind ``python -m repro.traces export``."""

from __future__ import annotations

import pytest

from repro.campaign import ClusterRef, RunSpec, SyntheticWorkloadRef, execute_run
from repro.results import prv_text, read_prv, row_text
from repro.results.sinks import EV_THREAD_COUNT
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM, SERIAL

SMALL = WorkloadSpec(njobs=2, mean_interarrival=90.0, work_scale=0.04, iterations=12)


@pytest.fixture(scope="module")
def traced_run():
    run = RunSpec(
        index=0,
        scenario=DROM,
        workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
        cluster=ClusterRef(nnodes=4),
    )
    return run, execute_run(run, trace=True)


def _write_prv(tmp_path, tracer):
    path = tmp_path / "trace.prv"
    path.write_text(prv_text(tracer))
    return path


class TestParaverSink:
    """``prv_text`` written out and split back up by ``read_prv``."""

    def test_rank_widths_match_a_per_step_walk(self, traced_run):
        # The header's task list and the .row thread rows name each rank's
        # widest team, read from runs; a per-step walk must agree.
        _run, result = traced_run
        tracer = result.tracer
        widths = {
            (job, rank): max(step.nthreads for step in tracer.steps(job, rank))
            for job in tracer.jobs()
            for rank in sorted({step.rank for step in tracer.steps(job)})
        }
        assert len(set(widths.values())) > 1, "DROM run should vary team sizes"
        apps = [
            f"{len(ranks)}({','.join(f'{widths[job, r]}:{r + 1}' for r in ranks)})"
            for job in tracer.jobs()
            for ranks in [sorted(r for j, r in widths if j == job)]
        ]
        header = prv_text(tracer).splitlines()[0]
        assert header.endswith(f"):{len(apps)}:{':'.join(apps)}")
        threads = row_text(tracer).split("LEVEL THREAD SIZE ")[1].splitlines()[1:]
        assert threads == [
            f"{job}.{rank + 1}.{t + 1}"
            for (job, rank), width in widths.items()
            for t in range(width)
        ]

    def test_prv_structure(self, traced_run, tmp_path):
        _run, result = traced_run
        header, states, events = read_prv(_write_prv(tmp_path, result.tracer))
        assert header.startswith("#Paraver")
        # One state record per step per thread.
        expected_states = sum(step.nthreads for step in result.tracer)
        assert len(states) == expected_states
        # Per-step events plus one per recorded mask change.
        nsteps = len(result.tracer)
        nchanges = len(result.tracer.mask_changes())
        assert len(events) == nsteps + nchanges
        # Times are integer microseconds and monotonically sorted.
        times = [int(line.split(":")[5]) for line in events]
        assert times == sorted(times)

    def test_mask_change_events_carry_team_size(self, traced_run, tmp_path):
        _run, result = traced_run
        _header, _states, events = read_prv(_write_prv(tmp_path, result.tracer))
        changes = result.tracer.mask_changes()
        assert changes, "DROM run should observe mask changes"
        marker = f":{EV_THREAD_COUNT}:"
        values = [
            int(line.rsplit(":", 1)[1]) for line in events if marker in line
        ]
        assert values == [change.new_threads for change in changes]

    def test_mask_change_events_carry_the_ranks_node(self, traced_run, tmp_path):
        # The cpu field of a mask-change event must match the node the
        # (job, rank) runs on in the state records, not a fixed placeholder.
        _run, result = traced_run
        _header, states, events = read_prv(_write_prv(tmp_path, result.tracer))
        rank_cpu = {}
        for line in states:
            fields = line.split(":")
            rank_cpu[(int(fields[2]), int(fields[3]))] = int(fields[1])
        assert len(set(rank_cpu.values())) > 1, "trace should span several nodes"
        marker = f":{EV_THREAD_COUNT}:"
        checked = 0
        for line in events:
            if marker not in line:
                continue
            fields = line.split(":")
            assert int(fields[1]) == rank_cpu[(int(fields[2]), int(fields[3]))]
            checked += 1
        assert checked == len(result.tracer.mask_changes())

    def test_not_a_prv_file_rejected(self, tmp_path):
        bad = tmp_path / "x.prv"
        bad.write_text("hello\n")
        with pytest.raises(ValueError, match="not a .prv"):
            read_prv(bad)

    def test_empty_tracer_still_writes_header(self, tmp_path):
        run = RunSpec(
            index=0,
            scenario=SERIAL,
            workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
            cluster=ClusterRef(nnodes=4),
        )
        result = execute_run(run, trace=False)  # tracer stays empty
        header, states, events = read_prv(_write_prv(tmp_path, result.tracer))
        assert header.startswith("#Paraver")
        assert states == [] and events == []
