"""Tests of distributed campaign execution: executors, orchestrator,
manifests, the subprocess worker protocol and Slurm submission."""

from __future__ import annotations

import asyncio
import concurrent.futures
import io
import json
import logging
import multiprocessing
import threading
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    SyntheticWorkloadRef,
    execute_runs,
    resume_campaign,
    run_campaign,
)
from repro.campaign.__main__ import main as campaign_cli
from repro.campaign.runner import _execute_and_summarise
from repro.exec import (
    DONE,
    FAILED,
    PENDING,
    CampaignExecutionError,
    CampaignManifest,
    ExecutorDied,
    ExecutorError,
    InProcessExecutor,
    LocalPoolExecutor,
    SSHExecutor,
    SlurmArrayExecutor,
    WorkerContext,
    orchestrate,
)
from repro.exec.local import pool_worker
from repro.exec.worker import main as worker_cli
from repro.exec.worker import serve_stream
from repro.obs.progress import ProgressLine
from repro.results.store import ResultStore, content_key, spec_contents
from repro.traces.store import TraceStore
from repro.workload.generator import WorkloadSpec

#: Cheap synthetic family (same as test_campaign's).
SMALL = WorkloadSpec(njobs=3, mean_interarrival=90.0, work_scale=0.04, iterations=16)


def small_sweep(nworkloads: int = 2, **kwargs) -> CampaignSpec:
    defaults = dict(
        name="exec-sweep",
        workloads=tuple(
            SyntheticWorkloadRef(spec=SMALL, seed=i) for i in range(nworkloads)
        ),
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


@pytest.fixture(scope="module")
def serial_result():
    """The reference serial aggregation every distributed path must match."""
    return run_campaign(small_sweep())


class _InProcessExecutor(InProcessExecutor):
    """Test backend: the in-process executor under a scripted name, recording
    its calls (the subclasses below script failures)."""

    def __init__(self, name: str = "scripted") -> None:
        self.name = name
        self.calls: list[int] = []

    async def run_cell(self, run):
        self.calls.append(run.index)
        return await super().run_cell(run)


class _CellFailure(RuntimeError):
    """What a monkeypatched ``execute_run`` raises inside a cell."""


def _failing_execute_run(run, **kwargs):
    raise _CellFailure(f"cell {run.index} broke")


def _hanging_execute_run(run, **kwargs):
    time.sleep(60.0)


class _FlakyExecutor(_InProcessExecutor):
    """Fails every cell's first attempt with a transient error."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.failed: set[int] = set()

    async def run_cell(self, run):
        if run.index not in self.failed:
            self.failed.add(run.index)
            raise ExecutorError(f"flaky failure on cell {run.index}")
        return await super().run_cell(run)


class _DyingExecutor(_InProcessExecutor):
    """Completes ``survive`` cells, then dies terminally."""

    def __init__(self, survive: int = 0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.survive = survive

    async def run_cell(self, run):
        if len(self.calls) >= self.survive:
            raise ExecutorDied("simulated hard death")
        return await super().run_cell(run)


class _SlowOnceExecutor(_InProcessExecutor):
    """Every cell's first attempt hangs (forcing a timeout); retries run."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.hung: set[int] = set()

    async def run_cell(self, run):
        if run.index not in self.hung:
            self.hung.add(run.index)
            await asyncio.sleep(60.0)
        return await super().run_cell(run)


class TestManifest:
    def test_begin_and_replay_roundtrip(self, tmp_path):
        runs = small_sweep().expand()
        manifest = CampaignManifest(tmp_path / "m.jsonl")
        manifest.begin("sweep", runs)
        state = manifest.replay()
        assert state.name == "sweep"
        assert state.total == len(runs)
        assert set(state.states.values()) == {PENDING}
        rebuilt = state.runs()
        assert [r.index for r in rebuilt] == [r.index for r in runs]
        assert [spec_contents(r) for r in rebuilt] == [spec_contents(r) for r in runs]

    def test_last_state_wins_and_done_sets(self, tmp_path):
        runs = small_sweep().expand()
        manifest = CampaignManifest(tmp_path / "m.jsonl")
        manifest.begin("sweep", runs)
        keys = [content_key(r) for r in runs]
        manifest.record(keys[0], DONE, index=0, executor="local[1]")
        manifest.record(keys[1], FAILED, index=1, error="boom")
        manifest.record(keys[1], DONE, index=1)
        state = manifest.replay()
        assert state.states[keys[0]] == DONE
        assert state.states[keys[1]] == DONE
        assert state.done == {keys[0], keys[1]}
        assert state.keys_in_state(PENDING) == set(keys[2:])

    def test_begin_again_never_duplicates_or_regresses(self, tmp_path):
        runs = small_sweep().expand()
        manifest = CampaignManifest(tmp_path / "m.jsonl")
        manifest.begin("sweep", runs)
        key = content_key(runs[0])
        manifest.record(key, DONE, index=0)
        manifest.begin("sweep", runs)  # a restart
        state = manifest.replay()
        assert state.states[key] == DONE  # not regressed to pending
        assert len(state.cells) == len(runs)  # no duplicate identities

    def test_replay_tolerates_truncated_final_line(self, tmp_path):
        runs = small_sweep().expand()
        path = tmp_path / "m.jsonl"
        manifest = CampaignManifest(path)
        manifest.begin("sweep", runs)
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"record": "cell", "state": "done", "ke')  # crash
        state = manifest.replay()
        assert len(state.cells) == len(runs)
        assert set(state.states.values()) == {PENDING}

    def test_replay_rejects_future_versions(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"record": "campaign", "version": 99, "name": "x"}) + "\n"
        )
        with pytest.raises(ValueError, match="version"):
            CampaignManifest(path).replay()

    def test_missing_file_is_empty_state(self, tmp_path):
        state = CampaignManifest(tmp_path / "absent.jsonl").replay()
        assert state.cells == {} and state.states == {}


class TestStoreScan:
    def test_result_store_scan_matches_keys(self, tmp_path, serial_result):
        store = ResultStore(tmp_path / "store")
        assert store.scan() == frozenset()
        for row in serial_result.rows:
            store.put(row)
        assert store.keys() == sorted(store.scan())
        assert len(store) == len(serial_result.rows)
        assert store.scan() == {content_key(r.run) for r in serial_result.rows}

    def test_trace_store_scan(self, tmp_path):
        trace_store = TraceStore(tmp_path / "traces")
        assert trace_store.scan() == frozenset()
        from repro.campaign.runner import execute_run

        run = small_sweep().expand()[0]
        trace_store.put(run, execute_run(run, trace=True))
        assert trace_store.scan() == {content_key(run)}
        assert trace_store.keys() == [content_key(run)]
        assert len(trace_store) == 1

    def test_scan_ignores_temp_and_foreign_files(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / ".abc.123.tmp").write_text("x")
        (root / "README.txt").write_text("x")
        (root / "deadbeef.json").write_text("{}")
        assert ResultStore(root).scan() == {"deadbeef"}


class TestLocalPoolExecutor:
    def test_orchestrated_rows_match_serial(self, tmp_path, serial_result):
        store = ResultStore(tmp_path / "store")
        result = run_campaign(
            small_sweep(),
            store=store,
            executor=[LocalPoolExecutor(slots=1), LocalPoolExecutor(slots=1)],
        )
        assert result.executed == len(result.rows)
        assert result.rows == serial_result.rows
        assert len(store) == len(result.rows)

    def test_worker_pool_initializer_ships_context_once(self, tmp_path, monkeypatch):
        # The pool binds the campaign context through its initializer, so
        # per cell only the RunSpec crosses the wire.
        real_pool = multiprocessing.Pool
        initargs: list[tuple] = []
        shipped: list[tuple] = []

        def spy_pool(*args, **kwargs):
            pool = real_pool(*args, **kwargs)
            initargs.append(kwargs["initargs"])
            apply_async = pool.apply_async

            def spy_apply_async(func, args=(), **rest):
                shipped.append(args)
                return apply_async(func, args, **rest)

            pool.apply_async = spy_apply_async
            return pool

        monkeypatch.setattr(multiprocessing, "Pool", spy_pool)
        store = ResultStore(tmp_path / "store")
        runs = small_sweep().expand()
        context = WorkerContext(store=store)
        outcome = orchestrate(runs, [LocalPoolExecutor(slots=2)], context)
        assert initargs == [(context,)]
        assert sorted(shipped, key=lambda args: args[0].index) == [
            (run,) for run in runs
        ]
        rows = sorted((row for row, _ in outcome.results), key=lambda r: r.run.index)
        assert [r.run.index for r in rows] == [r.index for r in runs]
        assert len(store) == len(runs)

    def test_pool_worker_requires_initialised_context(self):
        run = small_sweep().expand()[0]
        with pytest.raises(RuntimeError, match="not initialised"):
            pool_worker(run)

    def test_pooled_run_campaign_matches_serial(self, tmp_path, serial_result):
        result = run_campaign(small_sweep(), workers=2)
        assert result.rows == serial_result.rows

    def test_invalid_slots_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            LocalPoolExecutor(slots=0)


class TestUnifiedPath:
    """``workers=`` campaigns run through the orchestrator too."""

    def test_serial_progress_repaints_once_per_cell(self):
        spec = small_sweep()
        stream = io.StringIO()
        run_campaign(spec, workers=1, progress=stream)
        assert stream.getvalue().count("\r") == spec.nruns + 1
        assert "in flight" not in stream.getvalue()

    def test_serial_cell_exception_propagates_as_itself(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaign.runner.execute_run", _failing_execute_run
        )
        with pytest.raises(_CellFailure, match="broke"):
            run_campaign(small_sweep(), workers=1)

    def test_pooled_cell_failure_retries_then_journals_failed(
        self, tmp_path, monkeypatch
    ):
        # Forked pool workers inherit the patched module.
        monkeypatch.setattr(
            "repro.campaign.runner.execute_run", _failing_execute_run
        )
        spec = small_sweep(nworkloads=1)
        manifest = tmp_path / "m.jsonl"
        with pytest.raises(CampaignExecutionError) as excinfo:
            run_campaign(
                spec, workers=2, manifest=manifest, retries=1, backoff=0.001
            )
        assert len(excinfo.value.failures) == spec.nruns
        assert all("_CellFailure" in reason for _, reason in excinfo.value.failures)
        records = [
            json.loads(line)
            for line in manifest.read_text().splitlines()
            if '"failed"' in line
        ]
        assert {r["state"] for r in records} == {FAILED}
        assert {r["executor"] for r in records} == {"pool[2]"}
        assert set(CampaignManifest(manifest).replay().states.values()) == {FAILED}

    def test_pooled_campaign_honours_timeout(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaign.runner.execute_run", _hanging_execute_run
        )
        spec = small_sweep(nworkloads=1)
        start = time.monotonic()
        with pytest.raises(CampaignExecutionError) as excinfo:
            run_campaign(spec, workers=2, timeout=0.2, retries=0)
        assert time.monotonic() - start < 30.0
        assert all("timed out" in reason for _, reason in excinfo.value.failures)


class TestOrchestratorFaults:
    def test_no_runs_return_without_starting_an_executor(self):
        # Run in a daemon thread: a call that waits on an empty queue fails
        # the test at the timeout instead of hanging the suite.
        started: list[str] = []

        class _Recording(_InProcessExecutor):
            async def start(self, context):
                started.append(self.name)
                await super().start(context)

        done: concurrent.futures.Future = concurrent.futures.Future()

        def call():
            try:
                done.set_result(orchestrate([], [_Recording("a"), _Recording("a")]))
            except BaseException as exc:
                done.set_exception(exc)

        threading.Thread(target=call, daemon=True).start()
        outcome = done.result(timeout=5)
        assert outcome.results == [] and started == []
        assert list(outcome.stats) == ["a", "a#2"]
        assert all(s.dispatched == 0 and not s.died for s in outcome.stats.values())

    def test_flaky_executor_retries_with_backoff(self, serial_result):
        flaky = _FlakyExecutor()
        runs = small_sweep().expand()
        outcome = orchestrate(
            runs, [flaky], WorkerContext(), retries=2, backoff=0.001
        )
        rows = sorted((row for row, _ in outcome.results), key=lambda r: r.run.index)
        assert tuple(rows) == serial_result.rows
        stats = outcome.stats["scripted"]
        assert stats.retried == len(runs)
        assert stats.completed == len(runs)

    def test_dead_executor_degrades_to_survivors(self, caplog, serial_result):
        dying = _DyingExecutor(survive=1, name="dying")
        healthy = _InProcessExecutor(name="healthy")
        runs = small_sweep().expand()
        with caplog.at_level(logging.WARNING, logger="repro"):
            outcome = orchestrate(
                runs, [dying, healthy], WorkerContext(), backoff=0.001
            )
        rows = sorted((row for row, _ in outcome.results), key=lambda r: r.run.index)
        assert tuple(rows) == serial_result.rows
        assert outcome.stats["dying"].died
        assert outcome.stats["dying"].requeued >= 1
        assert not outcome.stats["healthy"].died
        assert outcome.stats["healthy"].completed >= len(runs) - 1
        assert any("died" in r.getMessage() for r in caplog.records)

    def test_all_executors_dead_aborts(self):
        runs = small_sweep().expand()
        with pytest.raises(CampaignExecutionError, match="all executors died"):
            orchestrate(
                runs,
                [_DyingExecutor(name="d1"), _DyingExecutor(name="d2")],
                WorkerContext(),
            )

    def test_retry_budget_exhaustion_raises_with_failures(self):
        class _AlwaysFailing(_InProcessExecutor):
            async def run_cell(self, run):
                raise ExecutorError("permanently broken cell")

        runs = small_sweep().expand()
        with pytest.raises(CampaignExecutionError) as excinfo:
            orchestrate(
                runs, [_AlwaysFailing()], WorkerContext(), retries=1, backoff=0.001
            )
        assert len(excinfo.value.failures) == len(runs)
        assert "retry budget" in str(excinfo.value)

    def test_cell_timeout_cancels_and_retries(self, serial_result):
        slow = _SlowOnceExecutor()
        runs = small_sweep().expand()
        outcome = orchestrate(
            runs,
            [slow],
            WorkerContext(),
            timeout=0.1,
            retries=2,
            backoff=0.001,
        )
        rows = sorted((row for row, _ in outcome.results), key=lambda r: r.run.index)
        assert tuple(rows) == serial_result.rows
        assert outcome.stats["scripted"].timeouts == len(runs)

    def test_duplicate_executor_names_are_disambiguated(self):
        outcome = orchestrate(
            small_sweep(nworkloads=1).expand(),
            [_InProcessExecutor(), _InProcessExecutor()],
            WorkerContext(),
        )
        assert set(outcome.stats) == {"scripted", "scripted#2"}

    def test_status_callback_reports_in_flight_and_queue(self):
        seen: list[tuple[dict, int]] = []
        orchestrate(
            small_sweep().expand(),
            [_InProcessExecutor()],
            WorkerContext(),
            on_status=lambda busy, depth: seen.append((dict(busy), depth)),
        )
        assert any(busy.get("scripted") == 1 for busy, _ in seen)
        assert any(depth > 0 for _, depth in seen)

    @pytest.mark.parametrize(
        "policy,message",
        [({"timeout": 0.0}, "timeout"), ({"timeout": -5.0}, "timeout"),
         ({"timeout": float("nan")}, "timeout"), ({"timeout": float("inf")}, "timeout"),
         ({"backoff": float("nan")}, "backoff"), ({"backoff": float("inf")}, "backoff")],
        ids=["timeout=0", "timeout=-5", "timeout=nan", "timeout=inf", "backoff=nan",
             "backoff=inf"],
    )
    @pytest.mark.parametrize("entry", ["orchestrate", "execute_runs"])
    def test_invalid_retry_policy_rejected(self, entry, policy, message):
        # execute_runs checks with workers=1 too, whose in-process executor
        # never applies the timeout.
        runs = small_sweep(nworkloads=1).expand()[:1]
        with pytest.raises(ValueError, match=f"{message} must be a finite number"):
            if entry == "orchestrate":
                orchestrate(
                    runs, [_InProcessExecutor()], WorkerContext(), retries=0, **policy
                )
            else:
                execute_runs("bad-policy", runs, workers=1, retries=0, **policy)

    def test_no_executors_rejected(self):
        with pytest.raises(ValueError, match="at least one executor"):
            orchestrate([], [], WorkerContext())


class TestResume:
    def test_resume_after_partial_execution_runs_only_missing(
        self, tmp_path, serial_result
    ):
        spec = small_sweep()
        runs = spec.expand()
        store = ResultStore(tmp_path / "store")
        manifest = CampaignManifest(tmp_path / "m.jsonl")
        # Simulate a campaign killed mid-shard: the manifest was begun and
        # one cell's artifacts landed before the crash.
        manifest.begin(spec.name, runs)
        _execute_and_summarise(runs[0], store=store)
        manifest.record(content_key(runs[0]), DONE, index=0)
        result = resume_campaign(manifest.path, store)
        assert result.executed == len(runs) - 1
        assert result.cache_hits == 1
        assert result.rows == serial_result.rows
        assert CampaignManifest(manifest.path).replay().done == {
            content_key(r) for r in runs
        }

    def test_resume_ignores_stale_done_lines(self, tmp_path, serial_result):
        # The store tiers are the ground truth: a cell journalled done whose
        # store entry has been deleted re-executes on resume.
        spec = small_sweep()
        store = ResultStore(tmp_path / "store")
        manifest_path = tmp_path / "m.jsonl"
        run_campaign(spec, store=store, manifest=manifest_path)
        victim = spec.expand()[0]
        store.remove(content_key(victim))
        result = resume_campaign(manifest_path, store)
        assert result.executed == 1
        assert result.cache_hits == len(spec.expand()) - 1
        assert result.rows == serial_result.rows

    def test_crash_then_resume_store_bytes_identical(self, tmp_path):
        # A hard mid-campaign death (executor dies with cells outstanding)
        # then a resume must produce the same store artifacts, byte for
        # byte, as one uninterrupted serial campaign.
        spec = small_sweep()
        crashed_store = ResultStore(tmp_path / "crashed")
        manifest_path = tmp_path / "m.jsonl"
        with pytest.raises(CampaignExecutionError):
            run_campaign(
                spec,
                store=crashed_store,
                manifest=manifest_path,
                executor=_DyingExecutor(survive=2),
            )
        survivors = len(crashed_store)
        assert 0 < survivors < spec.nruns
        result = resume_campaign(
            manifest_path, crashed_store, executor=LocalPoolExecutor(slots=1)
        )
        assert result.executed == spec.nruns - survivors
        clean_store = ResultStore(tmp_path / "clean")
        run_campaign(spec, store=clean_store)
        assert crashed_store.keys() == clean_store.keys()
        for key in clean_store.keys():
            assert (
                crashed_store.path_for(key).read_bytes()
                == clean_store.path_for(key).read_bytes()
            )

    def test_resume_requires_store_and_cells(self, tmp_path):
        with pytest.raises(ValueError, match="result store"):
            resume_campaign(tmp_path / "m.jsonl", None)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="no cells"):
            resume_campaign(empty, ResultStore(tmp_path / "store"))


class TestWorkerProtocol:
    def _stream(self, requests: list[dict]) -> list[dict]:
        stdin = io.StringIO(
            "".join(json.dumps(r) + "\n" for r in requests)
        )
        stdout = io.StringIO()
        code = serve_stream(stdin, stdout)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        return code, responses

    def test_stream_mode_executes_and_ships_rows(self, tmp_path, serial_result):
        runs = small_sweep().expand()
        code, responses = self._stream(
            [{"op": "config", "store": str(tmp_path / "store")}]
            + [
                {"op": "run", "index": r.index, "run": spec_contents(r)}
                for r in runs
            ]
            + [{"op": "shutdown"}]
        )
        assert code == 0
        assert responses[0] == {"ok": True, "op": "config"}
        assert responses[-1] == {"ok": True, "op": "shutdown"}
        from repro.results.store import metrics_from_payload

        rows = tuple(
            metrics_from_payload(run, resp["row"])
            for run, resp in zip(runs, responses[1:-1])
        )
        assert all(resp["ok"] for resp in responses[1:-1])
        assert rows == serial_result.rows
        assert len(ResultStore(tmp_path / "store")) == len(runs)

    def test_stream_mode_cell_failure_keeps_serving(self):
        run = small_sweep().expand()[0]
        bad = dict(spec_contents(run), scenario="not-a-scenario")
        code, responses = self._stream(
            [
                {"op": "config"},
                {"op": "run", "index": 0, "run": bad},
                {"op": "run", "index": 1, "run": spec_contents(run)},
                {"op": "shutdown"},
            ]
        )
        assert code == 0
        assert responses[1]["ok"] is False and "error" in responses[1]
        assert responses[2]["ok"] is True

    def test_stream_mode_malformed_request_is_fatal(self):
        stdin = io.StringIO("this is not json\n")
        stdout = io.StringIO()
        assert serve_stream(stdin, stdout) == 2

    def test_batch_mode_executes_one_cell_and_journals(self, tmp_path):
        runs = small_sweep().expand()
        cells = tmp_path / "cells.jsonl"
        cells.write_text(
            "".join(
                json.dumps({"index": r.index, "run": spec_contents(r)}) + "\n"
                for r in runs
            )
        )
        manifest = tmp_path / "m.jsonl"
        code = worker_cli(
            [
                "--cells", str(cells),
                "--offset", "1",
                "--index", "1",
                "--store", str(tmp_path / "store"),
                "--manifest", str(manifest),
            ]
        )
        assert code == 0
        executed = runs[2]
        store = ResultStore(tmp_path / "store")
        assert store.keys() == [content_key(executed)]
        state = CampaignManifest(manifest).replay()
        assert state.states[content_key(executed)] == DONE

    def test_batch_mode_out_of_range_position(self, tmp_path, capsys):
        cells = tmp_path / "cells.jsonl"
        cells.write_text("")
        assert worker_cli(["--cells", str(cells), "--index", "5"]) == 2


class TestSSHExecutor:
    def test_loopback_campaign_matches_serial(self, tmp_path, serial_result):
        store = ResultStore(tmp_path / "store")
        result = run_campaign(
            small_sweep(), store=store, executor=SSHExecutor(slots=2)
        )
        assert result.rows == serial_result.rows
        # writes_store=False: the orchestrator persisted the rows locally.
        assert len(store) == len(result.rows)

    def test_loopback_shared_filesystem_writes_tiers_remotely(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        trace_store = TraceStore(tmp_path / "traces")
        executor = SSHExecutor(slots=1, shared_filesystem=True)
        assert executor.writes_store
        result = run_campaign(
            small_sweep(nworkloads=1),
            store=store,
            trace_store=trace_store,
            executor=executor,
        )
        assert len(store) == len(result.rows)
        assert len(trace_store) == len(result.rows)

    def test_remote_argv_wraps_ssh(self):
        executor = SSHExecutor(host="node7", repo_root="/opt/repro")
        argv = executor._argv()
        assert argv[0] == "ssh" and "node7" in argv
        assert "repro.exec.worker" in argv[-1]
        assert "/opt/repro" in argv[-1]

    def test_unshared_trace_tier_is_rejected(self, tmp_path):
        # Only the metrics row crosses the wire: without a shared filesystem
        # the trace tier would never fill and every re-run re-simulates.
        context = WorkerContext(trace_store=TraceStore(tmp_path / "traces"))
        with pytest.raises(ValueError, match="shared_filesystem"):
            asyncio.run(SSHExecutor().start(context))


class TestSlurmExecutor:
    def _executor(self, tmp_path, **kwargs):
        defaults = dict(
            directory=tmp_path / "sub",
            store_root=tmp_path / "store",
            trace_root=None,
            python="python3",
            repo_root="/opt/repro",
        )
        defaults.update(kwargs)
        return SlurmArrayExecutor(**defaults)

    def test_prepare_writes_deterministic_submission(self, tmp_path):
        runs = small_sweep().expand()
        executor = self._executor(tmp_path, max_array_size=3)
        first = executor.prepare("sweep", runs)
        assert first.total == len(runs)
        assert [(o, s) for _, o, s in first.chunks] == [(0, 3), (3, 1)]
        script = first.chunks[0][0].read_text()
        assert "#SBATCH --array=0-2" in script
        assert "repro.exec.worker" in script
        assert '"${SLURM_ARRAY_TASK_ID}"' in script
        summarize = first.summarize_path.read_text()
        assert "--resume" in summarize and "repro.campaign" in summarize
        before = {p.name: p.read_bytes() for p in first.directory.iterdir()
                  if p.suffix in (".sbatch", ".jsonl") and p.name != "manifest.jsonl"}
        second = executor.prepare("sweep", runs)
        after = {p.name: p.read_bytes() for p in second.directory.iterdir()
                 if p.suffix in (".sbatch", ".jsonl") and p.name != "manifest.jsonl"}
        assert before == after  # re-prepare writes identical bytes

    def test_prepare_journals_every_cell_pending(self, tmp_path):
        runs = small_sweep().expand()
        submission = self._executor(tmp_path).prepare("sweep", runs)
        state = CampaignManifest(submission.manifest_path).replay()
        assert len(state.cells) == len(runs)
        assert set(state.states.values()) == {PENDING}

    def test_submit_chains_afterok_dependency(self, tmp_path):
        runs = small_sweep().expand()
        submission = self._executor(tmp_path, max_array_size=3).prepare("s", runs)
        calls: list[list[str]] = []

        def stub(argv: list[str]) -> str:
            calls.append(argv)
            return f"Submitted batch job {1000 + len(calls)}"

        job_ids = self._executor(tmp_path, max_array_size=3).submit(
            submission, sbatch_runner=stub
        )
        assert job_ids == ["1001", "1002", "1003"]
        assert calls[0] == ["sbatch", str(submission.chunks[0][0])]
        assert calls[-1][1] == "--dependency=afterok:1001:1002"
        assert calls[-1][2] == str(submission.summarize_path)

    def test_submit_rejects_garbage_sbatch_output(self, tmp_path):
        submission = self._executor(tmp_path).prepare(
            "s", small_sweep(nworkloads=1).expand()
        )
        with pytest.raises(RuntimeError, match="no job id"):
            self._executor(tmp_path).submit(
                submission, sbatch_runner=lambda argv: "sbatch: error"
            )

    def test_prepare_rejects_empty_campaign(self, tmp_path):
        with pytest.raises(ValueError, match="no cells"):
            self._executor(tmp_path).prepare("s", [])


class TestExecutorCli:
    ARGS = ["--workloads", "1", "--njobs", "3", "--iterations", "16",
            "--work-scale", "0.04", "--mean-interarrival", "90"]

    def test_cli_local_executor_with_manifest(self, tmp_path, capsys):
        code = campaign_cli(
            self.ARGS
            + ["--executor", "local:1",
               "--store", str(tmp_path / "store"),
               "--manifest", str(tmp_path / "m.jsonl")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "on 1 executor(s)" in out
        assert (tmp_path / "m.jsonl").exists()
        assert len(ResultStore(tmp_path / "store")) == 2

    def test_cli_resume_skips_completed_cells(self, tmp_path, capsys):
        campaign_cli(
            self.ARGS
            + ["--store", str(tmp_path / "store"),
               "--manifest", str(tmp_path / "m.jsonl")]
        )
        capsys.readouterr()
        code = campaign_cli(
            ["--resume", str(tmp_path / "m.jsonl"),
             "--store", str(tmp_path / "store")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 cell(s) re-executed" in out

    def test_cli_slurm_dry_run_writes_scripts(self, tmp_path, capsys):
        code = campaign_cli(
            self.ARGS
            + ["--executor", f"slurm:{tmp_path / 'sub'}",
               "--store", str(tmp_path / "store")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert (tmp_path / "sub" / "array_000.sbatch").exists()
        assert (tmp_path / "sub" / "summarize.sbatch").exists()

    def test_cli_rejects_unknown_executor_spec(self, capsys):
        with pytest.raises(SystemExit):
            campaign_cli(self.ARGS + ["--executor", "carrier-pigeon:3"])
        assert "unknown executor spec" in capsys.readouterr().err

    def test_cli_resume_requires_store(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            campaign_cli(["--resume", str(tmp_path / "m.jsonl")])
        assert "--resume requires --store" in capsys.readouterr().err


class TestProgressStatus:
    def test_status_segment_renders_and_clears(self):
        stream = io.StringIO()
        line = ProgressLine(4, stream, clock=lambda: 0.0)
        line.set_status("in flight local[2]:2 | queued 7")
        assert "in flight local[2]:2 | queued 7" in stream.getvalue()
        line.set_status("")
        last = stream.getvalue().rsplit("\r", 1)[-1]
        assert "in flight" not in last
        # The repaint padded over the longer previous line.
        assert len(last) >= len("in flight")
