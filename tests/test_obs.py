"""Tests of the observability layer: spans, counters, exports, logging.

The two load-bearing properties under test:

* **Determinism** — with a deterministic fake clock factory, a serial and a
  pooled execution of the same campaign emit byte-identical
  ``telemetry.json`` documents (structure, counters *and* durations).
* **Observation only** — enabling telemetry perturbs no artifact: both
  store tiers are byte-identical between a telemetry-on and a
  telemetry-off campaign.
"""

from __future__ import annotations

import io
import json
import logging
import os

import pytest

from repro.campaign import (
    CampaignSpec,
    ClusterRef,
    SyntheticWorkloadRef,
    execute_run,
    run_campaign,
)
from repro.campaign.__main__ import main as campaign_cli
from repro.campaign.spec import RunSpec
from repro.core.drom import DromAdmin
from repro.core.flags import DromFlags
from repro.obs import (
    DISABLED,
    ProgressLine,
    Span,
    Telemetry,
    TickingClock,
    TickingClockFactory,
    chrome_trace_events,
    summarise,
    validate_chrome_trace,
    write_chrome_trace,
    write_summary,
)
from repro.obs.log import configure, get_logger, resolve_level
from repro.results.store import ResultStore
from repro.traces.store import TraceStore
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM, SERIAL

#: Cheap synthetic family (same shape as the campaign tests').
SMALL = WorkloadSpec(njobs=3, mean_interarrival=90.0, work_scale=0.04, iterations=16)


def small_sweep(nworkloads: int = 2, **kwargs) -> CampaignSpec:
    defaults = dict(
        name="obs-sweep",
        workloads=tuple(
            SyntheticWorkloadRef(spec=SMALL, seed=i) for i in range(nworkloads)
        ),
        scenarios=(SERIAL, DROM),
        clusters=(ClusterRef(nnodes=4, kind="mn3"),),
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def store_bytes(root) -> dict[str, bytes]:
    """filename -> bytes of every file under a store root."""
    root = os.fspath(root)
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestSpanPrimitives:
    def test_span_tree_nests_and_times(self):
        obs = Telemetry(clock_factory=TickingClockFactory())
        with obs.span("outer", label="x") as outer:
            with obs.span("inner") as inner:
                inner.count("things", 3)
                inner.count("things", 2)
        assert obs.roots == [outer]
        assert outer.children == [inner]
        assert inner.counters == {"things": 5}
        # Ticking clock: outer opened at t=0, inner 1..2, outer closed at 3.
        assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)
        assert outer.duration == 3.0 and inner.duration == 1.0

    def test_walk_and_find(self):
        obs = Telemetry(clock_factory=TickingClockFactory())
        with obs.span("a"):
            with obs.span("b"):
                pass
            with obs.span("b"):
                pass
        root = obs.roots[0]
        assert [s.name for s in root.walk()] == ["a", "b", "b"]
        assert len(root.find("b")) == 2

    def test_payload_roundtrip(self):
        obs = Telemetry(clock_factory=TickingClockFactory())
        with obs.span("a", k=1) as a:
            a.count("n", 2)
            with obs.span("b"):
                pass
        payload = obs.roots[0].to_payload()
        assert Span.from_payload(payload).to_payload() == payload

    def test_record_is_closed_and_detached(self):
        obs = Telemetry(clock_factory=TickingClockFactory())
        span = obs.record("cell", index=4)
        assert span.end is not None and span not in obs.roots
        obs.adopt(span)
        assert obs.roots == [span]

    def test_adopt_under_parent(self):
        obs = Telemetry(clock_factory=TickingClockFactory())
        detached = Span(name="cell")
        with obs.span("campaign") as campaign:
            pass
        obs.adopt(detached, parent=campaign)
        assert campaign.children == [detached]

    def test_disabled_is_total_noop(self):
        with DISABLED.span("anything", k=1) as span:
            span.count("n")
        assert DISABLED.roots == [] and not DISABLED.enabled
        assert DISABLED.record("x").duration == 0.0

    def test_ticking_clock(self):
        clock = TickingClock(tick=2.0, start=1.0)
        assert [clock(), clock(), clock()] == [1.0, 3.0, 5.0]
        factory = TickingClockFactory()
        assert factory()() == factory()() == 0.0  # every clock starts fresh


class TestRunCounters:
    """Telemetry counters agree with the signals the stack already reports."""

    def test_simulate_counters_match_result(self):
        run = RunSpec(
            index=0,
            scenario=DROM,
            workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
        )
        obs = Telemetry()
        result = execute_run(run, telemetry=obs)
        simulate = obs.roots[1]
        assert [r.name for r in obs.roots] == ["build", "simulate"]
        assert simulate.counters["events"] == result.events_executed > 0
        assert simulate.counters["steps"] == result.steps_advanced > 0
        assert simulate.counters["batches"] == result.batches_executed > 0
        assert simulate.counters["priced"] == result.steps_priced > 0
        assert simulate.counters["pulled_back"] == result.pulled_back > 0
        assert simulate.counters["masks_written"] == result.masks_written > 0

    def test_masks_written_counts_drom_writes(self, monkeypatch):
        """``masks_written`` counts the ``DROM_SetProcessMask`` calls of a
        run, each of which changes a pid's assigned mask; Serial writes none."""
        writes = []
        set_process_mask = DromAdmin.set_process_mask

        def spy(admin, pid, mask, flags=DromFlags.NONE, **kwargs):
            writes.append(admin.shmem.get_mask(pid) != mask)
            return set_process_mask(admin, pid, mask, flags, **kwargs)

        monkeypatch.setattr(DromAdmin, "set_process_mask", spy)
        for scenario in (SERIAL, DROM):
            writes.clear()
            run = RunSpec(
                index=0, scenario=scenario, workload=SyntheticWorkloadRef(spec=SMALL, seed=0)
            )
            result = execute_run(run)
            assert result.masks_written == len(writes) == writes.count(True)
            assert (result.masks_written > 0) == (scenario == DROM)

    def test_reference_loop_counts_steps_but_no_batches(self):
        run = RunSpec(
            index=0,
            scenario=SERIAL,
            workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
        )
        batched = execute_run(run, batching=True)
        reference = execute_run(run, batching=False)
        # Both paths advance the same steps; only the fast path batches.
        assert reference.steps_advanced == batched.steps_advanced > 0
        assert reference.batches_executed == 0
        assert 0 < batched.batches_executed <= batched.steps_advanced
        # The reference loop prices each step once per rank; so does the
        # batched Serial run, whose pricing inputs never change.
        assert reference.steps_priced == reference.steps_advanced
        assert batched.steps_priced == batched.steps_advanced

    def test_campaign_counters_match_result(self, tmp_path):
        spec = small_sweep()
        store = ResultStore(tmp_path / "store")
        obs = Telemetry(clock_factory=TickingClockFactory())
        result = run_campaign(spec, store=store, telemetry=obs)
        campaign = obs.roots[0]
        assert campaign.counters["executed"] == result.executed == spec.nruns
        assert campaign.counters["cached"] == result.cache_hits == 0
        cells = campaign.find("cell")
        assert len(cells) == spec.nruns
        # Per-cell events counters sum to the campaign's simulated events.
        total_events = sum(c.counters.get("events", 0) for c in cells)
        summary = summarise(obs)
        assert summary["counters"]["events"] == total_events > 0
        simulate = [span for cell in cells for span in cell.find("simulate")]
        for counter in ("priced", "pulled_back", "masks_written"):
            assert summary["counters"][counter] == sum(
                span.counters[counter] for span in simulate
            )
        assert summary["cells"] == {
            "total": spec.nruns,
            "executed": spec.nruns,
            "cached": 0,
            "metrics_hits": 0,
            "trace_hits": 0,
            "backfilled": 0,
        }

    def test_warm_campaign_counts_hits_per_tier(self, tmp_path):
        spec = small_sweep()
        store = ResultStore(tmp_path / "store")
        trace_store = TraceStore(tmp_path / "traces")
        run_campaign(spec, store=store, trace_store=trace_store)
        obs = Telemetry(clock_factory=TickingClockFactory())
        warm = run_campaign(
            spec, store=store, trace_store=trace_store, telemetry=obs
        )
        assert warm.executed == 0 and warm.cache_hits == spec.nruns
        assert warm.metrics_hits == warm.trace_hits == spec.nruns
        assert warm.backfilled == 0
        campaign = obs.roots[0]
        assert campaign.counters["metrics_hits"] == spec.nruns
        assert campaign.counters["trace_hits"] == spec.nruns
        cells = campaign.find("cell")
        assert all(c.attrs["cached"] for c in cells)
        summary = summarise(obs)
        assert summary["cells"]["cached"] == spec.nruns
        assert summary["rates"]["hit_rate"] == 1.0

    def test_backfill_accounting(self, tmp_path):
        """Metrics hit + trace miss re-simulates and is counted as backfill."""
        spec = small_sweep(nworkloads=1)
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store=store)  # warm the metrics tier only
        trace_store = TraceStore(tmp_path / "traces")
        obs = Telemetry(clock_factory=TickingClockFactory())
        result = run_campaign(
            spec, store=store, trace_store=trace_store, telemetry=obs
        )
        assert result.executed == spec.nruns and result.cache_hits == 0
        assert result.metrics_hits == result.backfilled == spec.nruns
        assert result.trace_hits == 0
        cells = obs.roots[0].find("cell")
        assert all(c.attrs["backfilled"] for c in cells)
        assert all(c.counters.get("metrics_hit") == 1 for c in cells)

    def test_tier_summary_and_table_footer(self, tmp_path):
        spec = small_sweep(nworkloads=1)
        store = ResultStore(tmp_path / "store")
        cold = run_campaign(spec, store=store)
        warm = run_campaign(spec, store=store)
        line = warm.tier_summary()
        assert f"metrics tier {spec.nruns} hit / 0 miss" in line
        assert "0 backfill" in line
        # The footer is opt-in: default tables stay warm/cold byte-identical.
        assert warm.to_table() == cold.to_table()
        assert warm.to_table(tiers=True) == warm.to_table() + "\n" + line


class TestDeterminism:
    def test_serial_and_pooled_telemetry_byte_identical(self, tmp_path):
        """The flagship contract: fake clock in, identical telemetry out."""
        spec = small_sweep()
        documents = []
        for mode, workers in (("serial", 1), ("pooled", 4)):
            store = ResultStore(tmp_path / mode / "store")
            trace_store = TraceStore(tmp_path / mode / "traces")
            obs = Telemetry(clock_factory=TickingClockFactory())
            run_campaign(
                spec,
                workers=workers,
                store=store,
                trace_store=trace_store,
                telemetry=obs,
            )
            path = tmp_path / mode / "telemetry.json"
            write_summary(obs, path)
            documents.append(path.read_bytes())
        assert documents[0] == documents[1]

    def test_warm_serial_and_pooled_telemetry_byte_identical(self, tmp_path):
        spec = small_sweep()
        store = ResultStore(tmp_path / "store")
        trace_store = TraceStore(tmp_path / "traces")
        run_campaign(spec, store=store, trace_store=trace_store)
        documents = []
        for workers in (1, 4):
            obs = Telemetry(clock_factory=TickingClockFactory())
            run_campaign(
                spec,
                workers=workers,
                store=store,
                trace_store=trace_store,
                telemetry=obs,
            )
            path = tmp_path / f"telemetry-{workers}.json"
            write_summary(obs, path)
            documents.append(path.read_bytes())
        assert documents[0] == documents[1]

    def test_telemetry_perturbs_no_artifact(self, tmp_path):
        """Both store tiers byte-identical with telemetry on vs off."""
        spec = small_sweep()
        roots = {}
        for mode, telemetry in (
            ("off", None),
            ("on", Telemetry(clock_factory=TickingClockFactory())),
        ):
            store = ResultStore(tmp_path / mode / "store")
            trace_store = TraceStore(tmp_path / mode / "traces")
            result = run_campaign(
                spec,
                store=store,
                trace_store=trace_store,
                telemetry=telemetry,
                progress=io.StringIO(),
            )
            roots[mode] = (
                store_bytes(tmp_path / mode / "store"),
                store_bytes(tmp_path / mode / "traces"),
                result.rows,
            )
        assert roots["on"][0] == roots["off"][0]  # metrics tier
        assert roots["on"][1] == roots["off"][1]  # trace tier
        assert roots["on"][2] == roots["off"][2]  # aggregated rows


class TestExports:
    @pytest.fixture()
    def telemetry(self, tmp_path):
        obs = Telemetry(clock_factory=TickingClockFactory())
        store = ResultStore(tmp_path / "store")
        run_campaign(small_sweep(nworkloads=1), store=store, telemetry=obs)
        return obs

    def test_summary_document_shape(self, telemetry, tmp_path):
        path = tmp_path / "telemetry.json"
        document = write_summary(telemetry, path)
        on_disk = json.loads(path.read_text())
        assert on_disk == document
        summary = document["summary"]
        assert summary["campaign"] == "obs-sweep"
        assert summary["cells"]["executed"] == 2
        assert summary["counters"]["events"] > 0
        assert summary["counters"]["store_write_bytes"] > 0
        assert summary["cell_wall_clock"]["p95"] >= summary["cell_wall_clock"]["p50"] > 0
        assert summary["rates"]["cells_per_sec"] > 0
        assert document["spans"][0]["name"] == "campaign"

    def test_chrome_trace_validates_and_tracks_cells(self, telemetry, tmp_path):
        document = write_chrome_trace(telemetry, tmp_path / "trace.json")
        assert validate_chrome_trace(document) == len(document["traceEvents"])
        assert validate_chrome_trace(json.loads((tmp_path / "trace.json").read_text()))
        events = document["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "campaign" in names
        assert any(name.startswith("cell 0000") for name in names)
        # Each cell tree is rebased to zero on its own track.
        cell_events = [e for e in events if e["ph"] == "X" and e["name"] == "cell"]
        assert cell_events and all(e["ts"] == 0.0 for e in cell_events)
        assert {e["tid"] for e in cell_events} == {1, 2}
        campaign_events = [
            e for e in events if e["ph"] == "X" and e["name"] == "campaign"
        ]
        assert [e["tid"] for e in campaign_events] == [0]
        # Counters and attrs ride along as args.
        simulate = next(e for e in events if e["name"] == "simulate")
        assert simulate["args"]["events"] > 0

    @pytest.mark.parametrize(
        "document, message",
        [
            ([], "traceEvents"),
            ({"traceEvents": []}, "non-empty"),
            ({"traceEvents": [{"ph": "X"}]}, "missing"),
            ({"traceEvents": [{"name": "x", "ph": "B", "pid": 0, "tid": 0}]}, "phase"),
            (
                {
                    "traceEvents": [
                        {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": -1, "dur": 0}
                    ]
                },
                "invalid",
            ),
        ],
    )
    def test_chrome_trace_validation_rejects(self, document, message):
        with pytest.raises(ValueError, match=message):
            validate_chrome_trace(document)

    def test_chrome_trace_events_for_scenario_pair_trees(self):
        # Trees without cell indices (e.g. hand-rolled spans) stay on track 0.
        obs = Telemetry(clock_factory=TickingClockFactory())
        with obs.span("campaign"):
            with obs.span("prep"):
                pass
        events = chrome_trace_events(obs)
        assert all(e["tid"] == 0 for e in events)


class TestProgress:
    def test_progress_line_renders_counts_rate_and_eta(self):
        stream = io.StringIO()
        line = ProgressLine(4, stream, clock=TickingClock())
        line.advance(cached=True)
        line.advance()
        line.finish()
        text = stream.getvalue()
        assert "campaign 2/4 ( 50%)" in text
        assert "1 cache hit(s)" in text
        assert "ETA" in text
        assert text.endswith("\n")

    def test_progress_line_zero_total(self):
        stream = io.StringIO()
        ProgressLine(0, stream).finish()
        assert stream.getvalue().endswith("\n")

    def test_run_campaign_progress_stream(self, tmp_path):
        stream = io.StringIO()
        spec = small_sweep(nworkloads=1)
        run_campaign(spec, progress=stream)
        text = stream.getvalue()
        assert f"{spec.nruns}/{spec.nruns}" in text
        assert text.endswith("\n")


class TestLogging:
    def test_resolve_level_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert resolve_level(None) == logging.WARNING
        monkeypatch.setenv("REPRO_LOG", "debug")
        assert resolve_level(None) == logging.DEBUG
        # An explicit level always beats the environment.
        assert resolve_level("error") == logging.ERROR
        with pytest.raises(ValueError, match="unknown log level"):
            resolve_level("chatty")

    def test_configure_is_idempotent(self):
        logger = configure("info")
        configure("info")
        marked = [
            h for h in logger.handlers if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(marked) == 1

    def test_configure_writes_to_stream(self, tmp_path):
        stream = io.StringIO()
        configure("debug", stream=stream)
        try:
            get_logger("campaign").debug("hello %s", "there")
        finally:
            configure("warning")
        assert "DEBUG repro.campaign: hello there" in stream.getvalue()

    def test_store_operations_log(self, tmp_path, caplog):
        spec = small_sweep(nworkloads=1)
        store = ResultStore(tmp_path / "store")
        with caplog.at_level(logging.DEBUG, logger="repro"):
            run_campaign(spec, store=store)
        messages = [r.getMessage() for r in caplog.records]
        assert any("campaign 'obs-sweep'" in m for m in messages)
        assert any(m.startswith("put ") for m in messages)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repro"):
            run_campaign(spec, store=store)
        messages = [r.getMessage() for r in caplog.records]
        assert any("served from store" in m for m in messages)

    def test_gc_logs_summary(self, tmp_path, caplog):
        store = ResultStore(tmp_path / "store")
        run_campaign(small_sweep(nworkloads=1), store=store)
        with caplog.at_level(logging.INFO, logger="repro"):
            removed = store.gc(predicate=lambda entry: True)
        assert len(removed) == 2
        assert any(
            "gc removed 2 of 2" in r.getMessage() for r in caplog.records
        )


class TestCli:
    def test_cli_telemetry_progress_and_chrome_trace(self, tmp_path, capsys):
        summary_path = tmp_path / "telemetry.json"
        trace_path = tmp_path / "chrome.json"
        code = campaign_cli(
            [
                "--workloads", "1",
                "--njobs", "2",
                "--work-scale", "0.04",
                "--iterations", "12",
                "--progress",
                "--telemetry", str(summary_path),
                "--chrome-trace", str(trace_path),
                "--store", str(tmp_path / "store"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        document = json.loads(summary_path.read_text())
        assert document["summary"]["cells"]["executed"] == 2
        assert validate_chrome_trace(json.loads(trace_path.read_text()))
        assert "telemetry summary written to" in captured.out
        assert "chrome trace written to" in captured.out
        # Store runs append the per-tier footer; the progress line repaints
        # on stderr.
        assert "tiers: metrics tier" in captured.out
        assert "2/2" in captured.err

    def test_cli_log_level_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        code = campaign_cli(
            [
                "--workloads", "1",
                "--njobs", "2",
                "--work-scale", "0.04",
                "--iterations", "12",
                "--log-level", "info",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "INFO repro.campaign: campaign 'cli-sweep'" in captured.err

    def test_cli_defaults_stay_quiet(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        code = campaign_cli(
            [
                "--workloads", "1",
                "--njobs", "2",
                "--work-scale", "0.04",
                "--iterations", "12",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert "tiers:" not in captured.out  # no stores, no tier footer
