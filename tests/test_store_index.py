"""Crash-safety and retention tests of the store index (`repro.store.index`).

The index is derived metadata over the one-file-per-cell store roots; these
tests attack it the way production does — torn journal tails, schema
mismatches, files added or deleted behind its back, two processes appending
concurrently, gc while another object replays — and assert the invariant
that matters: the directory of entry files is ground truth, and every
anomaly self-heals into a scan that matches it exactly.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.campaign import (
    CampaignSpec,
    ClusterRef,
    RunSpec,
    SyntheticWorkloadRef,
    execute_run,
    run_campaign,
)
from repro.results import ResultStore, content_key
from repro.results.__main__ import main as results_cli
from repro.store import INDEX_SUFFIX, StoreIndex
from repro.traces import TraceStore
from repro.traces.__main__ import main as traces_cli
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM

SMALL = WorkloadSpec(njobs=2, mean_interarrival=90.0, work_scale=0.04, iterations=12)


def small_spec(name: str = "index-test", seeds=(0, 1)) -> CampaignSpec:
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


# -- a minimal fake tier over plain JSON files ----------------------------------------


def _describe(path):
    try:
        payload = json.loads(path.read_text())
        return payload.get("v"), {"n": payload.get("n")}
    except (OSError, ValueError):
        return None, None


def make_store(tmp_path, keys=("aa", "bb", "cc")):
    root = tmp_path / "cells"
    root.mkdir()
    for i, key in enumerate(keys):
        (root / f"{key}.json").write_text(json.dumps({"v": 1, "n": i}))
    return root


def make_index(root) -> StoreIndex:
    return StoreIndex(root, suffix=".json", store_version=1, describe=_describe)


class TestJournalCrashSafety:
    def test_scan_builds_sibling_journal(self, tmp_path):
        root = make_store(tmp_path)
        index = make_index(root)
        assert index.scan() == {"aa", "bb", "cc"}
        # The journal is a *sibling* of the root: the root directory stays
        # exactly the set of entry files (shard shipping, whole-dir compares).
        assert index.path == root.parent / f"cells{INDEX_SUFFIX}"
        assert index.path.exists()
        assert not (root / f"cells{INDEX_SUFFIX}").exists()
        assert index.stats["rebuilds"] == 1

    def test_second_scan_is_a_hit(self, tmp_path):
        root = make_store(tmp_path)
        index = make_index(root)
        index.scan()
        assert index.scan() == {"aa", "bb", "cc"}
        assert index.stats["hits"] >= 1
        # A brand-new object replays the same journal and hits too.
        fresh = make_index(root)
        assert fresh.scan() == {"aa", "bb", "cc"}
        assert fresh.stats == {"hits": 1, "reconciles": 0, "rebuilds": 0}

    def test_truncated_tail_self_heals(self, tmp_path):
        root = make_store(tmp_path)
        index = make_index(root)
        index.scan()
        raw = index.path.read_bytes()
        index.path.write_bytes(raw[:-10])  # tear the last record
        fresh = make_index(root)
        assert fresh.scan() == {"aa", "bb", "cc"}
        assert fresh.stats["rebuilds"] == 0  # header survived: no full rebuild

    def test_garbage_tail_is_skipped(self, tmp_path):
        root = make_store(tmp_path)
        index = make_index(root)
        index.scan()
        with open(index.path, "ab") as stream:
            stream.write(b"\x00\xffnot json at all\n")
        fresh = make_index(root)
        assert fresh.scan() == {"aa", "bb", "cc"}

    def test_missing_journal_rebuilds(self, tmp_path):
        root = make_store(tmp_path)
        index = make_index(root)
        index.scan()
        index.path.unlink()
        fresh = make_index(root)
        assert fresh.scan() == {"aa", "bb", "cc"}
        assert fresh.stats["rebuilds"] == 1

    def test_schema_bump_invalidates_journal(self, tmp_path):
        root = make_store(tmp_path)
        make_index(root).scan()
        bumped = StoreIndex(root, suffix=".json", store_version=2, describe=_describe)
        assert bumped.scan() == {"aa", "bb", "cc"}
        assert bumped.stats["rebuilds"] == 1

    def test_external_add_and_remove_reconcile(self, tmp_path):
        root = make_store(tmp_path)
        index = make_index(root)
        index.scan()
        # Another process (or a human) mutates the directory behind the
        # journal's back: ground truth wins on the next scan.
        (root / "dd.json").write_text(json.dumps({"v": 1, "n": 9}))
        (root / "aa.json").unlink()
        assert index.scan() == {"bb", "cc", "dd"}
        assert index.live_entries()["dd"].summary == {"n": 9}
        assert index.stats["reconciles"] >= 1

    def test_stale_entry_is_redescribed(self, tmp_path):
        root = make_store(tmp_path)
        index = make_index(root)
        index.scan()
        # Entry rewrites are always tmp + rename (the stores' atomic write
        # pattern) — the rename moves the directory mtime, which is what
        # invalidates the journal's freshness marker.
        tmp = root / ".bb.tmp"
        tmp.write_text(json.dumps({"v": 1, "n": 77, "pad": "x" * 64}))
        tmp.replace(root / "bb.json")
        index.scan()
        assert index.live_entries()["bb"].summary == {"n": 77}

    def test_unreadable_file_still_scans_but_never_renders(self, tmp_path):
        root = make_store(tmp_path)
        (root / "zz.json").write_bytes(b"\x00 not json")
        index = make_index(root)
        assert "zz" in index.scan()
        assert index.live_entries()["zz"].summary is None


def _put_worker(root: str, keys: list[str]) -> None:
    index = StoreIndex(root, suffix=".json", store_version=1, describe=_describe)
    for i, key in enumerate(keys):
        path = os.path.join(root, f"{key}.json")
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(json.dumps({"v": 1, "n": i}))
        st = os.stat(path)
        index.record_put(
            key, size=st.st_size, mtime_ns=st.st_mtime_ns, version=1, summary={"n": i}
        )


class TestConcurrentWriters:
    def test_two_process_puts_interleave_whole_records(self, tmp_path):
        root = make_store(tmp_path, keys=())
        make_index(root).scan()  # seed a valid journal both writers append to
        ctx = multiprocessing.get_context("fork")
        groups = [
            [f"a{i:02d}" for i in range(20)],
            [f"b{i:02d}" for i in range(20)],
        ]
        procs = [ctx.Process(target=_put_worker, args=(str(root), g)) for g in groups]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        fresh = make_index(root)
        assert fresh.scan() == set(groups[0]) | set(groups[1])
        # Every surviving journal line is a whole JSON record (O_APPEND
        # interleaves records, never bytes).
        for line in fresh.path.read_text().splitlines():
            json.loads(line)


class TestRetentionAndCompaction:
    def test_lru_spares_recently_read_keys(self, tmp_path):
        root = make_store(tmp_path)  # aa, bb, cc in put order
        index = make_index(root)
        index.scan()
        index.note_read("aa")
        index.flush_reads()
        size = (root / "bb.json").stat().st_size
        # Budget for one entry: the two least-recently-active go; "aa" was
        # just read, so it survives.
        doomed = index.retention_doomed(lru_bytes=size + 1)
        assert set(doomed) == {"bb", "cc"}

    def test_max_age_uses_file_mtime(self, tmp_path):
        root = make_store(tmp_path)
        old = (root / "aa.json").stat().st_mtime_ns
        os.utime(root / "aa.json", ns=(old - 10**12, old - 10**12))  # age 1000 s
        index = make_index(root)
        index.scan()
        now = (root / "bb.json").stat().st_mtime_ns / 1e9
        assert index.retention_doomed(max_age=500.0, now=now) == ["aa"]
        assert index.retention_doomed(max_age=2000.0, now=now) == []

    def test_exclude_keys_do_not_count_against_budget(self, tmp_path):
        root = make_store(tmp_path)
        index = make_index(root)
        index.scan()
        assert index.retention_doomed(lru_bytes=0, exclude={"aa", "bb", "cc"}) == []

    @pytest.mark.parametrize(
        "policy",
        [{"lru_bytes": -1}, {"max_age": -100.0}, {"max_age": float("nan")},
         {"max_age": float("inf")}],
        ids=["lru=-1", "max-age=-100", "max-age=nan", "max-age=inf"],
    )
    def test_invalid_policy_is_rejected(self, tmp_path, policy):
        index = make_index(make_store(tmp_path))
        index.scan()
        (name,) = policy
        with pytest.raises(ValueError, match=f"{name} must be"):
            index.retention_doomed(**policy)

    def test_compaction_keeps_state_and_lru_order(self, tmp_path):
        root = make_store(tmp_path)
        index = make_index(root)
        index.scan()
        for _ in range(120):  # inflate the journal well past the floor
            index.note_read("bb")
            index.flush_reads()
        before = len(index.path.read_text().splitlines())
        assert before > 64
        # The next maintenance write compacts in place.
        (root / "dd.json").write_text(json.dumps({"v": 1, "n": 3}))
        st = (root / "dd.json").stat()
        index.record_put(
            "dd", size=st.st_size, mtime_ns=st.st_mtime_ns, version=1, summary={"n": 3}
        )
        after = len(index.path.read_text().splitlines())
        assert after < before
        fresh = make_index(root)
        assert fresh.scan() == {"aa", "bb", "cc", "dd"}
        # "bb" was the hot key before compaction; LRU eviction under a
        # one-entry budget must doom the cold keys first.
        fresh.note_read("bb")
        fresh.flush_reads()
        size = (root / "aa.json").stat().st_size
        doomed = fresh.retention_doomed(lru_bytes=2 * size)
        assert "bb" not in doomed

    def test_gc_under_replay_never_loses_ground_truth(self, tmp_path):
        """One object gc-removes entries while a second replays the same
        journal: the second's next scan converges on the directory."""
        root = make_store(tmp_path)
        writer, reader = make_index(root), make_index(root)
        writer.scan()
        reader.scan()
        (root / "aa.json").unlink()
        writer.record_remove("aa")
        assert reader.scan() == {"bb", "cc"}
        assert (root / "bb.json").exists() and (root / "cc.json").exists()


class TestResultStoreIntegration:
    def test_warm_campaign_is_byte_identical_without_index(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        cold = run_campaign(spec, store=store)
        baseline = {
            p.name: p.read_bytes() for p in sorted(store.root.glob("*.json"))
        }
        index_path = store.index.path
        assert index_path.exists()
        index_path.unlink()  # the rebuild smoke: index gone entirely
        warm = run_campaign(spec, store=ResultStore(store.root))
        assert warm.executed == 0
        assert warm.rows == cold.rows
        assert {
            p.name: p.read_bytes() for p in sorted(store.root.glob("*.json"))
        } == baseline
        assert index_path.exists()  # scan re-created it

    def test_summaries_limit_zero_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(small_spec(), store=store)
        assert store.summaries(limit=0) == []
        assert len(store.summaries(limit=1)) == 1

    def test_summaries_match_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(small_spec(), store=store)
        rows = store.summaries()
        assert [r.key for r in rows] == store.keys()
        by_key = {e.key: e for e in store.entries()}
        for row in rows:
            assert row.summary["scenario"] == by_key[row.key].contents["scenario"]
            assert row.summary["total_run_time"] == pytest.approx(
                by_key[row.key].metrics["total_run_time"]
            )

    def test_results_cli_limit_prefix_and_retention_gc(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        run_campaign(small_spec(), store=store)
        keys = store.keys()
        assert results_cli(["ls", "--store", str(store.root), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert keys[0][:12] in out and keys[1][:12] not in out
        assert results_cli(
            ["ls", "--store", str(store.root), "--prefix", keys[-1][:8]]
        ) == 0
        out = capsys.readouterr().out
        assert keys[-1][:12] in out
        # A zero-byte LRU budget dooms everything; dry run touches nothing.
        assert results_cli(["gc", "--store", str(store.root), "--lru", "0"]) == 0
        assert len(store.keys()) == len(keys)
        assert results_cli(
            ["gc", "--store", str(store.root), "--lru", "0", "--delete"]
        ) == 0
        assert ResultStore(store.root).keys() == []

    def test_store_gc_max_age(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(small_spec(seeds=(0,)), store=store)
        key = store.keys()[0]
        path = store.path_for(key)
        st = path.stat()
        os.utime(path, ns=(st.st_mtime_ns - 10**12, st.st_mtime_ns - 10**12))
        fresh = ResultStore(store.root)
        # utime doesn't move the directory mtime, so force the index to
        # re-describe the aged file (a reconcile or rebuild would too).
        fresh.index.path.unlink()
        doomed = fresh.gc(max_age=500.0, dry_run=True)
        assert key in doomed


class TestTraceStoreIntegration:
    def test_windowed_query_equals_full_inflation(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path / "traces", segment_steps=8)
        store.put(run, result)
        entry = store.get(run)
        steps = list(result.tracer)
        assert len(entry.segments) > 1
        lo, hi = steps[3].start, steps[9].end
        expected = [s for s in steps if s.start <= hi and s.end >= lo]
        assert entry.steps_between(lo, hi) == expected
        assert 0 < entry.segments_inflated < len(entry.segments)
        # Fully inflating afterwards gives the same records.
        assert [
            s for s in entry.tracer if s.start <= hi and s.end >= lo
        ] == expected

    def test_reader_windowed_queries_lazy_then_full(self, traced_run, tmp_path):
        from repro.traces import TraceReader

        run, result = traced_run
        store = TraceStore(tmp_path / "traces", segment_steps=8)
        store.put(run, result)
        entry = store.get(run)
        reader = TraceReader(entry)
        live = TraceReader(result.tracer)
        steps = list(result.tracer)
        lo, hi = steps[0].start, steps[5].end
        job = steps[0].job
        assert reader.steps_between(lo, hi) == live.steps_between(lo, hi)
        assert reader.ipc_series_between(lo, hi, job) == live.ipc_series_between(
            lo, hi, job
        )
        assert entry.segments_inflated < len(entry.segments)

    def test_head_steps_inflates_leading_segments_only(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path / "traces", segment_steps=8)
        store.put(run, result)
        entry = store.get(run)
        assert entry.head_steps(5) == list(result.tracer)[:5]
        assert entry.segments_inflated == 1

    def test_truncated_artifact_is_a_miss(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path / "traces", segment_steps=8)
        path = store.put(run, result)
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])  # header member intact, body short
        assert TraceStore(store.root, segment_steps=8).get(run) is None

    def test_traces_cli_head_limit_and_paraver_companions(
        self, traced_run, tmp_path, capsys
    ):
        run, result = traced_run
        store = TraceStore(tmp_path / "traces")
        store.put(run, result)
        key = content_key(run)
        assert traces_cli(["ls", "--store", str(store.root), "--limit", "1"]) == 0
        assert key[:12] in capsys.readouterr().out
        assert traces_cli(
            ["show", key[:12], "--store", str(store.root), "--head", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "3 of" in out and "segment(s) inflated" in out
        out_dir = tmp_path / "export"
        assert traces_cli(
            ["export", key[:12], "--store", str(store.root), "--out", str(out_dir)]
        ) == 0
        capsys.readouterr()
        stem = f"{run.scenario}-{key[:12]}"
        assert (out_dir / f"{stem}.prv").exists()
        pcf = (out_dir / f"{stem}.pcf").read_text()
        row = (out_dir / f"{stem}.row").read_text()
        assert "EVENT_TYPE" in pcf and "VALUES" in pcf
        assert row.startswith("LEVEL CPU SIZE")

    def test_trace_gc_lru_flag(self, traced_run, tmp_path, capsys):
        run, result = traced_run
        store = TraceStore(tmp_path / "traces")
        store.put(run, result)
        assert traces_cli(
            ["gc", "--store", str(store.root), "--lru", "0", "--delete"]
        ) == 0
        capsys.readouterr()
        assert TraceStore(store.root).keys() == []
