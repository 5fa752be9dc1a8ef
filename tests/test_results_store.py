"""Tests of the content-addressed result store and memoised campaigns."""

from __future__ import annotations

import dataclasses
import json

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
    summarise_run,
)
from repro.results import ResultStore, content_key, spec_contents, spec_from_contents
from repro.results.__main__ import main as results_cli
from repro.traces import TraceStore
from repro.traces.store import _gzip_member
from repro.workload.generator import SizeMixEntry, WorkloadSpec, heavy_tailed_size_mix
from repro.workload.runner import DROM, SERIAL

#: Cheap synthetic family — small enough that a grid of them stays test-sized.
SMALL = WorkloadSpec(njobs=2, mean_interarrival=90.0, work_scale=0.04, iterations=12)

#: Heterogeneous variant: per-job node requests drawn from a size mix.
SMALL_HETERO = dataclasses.replace(
    SMALL, size_mix=heavy_tailed_size_mix(4), arrival="bursty", burst_size=2
)


def small_spec(nworkloads: int = 1, **kwargs) -> CampaignSpec:
    defaults = dict(
        name="store-test",
        workloads=tuple(
            SyntheticWorkloadRef(spec=SMALL, seed=i) for i in range(nworkloads)
        ),
        clusters=(ClusterRef(nnodes=4),),
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def a_run(**kwargs) -> RunSpec:
    defaults = dict(
        index=0,
        scenario=DROM,
        workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
        cluster=ClusterRef(nnodes=4),
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


class TestContentKey:
    def test_index_is_excluded(self):
        run = a_run()
        assert content_key(run) == content_key(dataclasses.replace(run, index=99))

    def test_every_content_field_is_included(self):
        run = a_run()
        variants = [
            dataclasses.replace(run, scenario=SERIAL),
            dataclasses.replace(run, workload=SyntheticWorkloadRef(spec=SMALL, seed=1)),
            dataclasses.replace(run, cluster=ClusterRef(nnodes=2)),
            dataclasses.replace(run, policy=PolicyRef("equipartition")),
            dataclasses.replace(run, interference_factor=1.5),
            dataclasses.replace(run, scheduler=SchedulerRef(backfill=True)),
            dataclasses.replace(
                run, scheduler=SchedulerRef(node_policy="least-allocated")
            ),
        ]
        keys = {content_key(v) for v in variants}
        assert len(keys) == len(variants)
        assert content_key(run) not in keys

    def test_interference_no_longer_aliases_run_id(self):
        # Regression: two cells differing only in interference used to share
        # a run_id, which would silently alias cache entries.
        run = a_run()
        slowed = dataclasses.replace(run, interference_factor=1.5)
        assert run.run_id != slowed.run_id

    def test_scheduler_in_run_id(self):
        run = a_run()
        backfill = dataclasses.replace(run, scheduler=SchedulerRef(backfill=True))
        assert run.run_id != backfill.run_id

    def test_key_is_stable_across_processes(self):
        # A fixed spec must hash identically forever (the persistence
        # contract); pin one known key shape rather than a magic value.
        key = content_key(a_run())
        assert len(key) == 64
        assert key == content_key(a_run())

    def test_resource_requests_enter_the_hash(self):
        # The tentpole's aliasing hazard: the same family with and without a
        # size mix (or with a shrunk analytics job) computes different
        # simulations and must occupy different cells.
        uniform = a_run()
        hetero = a_run(workload=SyntheticWorkloadRef(spec=SMALL_HETERO, seed=0))
        assert content_key(uniform) != content_key(hetero)
        insitu = a_run(workload=InSituWorkloadRef("NEST", "Conf. 1", "Pils", "Conf. 2"))
        shrunk = a_run(
            workload=InSituWorkloadRef(
                "NEST", "Conf. 1", "Pils", "Conf. 2", analytics_nodes=1
            )
        )
        assert content_key(insitu) != content_key(shrunk)
        assert insitu.run_id != shrunk.run_id

    def test_inert_burst_size_does_not_split_cells(self):
        # Regression: for non-bursty arrivals burst_size changes nothing the
        # run computes, so it must not change the content key either.
        loud = a_run(
            workload=SyntheticWorkloadRef(
                spec=dataclasses.replace(SMALL, burst_size=8), seed=0
            )
        )
        assert content_key(loud) == content_key(a_run())

    @pytest.mark.parametrize(
        "workload",
        [
            SyntheticWorkloadRef(spec=SMALL, seed=3),
            SyntheticWorkloadRef(spec=SMALL_HETERO, seed=3),
            SyntheticWorkloadRef(
                spec=dataclasses.replace(
                    SMALL,
                    size_mix=(SizeMixEntry(nodes=2, min_nodes=1, max_nodes=4),),
                ),
                seed=1,
            ),
            InSituWorkloadRef(
                "NEST", "Conf. 1", "Pils", "Conf. 2",
                simulator_kwargs=(("malleable", False),),
            ),
            InSituWorkloadRef("NEST", "Conf. 1", "Pils", "Conf. 2",
                              analytics_nodes=1),
            HighPriorityWorkloadRef(second_submit=60.0),
        ],
    )
    def test_spec_contents_round_trip(self, workload):
        run = a_run(
            workload=workload,
            policy=PolicyRef("socket"),
            interference_factor=1.2,
            scheduler=SchedulerRef(backfill=True, node_policy="first-fit"),
        )
        # JSON round trip too: stored contents are parsed back from disk.
        contents = json.loads(json.dumps(spec_contents(run)))
        rebuilt = spec_from_contents(contents, index=run.index)
        assert rebuilt == run
        assert content_key(rebuilt) == content_key(run)

    def test_unknown_workload_type_rejected(self):
        with pytest.raises(ValueError, match="unknown workload reference"):
            spec_from_contents(
                {
                    "scenario": DROM,
                    "workload": {"type": "Mystery"},
                    "cluster": {"nnodes": 2, "kind": "mn3", "sockets": 2,
                                "cores_per_socket": 8},
                    "policy": None,
                    "scheduler": {"backfill": False, "node_policy": None},
                    "interference_factor": None,
                }
            )


class TestResultStore:
    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get(a_run()) is None

    def test_put_get_round_trip_rebinds_index(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_campaign(small_spec(), store=store)
        row = result.rows[1]
        moved = dataclasses.replace(row.run, index=42)
        cached = store.get(moved)
        assert cached is not None
        assert cached.run.index == 42
        assert cached == dataclasses.replace(row, run=moved)

    def test_entries_and_contains(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(small_spec(), store=store)
        runs = small_spec().expand()
        assert all(run in store for run in runs)
        entries = list(store.entries())
        assert len(entries) == len(store) == len(runs)
        assert [e.key for e in entries] == sorted(e.key for e in entries)
        # An entry rebuilds its spec and row.
        assert entries[0].run in store
        assert entries[0].row().workload_name.startswith("synthetic")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        run = small_spec().expand()[0]
        run_campaign(small_spec(), store=store)
        store.path_for(content_key(run)).write_text("{not json")
        assert store.get(run) is None

    def test_old_format_version_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        run = small_spec().expand()[0]
        run_campaign(small_spec(), store=store)
        path = store.path_for(content_key(run))
        payload = json.loads(path.read_text())
        payload["version"] = 0
        path.write_text(json.dumps(payload))
        assert store.get(run) is None
        # ...and invisible to listing/reporting, like any other miss.
        assert content_key(run) not in {e.key for e in store.entries()}
        with pytest.raises(ValueError, match="store format"):
            store.load(content_key(run))

    def test_malformed_payload_is_a_miss_not_a_crash(self, tmp_path):
        # Version matches but the metrics payload is broken (truncated write,
        # hand edit): the warm campaign must re-simulate, not abort.
        store = ResultStore(tmp_path)
        spec = small_spec()
        run = spec.expand()[0]
        run_campaign(spec, store=store)
        path = store.path_for(content_key(run))
        payload = json.loads(path.read_text())
        del payload["metrics"]
        path.write_text(json.dumps(payload))
        assert store.get(run) is None
        result = run_campaign(spec, store=store)
        assert result.executed == 1 and result.cache_hits == spec.nruns - 1

    def test_gc_collects_corrupt_and_matching(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(small_spec(), store=store)
        (tmp_path / "deadbeef.json").write_text("{not json")
        doomed = store.gc(dry_run=True)
        assert doomed == ["deadbeef"]
        assert len(store) == 3  # dry run removed nothing
        removed = store.gc(
            predicate=lambda entry: entry.contents["scenario"] == SERIAL
        )
        assert "deadbeef" in removed and len(removed) == 2
        assert len(store) == 1

    def test_merge_is_the_sharding_path(self, tmp_path):
        # Two hosts each simulate half the grid; the union is the campaign.
        spec = small_spec(nworkloads=2)
        runs = spec.expand()
        shard_a, shard_b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        run_campaign(small_spec(nworkloads=1), store=shard_a)
        run_campaign(spec, store=shard_b)
        merged = shard_a.merge(shard_b)
        assert merged == 2  # only the cells shard_a was missing
        assert len(shard_a) == len(runs)
        warm = run_campaign(spec, store=shard_a)
        assert warm.executed == 0 and warm.cache_hits == spec.nruns


class TestMemoisedCampaign:
    def test_cold_then_warm(self, tmp_path):
        spec = small_spec(nworkloads=2)
        store = ResultStore(tmp_path)
        cold = run_campaign(spec, store=store)
        warm = run_campaign(spec, store=store)
        assert cold.executed == spec.nruns and cold.cache_hits == 0
        assert warm.executed == 0 and warm.cache_hits == spec.nruns
        assert warm.rows == cold.rows
        assert warm.to_table() == cold.to_table()

    def test_warm_pooled_equals_cold_serial(self, tmp_path):
        spec = small_spec(nworkloads=2)
        store = ResultStore(tmp_path)
        cold = run_campaign(spec, workers=1, store=store)
        warm = run_campaign(spec, workers=2, store=store)
        assert warm.rows == cold.rows

    def test_partial_overlap_executes_only_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(small_spec(nworkloads=1), store=store)
        grown = small_spec(nworkloads=2)
        result = run_campaign(grown, store=store)
        assert result.cache_hits == 2  # the seed-0 serial+drom cells
        assert result.executed == grown.nruns - 2
        # And the store-served campaign equals a from-scratch one.
        fresh = run_campaign(grown)
        assert result.rows == fresh.rows

    def test_no_store_still_counts_executions(self):
        result = run_campaign(small_spec())
        assert result.executed == len(result.rows)
        assert result.cache_hits == 0


class TestResultsCli:
    @pytest.fixture()
    def populated(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(small_spec(), store=store)
        return store

    def test_ls(self, populated, capsys):
        assert results_cli(["ls", "--store", str(populated.root)]) == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out
        assert SERIAL in out and DROM in out
        assert "synthetic[seed=0]" in out

    def test_ls_empty_store(self, tmp_path, capsys):
        assert results_cli(["ls", "--store", str(tmp_path / "void")]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_show_by_prefix(self, populated, capsys):
        key = populated.keys()[0]
        assert results_cli(["show", key[:10], "--store", str(populated.root)]) == 0
        out = capsys.readouterr().out
        assert f"key       {key}" in out
        assert "Response (s)" in out

    def test_show_unknown_key(self, populated, capsys):
        assert results_cli(["show", "ffff", "--store", str(populated.root)]) == 1
        assert "no entry" in capsys.readouterr().err

    def test_diff_identical_and_divergent(self, populated, tmp_path, capsys):
        other = ResultStore(tmp_path / "other")
        other.merge(populated)
        assert results_cli(["diff", str(populated.root), str(other.root)]) == 0
        assert "identical" in capsys.readouterr().out
        # Make the stores diverge: drop one cell from the copy.
        other.remove(other.keys()[0])
        assert results_cli(["diff", str(populated.root), str(other.root)]) == 1
        assert "only in A" in capsys.readouterr().out

    def test_gc_dry_run_then_delete(self, populated, capsys):
        root = str(populated.root)
        assert results_cli(["gc", "--store", root, "--all"]) == 0
        assert "would remove 2" in capsys.readouterr().out
        assert len(populated) == 2
        assert results_cli(["gc", "--store", root, "--all", "--delete"]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert len(populated) == 0

    def test_gc_scenario_filter(self, populated, capsys):
        root = str(populated.root)
        assert results_cli(
            ["gc", "--store", root, "--scenario", SERIAL, "--delete"]
        ) == 0
        assert len(populated) == 1
        remaining = next(populated.entries())
        assert remaining.contents["scenario"] == DROM

    def test_merge_many_shards(self, tmp_path, capsys):
        # The shard transport: N shard stores union into one target store.
        spec = small_spec(nworkloads=2)
        shard_roots = []
        for i, shard_spec in enumerate(spec.shard(2)):
            store = ResultStore(tmp_path / f"shard-{i}")
            run_campaign(shard_spec, store=store)
            shard_roots.append(str(store.root))
        out_root = tmp_path / "merged"
        assert results_cli(["merge", str(out_root)] + shard_roots) == 0
        printed = capsys.readouterr().out
        assert f"{len(ResultStore(out_root))} cell(s)" in printed
        merged = ResultStore(out_root)
        assert len(merged) == spec.nruns
        warm = run_campaign(spec, store=merged)
        assert warm.executed == 0 and warm.cache_hits == spec.nruns

    def test_merge_rejects_missing_shard_roots(self, populated, tmp_path, capsys):
        # Regression: a typo'd shard path must fail loudly, not merge nothing.
        code = results_cli(
            ["merge", str(tmp_path / "out"), str(populated.root),
             str(tmp_path / "no-such-shard")]
        )
        assert code == 1
        assert "does not exist" in capsys.readouterr().err
        assert len(ResultStore(tmp_path / "out")) == 0  # nothing half-merged

    def test_merge_is_idempotent(self, populated, tmp_path, capsys):
        out = tmp_path / "merged"
        root = str(populated.root)
        assert results_cli(["merge", str(out), root]) == 0
        assert results_cli(["merge", str(out), root]) == 0
        assert "0 of 2" in capsys.readouterr().out
        assert len(ResultStore(out)) == len(populated)


def _stale(store, run) -> None:
    """Rewrite ``run``'s entry as a readable file of an older format."""
    path = store.path_for(content_key(run))
    if isinstance(store, ResultStore):
        payload = json.loads(path.read_text())
        payload["version"] -= 1
        path.write_text(json.dumps(payload))
        return
    entry = store.get(run)
    header = dict(entry.header, version=entry.header["version"] - 1)
    body = path.read_bytes()[entry.header_bytes :]
    path.write_bytes(_gzip_member(json.dumps(header, sort_keys=True) + "\n") + body)


#: Ways an entry file goes bad; every one must read as a miss in both tiers.
DAMAGE = {
    "stale-format": _stale,
    "non-utf8": lambda store, run: store.path_for(content_key(run)).write_bytes(
        b"\xff\xfe not an entry \x80"
    ),
    "truncated": lambda store, run: store.path_for(content_key(run)).write_bytes(
        store.path_for(content_key(run)).read_bytes()[:40]
    ),
}


@pytest.fixture(scope="module")
def executed():
    run = a_run()
    return run, execute_run(run, trace=True)


def _filled(tier: str, root, run, result):
    """A ``tier`` store under ``root`` holding ``run``'s cell."""
    if tier == "results":
        store = ResultStore(root)
        store.put(summarise_run(run, result))
    else:
        store = TraceStore(root)
        store.put(run, result)
    return store


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("tier", ["results", "traces"])
class TestTierContract:
    """What both tiers promise about bad entry files, checked once."""

    def test_in_means_get_would_hit(self, tier, damage, executed, tmp_path):
        run, result = executed
        store = _filled(tier, tmp_path, run, result)
        assert run in store and store.get(run) is not None
        DAMAGE[damage](store, run)
        assert store.get(run) is None
        assert run not in store
        assert content_key(run) in store.keys()  # present by name, still a miss
        assert store.gc() == [content_key(run)]

    def test_merge_skips_a_bad_source_entry(self, tier, damage, executed, tmp_path):
        run, result = executed
        source = _filled(tier, tmp_path / "source", run, result)
        DAMAGE[damage](source, run)
        target = type(source)(tmp_path / "target")
        assert target.merge(source) == 0
        assert len(target) == 0

    def test_merge_overwrites_a_bad_local_entry(self, tier, damage, executed, tmp_path):
        run, result = executed
        local = _filled(tier, tmp_path / "local", run, result)
        remote = _filled(tier, tmp_path / "remote", run, result)
        DAMAGE[damage](local, run)
        assert local.merge(remote) == 1
        path = local.path_for(content_key(run))
        assert path.read_bytes() == remote.path_for(content_key(run)).read_bytes()
        assert local.get(run) is not None and run in local


class TestSchemaVersioning:
    """The v1 → v2 hash-input bump: stale cells are invalid, never aliased."""

    def _downgrade(self, store: ResultStore, key: str) -> None:
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        payload["version"] = 1
        path.write_text(json.dumps(payload))

    def test_v1_cell_is_never_a_v2_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = small_spec()
        run_campaign(spec, store=store)
        for key in store.keys():
            self._downgrade(store, key)
        # Regression: a v1 entry at the right path must read as a miss...
        assert all(store.get(run) is None for run in spec.expand())
        # ...so a warm campaign re-simulates everything instead of aliasing.
        rerun = run_campaign(spec, store=store)
        assert rerun.executed == spec.nruns and rerun.cache_hits == 0

    def test_merge_never_imports_and_never_keeps_stale_entries(self, tmp_path):
        """Regression: cells whose contents survived the schema bump keep
        their key, so a pre-bump shard must neither ship v1 files nor shadow
        the other shard's current entry."""
        spec = small_spec()
        stale = ResultStore(tmp_path / "stale")
        run_campaign(spec, store=stale)
        for key in stale.keys():
            self._downgrade(stale, key)
        fresh = ResultStore(tmp_path / "fresh")
        run_campaign(spec, store=fresh)

        # v1 sources are never imported...
        merged = ResultStore(tmp_path / "merged")
        assert merged.merge(stale) == 0 and len(merged) == 0
        # ...and a v1 local file does not block the current entry.
        assert stale.merge(fresh) == spec.nruns
        warm = run_campaign(spec, store=stale)
        assert warm.executed == 0 and warm.cache_hits == spec.nruns

    def test_gc_collects_previous_schema_version(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = small_spec()
        run_campaign(spec, store=store)
        downgraded = store.keys()[0]
        self._downgrade(store, downgraded)
        # No predicate needed: old-format entries are always candidates.
        doomed = store.gc(dry_run=True)
        assert doomed == [downgraded]
        removed = store.gc()
        assert removed == [downgraded]
        assert downgraded not in store.keys()
        assert len(store) == spec.nruns - 1
