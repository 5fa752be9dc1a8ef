"""Extension — DROM-aware victim-node selection (the paper's future work).

Section 7 proposes resource-management policies that choose "as 'victim'
nodes the ones with lower utilization" when a malleable job must be
co-allocated.  This benchmark exercises the :mod:`repro.slurm.policies`
extension on a four-node partition: two nodes host a well-utilised simulation,
two host a badly-utilised one (reported through the DROM statistics module).
A new two-node malleable job then arrives, and the benchmark compares where
stock first-fit and the utilisation-aware policy place it.
"""

from __future__ import annotations

from repro.core.stats import StatsModule
from repro.cpuset import CpuSet, ClusterTopology
from repro.experiments.tables import render_table
from repro.slurm import (
    FirstFit,
    JobSpec,
    LowestUtilisationFirst,
    Slurmctld,
    Slurmd,
)


def build_partition():
    """Four MN3 nodes with two running jobs and per-node DROM statistics."""
    cluster = ClusterTopology.marenostrum3(4)
    slurmds = {node.name: Slurmd(node, drom_enabled=True) for node in cluster.nodes}
    stats = {name: StatsModule(slurmd.shmem) for name, slurmd in slurmds.items()}

    # A well-utilised job on nodes 0-1 and a badly-utilised one on nodes 2-3.
    for node_name, pid, utilisation in (
        ("mn3-0", 9001, 0.95), ("mn3-1", 9002, 0.95),
        ("mn3-2", 9003, 0.35), ("mn3-3", 9004, 0.35),
    ):
        slurmds[node_name].shmem.register(pid, CpuSet.from_range(0, 16))
        useful = 16 * 100.0 * utilisation
        idle = 16 * 100.0 * (1 - utilisation)
        stats[node_name].record_compute_batch(pid, [(useful, idle, 16, 100.0, 1)])
    return cluster, stats


def place_with_policies():
    cluster, stats = build_partition()
    placements = {}
    for label, policy in (
        ("first-fit (stock slurmctld)", FirstFit()),
        ("lowest-utilisation victim selection", LowestUtilisationFirst(
            lambda name: stats[name].node_summary().utilisation)),
    ):
        ctld = Slurmctld(cluster, drom_enabled=True, node_policy=policy)
        # Mirror the already-running jobs in the controller's node state: the
        # well-utilised job occupies nodes 0-1, the badly-utilised one 2-3
        # (matching the statistics recorded in build_partition).
        for node_name in ("mn3-0", "mn3-1"):
            ctld.nodes[node_name].running[9100] = (1, 16, True)
        for node_name in ("mn3-2", "mn3-3"):
            ctld.nodes[node_name].running[9200] = (1, 16, True)
        new = ctld.submit(JobSpec(name="new malleable", nodes=2, ntasks=2, cpus_per_task=16), 10.0)
        ctld.schedule(10.0)
        placements[label] = new.allocated_nodes
        utilisations = tuple(
            round(stats[name].node_summary().utilisation, 2) for name in new.allocated_nodes
        )
        placements[label] = (new.allocated_nodes, utilisations)
    return placements


def test_extension_victim_node_selection(benchmark, report):
    placements = benchmark(place_with_policies)
    rows = [
        (label, ", ".join(nodes), ", ".join(str(u) for u in utils))
        for label, (nodes, utils) in placements.items()
    ]
    report(
        "extension_victim_selection",
        render_table(["Node-selection policy", "Victim nodes chosen", "Their utilisation"], rows),
    )

    first_fit_nodes, _ = placements["first-fit (stock slurmctld)"]
    victim_nodes, victim_utils = placements["lowest-utilisation victim selection"]
    # Stock slurmctld shares the first nodes it finds; the DROM-aware policy
    # picks the badly-utilised ones instead.
    assert first_fit_nodes == ("mn3-0", "mn3-1")
    assert victim_nodes == ("mn3-2", "mn3-3")
    assert all(u < 0.5 for u in victim_utils)
