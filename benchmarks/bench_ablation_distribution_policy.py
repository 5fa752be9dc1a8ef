"""Ablation — mask-distribution policy of the task/affinity plugin.

DESIGN.md calls out the socket-aware placement as a design choice worth
ablating.  The paper's plugin "distributes CPUs trying to keep applications in
separate sockets in order to improve data locality"; a naive equipartition
that simply hands out contiguous CPU ranges can leave a job straddling both
sockets.  The benchmark builds the case where this matters — three jobs of
4, 8 and 4 CPUs on one node — and measures, with the NEST performance
profile, what the placement costs the straddling job in IPC and iteration
time.  It also re-runs the use-case-2 workload under both policies to confirm
the end-to-end metrics never get worse with the paper's policy.
"""

from __future__ import annotations

from repro.apps import nest_profile
from repro.apps.perfmodel import MaskShape
from repro.campaign import (
    CampaignSpec,
    HighPriorityWorkloadRef,
    PolicyRef,
    run_campaign,
)
from repro.cpuset.distribution import (
    EquipartitionPolicy,
    JobShare,
    SocketAwareEquipartition,
)
from repro.cpuset.topology import NodeTopology
from repro.experiments.tables import render_table
from repro.workload.runner import DROM


def evaluate_policies():
    node = NodeTopology.marenostrum3()
    profile = nest_profile()
    solve = profile.phase("simulate")
    jobs = [
        JobShare(job_id=1, ntasks=1, requested_cpus=4),
        JobShare(job_id=2, ntasks=1, requested_cpus=8),
        JobShare(job_id=3, ntasks=1, requested_cpus=4),
    ]
    placement_rows = []
    summary = {}
    for label, policy in (
        ("socket-aware equipartition (paper)", SocketAwareEquipartition()),
        ("plain contiguous equipartition", EquipartitionPolicy()),
    ):
        allocation = policy.distribute(node, jobs)
        eight_cpu_mask = allocation[2].mask
        spanned = node.sockets_spanned(eight_cpu_mask)
        shape = MaskShape.of(eight_cpu_mask, node)
        ipc = profile.ipc(solve, shape, initial_threads=8)
        step_time = profile.iteration_time(
            solve, 100.0, shape, node, initial_threads=8, total_ranks=2
        )
        placement_rows.append(
            (label, eight_cpu_mask.to_list_string(), spanned, f"{ipc:.2f}", f"{step_time:.1f}")
        )
        summary[label] = {"spanned": spanned, "ipc": ipc, "step_time": step_time}

    # End-to-end sanity: on the two-full-jobs workload the policies coincide,
    # so the paper's policy never regresses the workload metrics.  The policy
    # axis of the campaign grid runs both variants in one sweep.
    policy_labels = {
        "socket": "socket-aware equipartition (paper)",
        "equipartition": "plain contiguous equipartition",
    }
    campaign = run_campaign(
        CampaignSpec(
            name="ablation-distribution-policy",
            workloads=(HighPriorityWorkloadRef(),),
            scenarios=(DROM,),
            policies=(PolicyRef("socket"), PolicyRef("equipartition")),
        )
    )
    e2e_rows = []
    for row in campaign.rows:
        label = policy_labels[row.run.policy.name]
        summary[label]["total_run_time"] = row.total_run_time
        e2e_rows.append((label, f"{row.total_run_time:.0f}"))
    return placement_rows, e2e_rows, summary


def test_ablation_distribution_policy(benchmark, report):
    placement_rows, e2e_rows, summary = benchmark(evaluate_policies)
    text = (
        "Placement of an 8-CPU job co-allocated with two 4-CPU jobs:\n"
        + render_table(
            ["Policy", "8-CPU job mask", "Sockets spanned", "IPC", "Step time (s)"],
            placement_rows,
        )
        + "\n\nUse-case-2 workload total run time under each policy:\n"
        + render_table(["Policy", "DROM total run time (s)"], e2e_rows)
    )
    report("ablation_distribution_policy", text)

    paper = summary["socket-aware equipartition (paper)"]
    plain = summary["plain contiguous equipartition"]
    # The paper's policy keeps the wide job on a single socket...
    assert paper["spanned"] == 1
    assert plain["spanned"] == 2
    # ...which buys locality: higher IPC and a faster iteration.
    assert paper["ipc"] > plain["ipc"]
    assert paper["step_time"] < plain["step_time"]
    # And it never costs anything end to end.
    assert paper["total_run_time"] <= plain["total_run_time"] * 1.001
