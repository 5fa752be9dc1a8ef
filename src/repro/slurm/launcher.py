"""srun — launching the tasks of a scheduled job across its nodes.

In Figure 2 of the paper, srun (running inside the batch script of the job)
sends launch requests to the slurmd of every allocated node; each slurmd runs
the task/affinity plugin and forks a slurmstepd which applies the DROM masks
and execs the tasks.  This module reproduces that fan-out and returns the
per-task launch records the workload runner needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.slurm.jobs import Job
from repro.slurm.slurmd import Slurmd, StepRecord
from repro.slurm.slurmstepd import TaskLaunch


@dataclass
class JobLaunch:
    """All the task launches of one job, across its allocated nodes."""

    job: Job
    steps: dict[str, StepRecord] = field(default_factory=dict)

    def tasks(self) -> list[TaskLaunch]:
        """Every task launch, ordered by global rank."""
        all_tasks = [t for step in self.steps.values() for t in step.launches]
        return sorted(all_tasks, key=lambda t: t.global_rank)


class Srun:
    """The job-step launcher."""

    def __init__(self, slurmds: dict[str, Slurmd]) -> None:
        self._slurmds = dict(slurmds)

    def launch(self, job: Job, environ: dict[str, str] | None = None) -> JobLaunch:
        """Launch ``job`` on its allocated nodes (set by slurmctld).

        Tasks are distributed block-wise: the first ``tasks_per_node`` global
        ranks go to the first allocated node, and so on — matching how the
        paper's experiments place "2 MPI processes among 2 nodes".  The
        per-node task count comes from the *actual* allocation, which may be
        narrower or wider than the requested node count when the job carries
        malleability bounds.
        """
        if not job.allocated_nodes:
            raise ValueError(f"job {job.job_id} has no allocated nodes; schedule it first")
        launch = JobLaunch(job=job)
        tasks_per_node = job.spec.tasks_on(len(job.allocated_nodes))
        rank = 0
        for node_name in job.allocated_nodes:
            if node_name not in self._slurmds:
                raise KeyError(f"no slurmd registered for node {node_name!r}")
            slurmd = self._slurmds[node_name]
            record = slurmd.launch_job_step(
                job, first_global_rank=rank, ntasks=tasks_per_node, base_environ=environ
            )
            launch.steps[node_name] = record
            rank += tasks_per_node
        return launch

    def terminate(self, job: Job) -> None:
        """Terminate the job's steps on every node (post_term + release_resources)."""
        for node_name in job.allocated_nodes:
            slurmd = self._slurmds.get(node_name)
            if slurmd is not None:
                slurmd.job_step_completed(job.job_id)
