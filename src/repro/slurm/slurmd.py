"""slurmd — the per-node daemon.

slurmd owns the node-local pieces: the DLB shared memory segment, an attached
DROM administrator, and the DROM-enabled task/affinity plugin.  When srun asks
it to launch a job step it runs the plugin's ``launch_request`` (computing the
masks of new *and* running tasks), forks a :class:`Slurmstepd` for the step,
and later drives ``post_term`` / ``release_resources`` when tasks and jobs
finish.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.drom import DromAdmin, attach_admin
from repro.core.shmem import NodeSharedMemory
from repro.cpuset.distribution import DistributionPolicy
from repro.cpuset.topology import NodeTopology
from repro.slurm.jobs import Job
from repro.slurm.slurmstepd import Slurmstepd, TaskLaunch
from repro.slurm.task_affinity import TaskAffinityPlugin


@dataclass
class StepRecord:
    """A job step hosted by this node."""

    job_id: int
    stepd: Slurmstepd
    launches: list[TaskLaunch]


class Slurmd:
    """Node daemon: one instance per compute node.

    Parameters
    ----------
    topology:
        The node managed by this daemon.
    drom_enabled:
        Whether the DROM integration is active (False reproduces the stock
        SLURM Serial baseline).
    policy:
        Mask-distribution policy for co-allocated jobs.
    """

    def __init__(
        self,
        topology: NodeTopology,
        drom_enabled: bool = True,
        policy: DistributionPolicy | None = None,
    ) -> None:
        self.topology = topology
        self.name = topology.name
        self.shmem = NodeSharedMemory(topology)
        self.admin: DromAdmin = attach_admin(self.shmem)
        self.plugin = TaskAffinityPlugin(
            topology, self.admin, policy=policy, drom_enabled=drom_enabled
        )
        self.drom_enabled = drom_enabled
        self._steps: dict[int, StepRecord] = {}

    # -- job step launch -----------------------------------------------------------

    def launch_job_step(
        self,
        job: Job,
        first_global_rank: int,
        ntasks: int | None = None,
        base_environ: dict[str, str] | None = None,
    ) -> StepRecord:
        """Launch the local tasks of ``job`` on this node (Figure 2 flow).

        ``ntasks`` is the task count of this node's step; it defaults to the
        spec's nominal ``tasks_per_node`` but srun passes the count implied by
        the actual allocation (shrunk/widened jobs place more/fewer tasks per
        node than requested).
        """
        if job.job_id in self._steps:
            raise ValueError(f"job {job.job_id} already has a step on node {self.name}")
        plan = self.plugin.launch_request(
            job_id=job.job_id,
            ntasks=ntasks if ntasks is not None else job.spec.tasks_per_node,
            cpus_per_task=job.spec.cpus_per_task,
            malleable=job.spec.malleable,
        )
        stepd = Slurmstepd(job.job_id, self.name, self.plugin, base_environ)
        launches = stepd.launch_tasks(
            [placement.mask for placement in plan.new_tasks],
            first_global_rank=first_global_rank,
        )
        record = StepRecord(job_id=job.job_id, stepd=stepd, launches=launches)
        self._steps[job.job_id] = record
        return record

    def running_job_ids(self) -> list[int]:
        return list(self._steps.keys())

    # -- job completion ---------------------------------------------------------------

    def job_step_completed(self, job_id: int) -> None:
        """Handle the end of a job's step on this node.

        Runs ``post_term`` for every task and then ``release_resources``,
        which may expand the masks of the remaining jobs.
        """
        record = self._steps.pop(job_id, None)
        if record is None:
            return
        record.stepd.step_terminated()
        self.plugin.release_resources(job_id)
