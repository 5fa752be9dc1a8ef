"""slurmstepd — the per-step daemon that actually launches tasks.

In SLURM, slurmd forks one slurmstepd per job step and node; slurmstepd sets
up the environment, applies the CPU mask computed by the task/affinity plugin
(``pre_launch``) and execs the task.  When the task ends it runs the plugin's
``post_term``.  In this reproduction the "exec" step returns a
:class:`TaskLaunch` record that the workload runner turns into an
:class:`~repro.runtime.process.ApplicationProcess`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cpuset.mask import CpuSet
from repro.slurm.task_affinity import TaskAffinityPlugin

_pid_counter = itertools.count(1000)


def allocate_pid() -> int:
    """Globally unique fake pid for a launched task."""
    return next(_pid_counter)


@dataclass(frozen=True)
class TaskLaunch:
    """Everything the launched task needs to register itself with DLB."""

    job_id: int
    node: str
    task_index: int
    global_rank: int
    pid: int
    mask: CpuSet
    environ: dict[str, str] = field(default_factory=dict)


class Slurmstepd:
    """One job step on one node."""

    def __init__(
        self,
        job_id: int,
        node_name: str,
        plugin: TaskAffinityPlugin,
        base_environ: dict[str, str] | None = None,
    ) -> None:
        self.job_id = job_id
        self.node_name = node_name
        self._plugin = plugin
        self._base_environ = dict(base_environ or {})
        self._launches: list[TaskLaunch] = []
        self._terminated: set[int] = set()

    # -- (2) pre_launch + exec ---------------------------------------------------

    def launch_tasks(self, task_masks: list[CpuSet], first_global_rank: int = 0) -> list[TaskLaunch]:
        """Apply masks and "exec" the local tasks of this step.

        ``task_masks`` comes from the plugin's ``launch_request``; one pid is
        allocated per task and ``DROM_PreInit`` is called for it, producing the
        ``next_environ`` the child inherits.
        """
        if self._launches:
            raise RuntimeError(f"step for job {self.job_id} on {self.node_name} already launched")
        launches: list[TaskLaunch] = []
        for index, _mask in enumerate(task_masks):
            pid = allocate_pid()
            result = self._plugin.pre_launch(self.job_id, index, pid)
            environ = dict(self._base_environ)
            environ.update(result.next_environ)
            environ["SLURM_JOB_ID"] = str(self.job_id)
            environ["SLURM_PROCID"] = str(first_global_rank + index)
            environ["SLURMD_NODENAME"] = self.node_name
            launches.append(
                TaskLaunch(
                    job_id=self.job_id,
                    node=self.node_name,
                    task_index=index,
                    global_rank=first_global_rank + index,
                    pid=pid,
                    mask=CpuSet.parse(result.next_environ["DLB_DROM_PREINIT_MASK"]),
                    environ=environ,
                )
            )
        self._launches = launches
        return list(launches)

    # -- (4) post_term ---------------------------------------------------------------

    def task_terminated(self, task_index: int) -> None:
        """Run the plugin's ``post_term`` for one finished task."""
        if task_index in self._terminated:
            return
        self._plugin.post_term(self.job_id, task_index)
        self._terminated.add(task_index)

    def step_terminated(self) -> None:
        """Finalise every task of the step (idempotent)."""
        for launch in self._launches:
            self.task_terminated(launch.task_index)
