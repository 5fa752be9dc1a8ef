"""slurmctld — the cluster controller.

The controller keeps the pending-job queue and decides *which nodes* each job
runs on.  The paper deliberately leaves slurmctld's scheduling policy
unchanged ("the purpose is to give a proof of integration of DROM APIs, not to
present new scheduling policies"), so the policy here is plain FCFS with
priorities; the only DROM-specific addition is the co-allocation rule: a
malleable job may be placed on nodes that are already busy with other
malleable DROM jobs, as long as every task can still get at least one CPU
(no oversubscription), because the task/affinity plugin will repartition the
node CPUs among the co-allocated jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpuset.topology import ClusterTopology
from repro.slurm.jobs import Job, JobSpec, JobState
from repro.slurm.queue import JobQueue


@dataclass
class NodeState:
    """Controller-side view of one node."""

    name: str
    ncpus: int
    #: job_id -> (tasks on this node, cpus requested on this node, malleable)
    running: dict[int, tuple[int, int, bool]] = field(default_factory=dict)

    @property
    def allocated_cpus(self) -> int:
        return sum(cpus for _tasks, cpus, _m in self.running.values())

    @property
    def running_tasks(self) -> int:
        return sum(tasks for tasks, _cpus, _m in self.running.values())

    @property
    def idle(self) -> bool:
        return not self.running

    def all_malleable(self) -> bool:
        return all(m for _t, _c, m in self.running.values())


@dataclass
class SchedulingDecision:
    """One job the controller decided to start, with its node list."""

    job: Job
    nodes: tuple[str, ...]
    #: True when the job is being co-allocated with running jobs (DROM path).
    co_allocated: bool


class Slurmctld:
    """Cluster controller.

    Parameters
    ----------
    cluster:
        Hardware description of the managed partition.
    drom_enabled:
        Enables the co-allocation rule described above.
    backfill:
        When True, jobs behind a blocked job may start if they fit (simple
        backfilling without reservations).  The paper's workloads only have
        two jobs, so this mainly matters for the extended examples.
    node_policy:
        Optional :class:`~repro.slurm.policies.NodeSelectionPolicy` ordering
        the candidate nodes of a job (the paper's future-work "choose as
        victim the nodes with lower utilization").  ``None`` keeps the stock
        configuration order.
    probe:
        Optional :class:`~repro.obs.sched.ClusterProbe` notified at every
        job lifecycle edge (submit, launch, completion, cancellation).  The
        controller only ever *pushes* events to it — nothing here is polled,
        so scheduling cost is unchanged when no probe is attached.
    """

    def __init__(
        self,
        cluster: ClusterTopology,
        drom_enabled: bool = True,
        backfill: bool = False,
        node_policy=None,
        probe=None,
    ) -> None:
        self.cluster = cluster
        self.drom_enabled = drom_enabled
        self.backfill = backfill
        self.node_policy = node_policy
        self.probe = probe
        self.queue = JobQueue()
        self.nodes: dict[str, NodeState] = {
            node.name: NodeState(name=node.name, ncpus=node.ncpus)
            for node in cluster.nodes
        }
        self.jobs: dict[int, Job] = {}

    # -- submission ----------------------------------------------------------------

    def submit(self, spec: JobSpec, time: float) -> Job:
        """Submit a job at ``time``; it is queued pending scheduling.

        Rejected when no placement candidate fits the partition — note the
        narrowest *usable* width can exceed ``min_nodes`` when intermediate
        counts don't divide ``ntasks`` evenly — or when the placement logic
        itself cannot start the job on a **pristine** (fully idle) partition:
        admission is a dry run of :meth:`_place` against fresh node states,
        so the predicate can never drift from the placement arms (malleable
        jobs under DROM only need a CPU per task because the dry run's empty
        nodes satisfy the co-allocation arm, exactly like the scheduler).
        """
        narrowest = min(spec.placement_candidates())
        if narrowest > self.cluster.nnodes:
            raise ValueError(
                f"job {spec.name!r} needs at least {narrowest} "
                f"node(s) but the partition has only {self.cluster.nnodes}"
            )
        pristine = [
            NodeState(name=node.name, ncpus=node.ncpus)
            for node in self.cluster.nodes
        ]
        if self._place(spec, pristine) is None:
            raise ValueError(
                f"job {spec.name!r} can never be placed: every usable width "
                f"needs more CPUs per node than the partition's nodes have"
            )
        job = Job(spec=spec)
        job.mark_submitted(time)
        self.jobs[job.job_id] = job
        self.queue.push(job)
        if self.probe is not None:
            self.probe.job_submitted(job, time)
        return job

    def cancel(self, job_id: int, time: float) -> Job:
        job = self.jobs[job_id]
        was_pending = job.state is JobState.PENDING
        if was_pending:
            self.queue.remove(job_id)
        job.mark_cancelled(time)
        if self.probe is not None:
            self.probe.job_cancelled(job, time, was_pending)
        return job

    # -- scheduling -------------------------------------------------------------------

    def schedule(self, time: float) -> list[SchedulingDecision]:
        """One scheduling pass: start every queued job that fits (FCFS).

        Started jobs are marked RUNNING with ``time`` as their start time and
        removed from the queue; the caller (the workload runner / srun) is
        responsible for actually launching their tasks through slurmd.
        """
        decisions: list[SchedulingDecision] = []
        blocked = False
        skipped: list[Job] = []
        while self.queue:
            job = self.queue.pop()
            if blocked and not self.backfill:
                skipped.append(job)
                continue
            placement = self._select_nodes(job)
            if placement is None:
                job.pending_reason = "Resources"
                skipped.append(job)
                blocked = True
                continue
            nodes, co_allocated = placement
            self._commit(job, nodes)
            job.mark_started(time, nodes)
            decisions.append(
                SchedulingDecision(job=job, nodes=nodes, co_allocated=co_allocated)
            )
            if self.probe is not None:
                # Post-commit states: the samples see the new allocation (a
                # shrunk/widened grant shows as the actual node count).
                self.probe.job_started(
                    job, time, [self.nodes[n] for n in nodes], co_allocated
                )
        for job in skipped:
            self.queue.push(job)
        return decisions

    def _select_nodes(self, job: Job) -> tuple[tuple[str, ...], bool] | None:
        """Pick nodes for ``job`` or return ``None`` if it cannot start now."""
        return self._place(job.spec, self._ordered_nodes())

    def _place(
        self, spec: JobSpec, ordered_states: list[NodeState]
    ) -> tuple[tuple[str, ...], bool] | None:
        """Try to place ``spec`` on the given node states.

        This is the single source of placement truth: scheduling runs it
        against the live node states (in policy order), and admission dry-runs
        it against a pristine copy of the partition.

        Jobs of different sizes coexist: each candidate node count of the job
        (its requested ``nodes``, widened up to ``max_nodes`` or shrunk down
        to ``min_nodes`` for malleable requests; rigid jobs have exactly one
        candidate) is tried widest-first, and per-node capacity is checked
        with the task/CPU counts *of that node count* — so a 1-node analytics
        job packs beside the leftovers of a 4-node simulation on a partly-used
        partition.
        """
        # First preference: exclusive placement on nodes with enough free CPUs
        # (this is all stock SLURM can do).
        for nnodes in spec.placement_candidates():
            cpus_needed = spec.cpus_per_node_on(nnodes)
            free_nodes = [
                state.name
                for state in ordered_states
                if state.ncpus - state.allocated_cpus >= cpus_needed
            ]
            if len(free_nodes) >= nnodes:
                return tuple(free_nodes[:nnodes]), False

        # DROM path: co-allocate with running malleable jobs.  Never widen
        # beyond the requested node count here — widening happens only on the
        # exclusive path above (nodes with enough *free* CPUs), so a job never
        # grabs extra nodes by squeezing in beside other jobs.
        if self.drom_enabled and spec.malleable:
            for nnodes in spec.placement_candidates(expand=False):
                tasks = spec.tasks_on(nnodes)
                cpus_needed = tasks * spec.cpus_per_task
                candidates = []
                for state in ordered_states:
                    fits_free = state.ncpus - state.allocated_cpus >= cpus_needed
                    fits_shared = (
                        state.all_malleable()
                        and state.running_tasks + tasks <= state.ncpus
                    )
                    if fits_free or fits_shared:
                        candidates.append(state.name)
                if len(candidates) >= nnodes:
                    return tuple(candidates[:nnodes]), True
        return None

    def _ordered_nodes(self) -> list[NodeState]:
        states = list(self.nodes.values())
        if self.node_policy is None:
            return states
        return list(self.node_policy.order(states))

    def _commit(self, job: Job, nodes: tuple[str, ...]) -> None:
        # Granted node count may differ from the requested one (malleability
        # bounds), so per-node bookkeeping uses the actual allocation.
        tasks = job.spec.tasks_on(len(nodes))
        cpus = tasks * job.spec.cpus_per_task
        for name in nodes:
            self.nodes[name].running[job.job_id] = (tasks, cpus, job.spec.malleable)

    # -- completion ---------------------------------------------------------------------

    def job_completed(self, job_id: int, time: float) -> Job:
        """Mark a running job completed and free its controller-side resources."""
        job = self.jobs[job_id]
        job.mark_completed(time)
        freed = [
            state for state in self.nodes.values() if job_id in state.running
        ]
        for state in freed:
            state.running.pop(job_id, None)
        if self.probe is not None:
            # Post-release states: the samples show the freed CPUs.
            self.probe.job_completed(job, time, freed)
        return job

    # -- queries --------------------------------------------------------------------------

    def pending_jobs(self) -> list[Job]:
        return self.queue.jobs()

    def all_done(self) -> bool:
        return all(job.state.is_terminal() for job in self.jobs.values())
