"""Scenario runner: executes a workload under the Serial or DROM scenario.

This is the glue that turns all the substrates into the paper's experiments:

* the :class:`~repro.slurm.slurmctld.Slurmctld` controller schedules the
  workload's jobs on the two-node partition;
* each node's :class:`~repro.slurm.slurmd.Slurmd` runs the DROM-enabled
  task/affinity plugin and launches the tasks with ``DROM_PreInit``;
* every launched task becomes an
  :class:`~repro.runtime.process.ApplicationProcess` (DLB registration, an
  OpenMP/OmpSs runtime, PMPI interception);
* the application models advance step by step on the discrete-event engine,
  polling DROM at every step boundary — so a mask written by the plugin is
  adopted within one iteration, exactly like the paper's polling integration;
* job completions run ``DROM_PostFinalize`` / ``release_resources``, which
  expand the surviving jobs (the CoreNeuron expansion of Figure 13).

Two scenarios are provided, matching Section 6:

* **Serial** (``drom_enabled=False``): stock SLURM; a job waits in the queue
  until enough CPUs are entirely free.
* **DROM** (``drom_enabled=True``): malleable jobs are co-allocated and the
  node CPUs are repartitioned on the fly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, NamedTuple

from repro.apps.base import ApplicationModel, RankWorkPlan, WorkStep
from repro.core.errors import ProcessNotRegisteredError
from repro.core.stats import ProcessStats, StatsModule
from repro.cpuset.distribution import DistributionPolicy
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import ClusterTopology, NodeTopology
from repro.metrics.collect import WorkloadMetrics
from repro.metrics.tracing import MaskChangeRecord, StepRecord, StepRun, Tracer
from repro.obs.sched import ClusterProbe, SchedTimeline
from repro.runtime.mpi import MpiCommunicator
from repro.runtime.process import ApplicationProcess, ProcessSpec, ThreadModel
from repro.sim.engine import SimulationEngine, Timeout, WakeAt
from repro.slurm.jobs import Job, JobSpec
from repro.slurm.launcher import JobLaunch, Srun
from repro.slurm.slurmd import Slurmd
from repro.slurm.slurmctld import Slurmctld
from repro.workload.workloads import Workload, WorkloadJob

SERIAL = "serial"
DROM = "drom"


@dataclass
class RankExecution:
    """Run-time state of one MPI rank of a running job."""

    rank: int
    node: NodeTopology
    process: ApplicationProcess
    plan: RankWorkPlan


@dataclass
class JobExecution:
    """Run-time state of a whole running job."""

    workload_job: WorkloadJob
    job: Job
    launch: JobLaunch
    comm: MpiCommunicator
    ranks: list[RankExecution] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.workload_job.label

    @property
    def model(self) -> ApplicationModel:
        return self.workload_job.app.model

    def finished(self) -> bool:
        return all(rank.plan.finished for rank in self.ranks)


@dataclass
class ScenarioResult:
    """Everything one scenario run produces.

    ``replayed`` distinguishes a live execution from a
    :class:`~repro.traces.query.ScenarioReplay` served by the store tiers
    (which mirrors this reporting interface and marks itself ``True``).
    """

    #: Class-level marker, not a field: every live result really executed.
    replayed = False

    scenario: str
    workload: Workload
    metrics: WorkloadMetrics
    tracer: Tracer
    jobs: dict[str, Job]
    #: Final simulated time (equals the workload makespan end).
    end_time: float
    #: DROM statistics (Section 7 future work): per job label, the per-rank
    #: counters accumulated by the stats module while the job ran.
    job_stats: dict[str, list[ProcessStats]] = field(default_factory=dict)
    #: Engine events dispatched during the run (perf-harness throughput
    #: denominator; not part of any serialised artifact).
    events_executed: int = 0
    #: Per-rank step advances across all jobs (telemetry counter; a step
    #: advanced for three ranks counts three).
    steps_advanced: int = 0
    #: Batched wakes of the fast path (0 when ``batching=False`` ran the
    #: single-step reference loop).
    batches_executed: int = 0
    #: Per-rank step prices computed (telemetry counter).  The reference
    #: loop prices every step once per rank, so it equals ``steps_advanced``
    #: there; the fast path prices a fold once per distinct (masks,
    #: interference) input and re-uses it across batches.
    steps_priced: int = 0
    #: Scheduler-level observability: the event-driven queue/allocation/
    #: lifecycle series recorded by the cluster probe (see
    #: :mod:`repro.obs.sched`).  Deterministic, so it persists alongside the
    #: tracer in the trace artifact (since format v4).
    sched: SchedTimeline = field(default_factory=SchedTimeline)

    def job(self, label: str) -> Job:
        return self.jobs[label]

    def job_utilisation(self, label: str) -> float:
        """Aggregate CPU utilisation of one job (useful / owned CPU-seconds)."""
        records = self.job_stats.get(label, [])
        owned = sum(r.cpu_seconds_owned for r in records)
        useful = sum(r.useful_time for r in records)
        return min(1.0, useful / owned) if owned > 0 else 0.0


class ScenarioRunner:
    """Runs workloads under one scenario (Serial or DROM).

    Parameters
    ----------
    drom_enabled:
        False = Serial baseline, True = DROM co-allocation.
    cluster:
        Partition to run on; defaults to the paper's two MN3 nodes.
    policy:
        Mask-distribution policy of the task/affinity plugin (defaults to the
        paper's socket-aware equipartition).
    interference:
        Optional hook ``interference(job_label, node_name, co_runners) ->
        float`` returning a >=1 slow-down factor applied while other jobs run
        on the same node.  Default: no interference (the paper measured no
        visible interference between the co-located applications).
    node_policy:
        Optional :class:`~repro.slurm.policies.NodeSelectionPolicy` forwarded
        to slurmctld (the DROM-aware "victim node" selection of the paper's
        future work).  May also be a registry name (``"first-fit"``,
        ``"least-allocated"``, ``"lowest-utilisation"``); names are resolved
        per run, and ``"lowest-utilisation"`` is wired to the run's live DROM
        statistics modules so the controller really does pick the nodes whose
        occupants measure the lowest utilisation.
    backfill:
        Forwarded to :class:`~repro.slurm.slurmctld.Slurmctld`: jobs behind a
        blocked job may start if they fit.
    batching:
        True (the default) runs the batched fast path: stretches of steps
        that provably cannot observe a mask change, a scheduler event or a
        co-runner change are priced per uniform segment and advanced with a
        single engine wake, emitting on wake runs of steps that expand to the
        same per-step records.
        False runs the one-yield-per-step reference loop.  Both paths
        produce byte-identical metrics, traces and stored artifacts — the
        ``bench_perf_core`` harness gates every release on it.
    """

    def __init__(
        self,
        drom_enabled: bool,
        cluster: ClusterTopology | None = None,
        policy: DistributionPolicy | None = None,
        interference: Callable[[str, str, list[str]], float] | None = None,
        node_policy=None,
        backfill: bool = False,
        batching: bool = True,
    ) -> None:
        self.drom_enabled = drom_enabled
        self.cluster = cluster or ClusterTopology.marenostrum3(2)
        self.policy = policy
        self.interference = interference
        self.node_policy = node_policy
        self.backfill = backfill
        self.batching = batching

    @property
    def scenario(self) -> str:
        return DROM if self.drom_enabled else SERIAL

    # -- public API -------------------------------------------------------------------

    def run(self, workload: Workload, trace: bool = True) -> ScenarioResult:
        """Execute ``workload`` to completion and return its metrics."""
        state = _RunState(self, workload, trace)
        state.start()
        state.engine.run()
        if not state.ctld.all_done():
            pending = [j.spec.name for j in state.ctld.pending_jobs()]
            raise RuntimeError(
                f"workload {workload.name!r} did not complete; still pending: {pending}"
            )
        metrics = WorkloadMetrics.from_jobs(state.ctld.jobs.values())
        return ScenarioResult(
            scenario=self.scenario,
            workload=workload,
            metrics=metrics,
            tracer=state.tracer,
            jobs={label: job for label, job in state.jobs_by_label.items()},
            end_time=state.engine.now,
            job_stats=state.job_stats,
            events_executed=state.engine.events_executed,
            steps_advanced=state.steps_advanced,
            batches_executed=state.batches_executed,
            steps_priced=state.steps_priced,
            sched=state.probe.timeline(),
        )


def run_both_scenarios(
    workload: Workload,
    cluster: ClusterTopology | None = None,
    policy: DistributionPolicy | None = None,
    interference: Callable[[str, str, list[str]], float] | None = None,
    node_policy=None,
    backfill: bool = False,
    batching: bool = True,
) -> dict[str, ScenarioResult]:
    """Run the Serial and DROM scenarios of the same workload.

    Every runner option is forwarded to *both* :class:`ScenarioRunner`\\ s, so
    a comparison configured with e.g. ``backfill=True`` really compares two
    backfilling controllers (historically only ``cluster``/``policy`` passed
    through and the rest were silently dropped).
    """
    results = {}
    for drom_enabled in (False, True):
        runner = ScenarioRunner(
            drom_enabled,
            cluster=cluster,
            policy=policy,
            interference=interference,
            node_policy=node_policy,
            backfill=backfill,
            batching=batching,
        )
        results[runner.scenario] = runner.run(workload)
    return results


def _utilisation(partition, initial_threads: int, nthreads: int) -> list[float]:
    """Per-thread busy fraction of one step with ``nthreads`` threads."""
    utilisation = partition.thread_utilisation(initial_threads, nthreads)
    return utilisation if partition.is_static else [1.0] * nthreads


class _Piece(NamedTuple):
    """A stretch of one rank's priced steps that are alike but for their
    start: its per-step stats entry and step-run fields, built once per
    pricing and shared by every run emitted from it."""

    step: WorkStep
    scale: float
    #: ``(useful, idle, ncpus, seconds)`` of one step.
    stats: tuple[float, float, int, float]
    #: The :class:`StepRun` fields from ``duration`` to ``work_units``.
    fields: tuple

    @classmethod
    def of(cls, step, step_duration, scale, nthreads, utilisation, ipc) -> "_Piece":
        busy = sum(utilisation) * scale * step_duration
        idle = max(0.0, nthreads * step_duration - busy)
        utilisation = tuple(u * scale for u in utilisation)
        return cls(
            step,
            scale,
            (busy, idle, nthreads, step_duration),
            (step_duration, step.phase.name, nthreads, utilisation, ipc, step.work_units),
        )


class _RunState:
    """Mutable state of one scenario execution (one engine, one SLURM stack)."""

    def __init__(self, runner: ScenarioRunner, workload: Workload, trace: bool) -> None:
        self.runner = runner
        self.workload = workload
        self.trace = trace
        self.engine = SimulationEngine()
        # Stats modules must exist before the controller: a by-name node
        # policy may need the live utilisation data they collect.
        self.slurmds: dict[str, Slurmd] = {
            node.name: Slurmd(node, drom_enabled=runner.drom_enabled, policy=runner.policy)
            for node in runner.cluster.nodes
        }
        self.stats: dict[str, StatsModule] = {
            name: StatsModule(slurmd.shmem) for name, slurmd in self.slurmds.items()
        }
        # Event-driven scheduler probe: on by default, cost O(events).
        self.probe = ClusterProbe()
        self.ctld = Slurmctld(
            runner.cluster,
            drom_enabled=runner.drom_enabled,
            backfill=runner.backfill,
            node_policy=self._resolve_node_policy(runner.node_policy),
            probe=self.probe,
        )
        self.srun = Srun(self.slurmds)
        self.tracer = Tracer()
        self.jobs_by_label: dict[str, Job] = {}
        self.workload_jobs_by_id: dict[int, WorkloadJob] = {}
        self.executions: dict[int, JobExecution] = {}
        self.job_stats: dict[str, list[ProcessStats]] = {}
        # -- telemetry counters (observational only; never read back) ------
        #: Per-rank step advances across all jobs.
        self.steps_advanced = 0
        #: Batched wakes of the fast path (stays 0 in the reference loop).
        self.batches_executed = 0
        #: Per-rank step prices computed (equals steps_advanced in the
        #: reference loop; the batched path prices a fold once per input).
        self.steps_priced = 0
        # -- batching bookkeeping (see _execute_batched) ------------------
        #: Submit instants not yet fired, ascending — static fences.
        self._pending_submits: list[float] = []
        #: job_id -> lower bound on the next instant this job can cause a
        #: side effect others observe (its completion).  A batch may never
        #: sleep past another job's fence or a pending submit.
        self._fences: dict[int, float] = {}
        #: job_id -> the wake instant of the job's currently running batch.
        self._batch_end: dict[int, float] = {}
        #: Per-run launch sequence; used as the engine wake priority of each
        #: job's executor so same-instant wakes interleave identically no
        #: matter how (or whether) their sleeps were batched.
        self._launch_seq = 0

    def _resolve_node_policy(self, policy):
        """Build a by-name node policy against this run's statistics."""
        if policy is None or not isinstance(policy, str):
            return policy
        from repro.slurm.policies import build_node_policy

        return build_node_policy(policy, self._node_utilisation)

    def _node_utilisation(self, name: str) -> float | None:
        summary = self.stats[name].node_summary()
        return summary.utilisation if summary.nprocesses else None

    # -- submission & scheduling ----------------------------------------------------------

    def start(self) -> None:
        for wjob in self.workload.jobs:
            self.engine.call_at(wjob.submit_time, self._submit, wjob)
            self._pending_submits.append(max(wjob.submit_time, 0.0))
        self._pending_submits.sort()

    def _submit(self, wjob: WorkloadJob) -> None:
        self._pending_submits.remove(self.engine.now)
        # Per-job resource request: explicit on the workload job, or the app
        # configuration spread over the workload's default node count.
        request = wjob.resource_request(self.workload.nodes)
        spec = JobSpec(
            name=wjob.label,
            nodes=request.nodes,
            ntasks=request.ntasks,
            cpus_per_task=request.cpus_per_task,
            application=wjob.app,
            malleable=wjob.app.model.malleable,
            priority=wjob.priority,
            min_nodes=request.min_nodes,
            max_nodes=request.max_nodes,
        )
        job = self.ctld.submit(spec, time=self.engine.now)
        self.jobs_by_label[wjob.label] = job
        self.workload_jobs_by_id[job.job_id] = wjob
        self._schedule_pass()

    def _schedule_pass(self) -> None:
        for decision in self.ctld.schedule(self.engine.now):
            self._launch(decision.job)
        # A pass may have written new masks (DROM repartitioning).  A running
        # batch priced its steps under the old masks; that is fine — its wake
        # is its next poll — but its *completion fence* may now be stale (an
        # expansion finishes the job earlier than advertised).  Clamp every
        # fence to the job's next wake: the executor re-publishes an exact
        # fence there, and nobody sleeps past an instant that may now matter.
        for job_id, batch_end in self._batch_end.items():
            if batch_end < self._fences.get(job_id, batch_end):
                self._fences[job_id] = batch_end

    # -- launching --------------------------------------------------------------------------

    def _launch(self, job: Job) -> None:
        wjob = self.workload_jobs_by_id[job.job_id]
        launch = self.srun.launch(job)
        comm = MpiCommunicator(size=job.spec.ntasks, job_id=job.job_id)
        execution = JobExecution(workload_job=wjob, job=job, launch=launch, comm=comm)

        # One plan per *requested* task: a request deviating from the Table-1
        # shape re-partitions the same total work over its own rank count.
        # The submitted spec is the single source of the request.
        request = job.spec.request
        plans = wjob.app.model.build_plans(request.effective_config(wjob.app.config))
        for task in launch.tasks():
            node_topology = self.runner.cluster.node(task.node)
            shmem = self.slurmds[task.node].shmem
            spec = ProcessSpec(
                pid=task.pid,
                node=task.node,
                mpi_rank=task.global_rank,
                thread_model=wjob.thread_model if wjob.app.model.malleable else ThreadModel.NONE,
                initial_mask=task.mask,
            )
            process = ApplicationProcess(spec, shmem, comm=comm, environ=task.environ)
            process.start()
            if self.trace:
                self._install_mask_tracer(wjob.label, task.global_rank, process)
            execution.ranks.append(
                RankExecution(
                    rank=task.global_rank,
                    node=node_topology,
                    process=process,
                    plan=plans[task.global_rank],
                )
            )
        self.executions[job.job_id] = execution
        # Until the executor's first decision (an immediate event), the job
        # may do anything "now": a conservative fence no batch can cross.
        self._fences[job.job_id] = self.engine.now
        self._batch_end[job.job_id] = self.engine.now
        self._launch_seq += 1
        body = (
            self._execute_batched(execution)
            if self.runner.batching
            else self._execute(execution)
        )
        self.engine.spawn(
            body,
            name=f"job-{job.job_id}-{wjob.label}",
            priority=self._launch_seq,
        )

    def _install_mask_tracer(
        self, label: str, rank: int, process: ApplicationProcess
    ) -> None:
        """Record mask changes with the team size they replace."""
        previous = [process.current_mask.count()]

        def on_change(mask: CpuSet) -> None:
            new_threads = mask.count()
            self.tracer.record_mask_change(
                MaskChangeRecord(
                    job=label,
                    rank=rank,
                    time=self.engine.now,
                    old_threads=previous[0],
                    new_threads=new_threads,
                )
            )
            previous[0] = new_threads

        process.on_mask_change(on_change)

    # -- execution ------------------------------------------------------------------------------

    def _execute(self, execution: JobExecution):
        model = execution.model
        total_ranks = execution.job.spec.ntasks
        while not execution.finished():
            # Malleability point: every rank polls DROM before the next
            # iteration (PMPI / OMPT / task-scheduling point).
            if model.malleable:
                for rank in execution.ranks:
                    rank.process.poll_malleability()

            durations: list[float] = []
            for rank in execution.ranks:
                mask = rank.process.current_mask
                interference = self._interference(execution, rank)
                durations.append(
                    model.step_time(
                        rank.plan,
                        mask,
                        rank.node,
                        total_ranks=total_ranks,
                        interference=interference,
                    )
                )
            self.steps_priced += len(durations)
            step_duration = max(durations)
            start = self.engine.now
            yield Timeout(step_duration)

            for rank, duration in zip(execution.ranks, durations):
                mask = rank.process.current_mask
                nthreads = mask.count()
                utilisation = model.profile.partition.thread_utilisation(
                    rank.plan.initial_threads, nthreads
                )
                if not model.profile.partition.is_static:
                    utilisation = [1.0] * nthreads
                # Ranks that finish their step early idle in MPI until the
                # slowest rank catches up.
                scale = duration / step_duration if step_duration > 0 else 1.0
                step = rank.plan.current_step()
                if self.trace:
                    self.tracer.record_step(
                        StepRecord(
                            job=execution.label,
                            rank=rank.rank,
                            node=rank.node.name,
                            start=start,
                            duration=step_duration,
                            phase=step.phase.name,
                            nthreads=nthreads,
                            thread_utilisation=tuple(u * scale for u in utilisation),
                            ipc=model.step_ipc(rank.plan, mask, rank.node),
                            work_units=step.work_units,
                        )
                    )
                # DROM statistics module: useful vs idle thread-seconds and
                # CPU ownership, later consumable by scheduling policies.
                node_stats = self.stats[rank.node.name]
                busy_thread_seconds = sum(utilisation) * scale * step_duration
                owned_thread_seconds = nthreads * step_duration
                node_stats.record_compute(
                    rank.process.spec.pid,
                    useful_time=busy_thread_seconds,
                    idle_time=max(0.0, owned_thread_seconds - busy_thread_seconds),
                )
                node_stats.record_ownership(rank.process.spec.pid, nthreads, step_duration)
                rank.plan.advance()
                self.steps_advanced += 1
        self._complete(execution)

    def _batch_horizon(self, job_id: int) -> float | None:
        """Earliest instant an *external* side effect may occur, or None.

        A batch for ``job_id`` may extend to this instant (inclusive) but
        never past it: pending submits and other jobs' completions are the
        only events that write masks, change co-runner sets or read the
        statistics modules.  Other jobs' intermediate wakes are inert — they
        only append trace/stats records nobody reads mid-flight — so they do
        not bound the batch, which is what lets co-running jobs skip ahead
        together instead of leapfrogging one step at a time.
        """
        horizon = self._pending_submits[0] if self._pending_submits else None
        for other_id, fence in self._fences.items():
            if other_id == job_id:
                continue
            if horizon is None or fence < horizon:
                horizon = fence
        return horizon

    def _execute_batched(self, execution: JobExecution):
        """Batched step advancement: the fast path of :meth:`_execute`.

        Each loop iteration takes as many upcoming steps as provably fit
        before the batch horizon (masks, interference and stats readers
        cannot change inside the window), sleeps once to the final step
        boundary, then emits on wake step runs and counted stats entries
        that stand for exactly the records the single-step reference loop
        would have emitted step by step — same floats, same accumulation
        order, byte-identical artifacts.

        Steps are priced once per distinct pricing input, not once per
        batch: the executor keeps the fold of its last pricing (the
        absolute boundaries of the per-step max, and per rank the uniform
        pieces between its ``cuts``) and consumes it from offset ``o`` for
        as long as the masks and interference factors stay the same and
        each wake lands on the fold's own boundary ``o - 1``.  The tail of
        a left fold is the left fold of the tail started from that
        boundary, so the cached boundaries are the very floats re-pricing
        from ``now`` would give.
        """
        model = execution.model
        total_ranks = execution.job.spec.ntasks
        engine = self.engine
        job_id = execution.job.job_id
        label = execution.label
        ranks = execution.ranks
        partition = model.profile.partition
        trace = self.trace
        # The priced fold and the inputs it was priced under.
        key = None
        boundaries: list[float] = []
        #: Fold offsets at which some rank's steps stop being uniform, and
        #: per rank the uniform piece ending at each of them.
        cuts: list[int] = []
        pieces: list[list[_Piece]] = []
        o = 0
        while not execution.finished():
            if model.malleable:
                for rank in ranks:
                    rank.process.poll_malleability()

            # Frozen batch inputs (can only change at fence events).
            masks = [rank.process.current_mask for rank in ranks]
            interferences = [self._interference(execution, rank) for rank in ranks]
            batch_start = engine.now
            # Re-price from ``now`` unless the inputs match the fold's key
            # and this wake landed exactly on its boundary ``o - 1``.
            if (masks, interferences) != key or boundaries[o - 1] != batch_start:
                key = (masks, interferences)
                remaining = min(rank.plan.remaining_steps for rank in ranks)
                per_rank = [
                    model.step_times(
                        rank.plan,
                        remaining,
                        mask,
                        rank.node,
                        total_ranks=total_ranks,
                        interference=interference,
                    )
                    for rank, mask, interference in zip(ranks, masks, interferences)
                ]
                # ``step_times`` prices one value per plan segment, so every
                # rank's durations and their per-step maximum are constant
                # between consecutive segment ends of any rank.
                plan_runs = [rank.plan.runs(remaining) for rank in ranks]
                cuts = sorted(
                    {cut for runs in plan_runs for cut in accumulate(n for _, n in runs)}
                )
                step_durations: list[float] = []
                first = 0
                for cut in cuts:
                    step_durations += [max(d[first] for d in per_rank)] * (cut - first)
                    first = cut
                # The boundaries are the left fold ``accumulate`` computes —
                # the exact "now + duration" addition chain the engine clock
                # performs when the reference loop sleeps one step at a time.
                boundaries = list(accumulate(step_durations, initial=batch_start))
                del boundaries[0]
                pieces = []
                for rank, mask, durations, runs in zip(ranks, masks, per_rank, plan_runs):
                    initial_threads = rank.plan.initial_threads
                    nthreads = mask.count()
                    utilisation = _utilisation(partition, initial_threads, nthreads)
                    runs = iter(runs)
                    rank_pieces: list[_Piece] = []
                    first = segment_end = 0
                    for cut in cuts:
                        if first == segment_end:
                            step, n = next(runs)
                            segment_end += n
                            ipc = trace and model.step_ipc_for_phase(
                                step.phase, mask, rank.node, initial_threads
                            )
                        step_duration = step_durations[first]
                        # Ranks that finish their step early idle in MPI
                        # until the slowest rank catches up.
                        scale = durations[first] / step_duration if step_duration > 0 else 1.0
                        rank_pieces.append(
                            _Piece.of(step, step_duration, scale, nthreads, utilisation, ipc)
                        )
                        first = cut
                    pieces.append(rank_pieces)
                o = 0
                self.steps_priced += remaining * len(ranks)

            # Choose the batch size: the longest run of step boundaries from
            # ``o`` that stays *strictly before* the horizon; at least one
            # step.  Strictness matters: an event exactly at the batch wake
            # runs first (priority 0 beats every executor), and in the
            # reference loop it would observe the statistics of every
            # earlier step of the window — so those steps must already be
            # recorded, i.e. the batch must wake before the event.  The
            # single forced step that reaches or crosses the horizon is
            # exactly what the reference loop does: mask writes land
            # mid-step and are seen on wake.
            horizon = self._batch_horizon(job_id)
            if horizon is None:
                k = len(boundaries) - o
            else:
                k = (bisect_left(boundaries, horizon, o) - o) or 1
            end = o + k
            # Publish this job's completion fence — the full fold, exact
            # under the current masks; shrinks only delay it, and expansions
            # clamp it back to the batch wake at the event that writes them
            # (_schedule_pass).
            batch_end = boundaries[end - 1]
            self._fences[job_id] = boundaries[-1]
            self._batch_end[job_id] = batch_end
            self.batches_executed += 1

            yield WakeAt(batch_end)

            # On wake, emit what the reference loop would have recorded at
            # each intermediate boundary: one step run and one counted stats
            # entry per piece of the window.
            for rank, mask, rank_pieces in zip(ranks, masks, pieces):
                # [piece, first step's start, step count] per window piece.
                window = []
                start = batch_start
                first = o
                index = bisect_right(cuts, o)
                while first < end:
                    stop = min(cuts[index], end)
                    window.append([rank_pieces[index], start, stop - first])
                    start = boundaries[stop - 1]
                    first = stop
                    index += 1
                # The reference loop reads the mask again *after* each yield;
                # only the final step of a batch can observe a different one
                # (a forced single step crossing an event, where a process
                # whose runtime reads the shared memory directly sees the
                # newly assigned mask immediately).  Split that step off into
                # a piece of its own, derived from the wake mask.
                wake_mask = rank.process.current_mask
                if wake_mask != mask:
                    piece = window[-1][0]
                    window[-1][2] -= 1
                    initial_threads = rank.plan.initial_threads
                    nthreads = wake_mask.count()
                    utilisation = _utilisation(partition, initial_threads, nthreads)
                    ipc = model.step_ipc_for_phase(
                        piece.step.phase, wake_mask, rank.node, initial_threads
                    )
                    piece = _Piece.of(
                        piece.step, piece.stats[3], piece.scale, nthreads, utilisation, ipc
                    )
                    start = boundaries[end - 2] if end - 1 > o else batch_start
                    window.append([piece, start, 1])
                if trace:
                    self.tracer.record_steps(
                        [
                            StepRun(label, rank.rank, rank.node.name, start, *piece.fields, n)
                            for piece, start, n in window
                            if n
                        ]
                    )
                self.stats[rank.node.name].record_compute_batch(
                    rank.process.spec.pid, [(*piece.stats, n) for piece, _, n in window if n]
                )
                rank.plan.advance_many(k)
                self.steps_advanced += k
            o = end
        self._complete(execution)

    def _interference(self, execution: JobExecution, rank: RankExecution) -> float:
        if self.runner.interference is None:
            return 1.0
        slurmd = self.slurmds[rank.node.name]
        co_runners = [
            self.ctld.jobs[jid].spec.name
            for jid in slurmd.running_job_ids()
            if jid != execution.job.job_id
        ]
        return self.runner.interference(execution.label, rank.node.name, co_runners)

    # -- completion ----------------------------------------------------------------------------------

    def _complete(self, execution: JobExecution) -> None:
        job = execution.job
        # Snapshot the DROM statistics before the processes unregister.
        snapshots: list[ProcessStats] = []
        for rank in execution.ranks:
            node_stats = self.stats[rank.node.name]
            try:
                record = node_stats.process_stats(rank.process.spec.pid)
                record.mask_changes = rank.process.dlb.updates
                snapshots.append(record)
            except (ProcessNotRegisteredError, KeyError):
                # A rank that never computed (or was already finalised) has no
                # stats record; anything else is a real error and propagates.
                pass
            node_stats.drop(rank.process.spec.pid)
        self.job_stats[execution.label] = snapshots
        for rank in execution.ranks:
            rank.process.finish()
        # post_term + release_resources: surviving jobs may expand.
        self.srun.terminate(job)
        self.ctld.job_completed(job.job_id, self.engine.now)
        del self.executions[job.job_id]
        self._fences.pop(job.job_id, None)
        self._batch_end.pop(job.job_id, None)
        # Freed resources may let queued jobs start (the Serial scenario's
        # analytics job starts here).
        self._schedule_pass()
