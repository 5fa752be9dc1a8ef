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

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, NamedTuple

from repro.apps.base import ApplicationModel, WorkPlan, WorkStep
from repro.apps.perfmodel import MaskShape
from repro.core.errors import ProcessNotRegisteredError
from repro.core.floats import fold_below, left_sum, repeat_add
from repro.core.stats import ProcessStats, StatsModule
from repro.cpuset.distribution import DistributionPolicy
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import ClusterTopology, NodeTopology
from repro.metrics.collect import WorkloadMetrics
from repro.metrics.tracing import MaskChangeRecord, StepRun, Tracer
from repro.obs.sched import ClusterProbe, SchedTimeline
from repro.runtime.mpi import MpiCommunicator
from repro.runtime.process import ApplicationProcess, ProcessSpec, ThreadModel
from repro.sim.engine import SimulationEngine
from repro.slurm.jobs import Job, JobSpec
from repro.slurm.launcher import Srun
from repro.slurm.policies import build_node_policy
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


@dataclass
class JobExecution:
    """Run-time state of a whole running job."""

    workload_job: WorkloadJob
    job: Job
    #: The work plan every rank runs: ranks step in lockstep, so one cursor.
    plan: WorkPlan
    #: Engine priority of the job's wakes: its launch sequence number, so
    #: same-instant wakes interleave identically however sleeps are batched.
    priority: int
    #: Fold offset and wake instant at which the job's running batch ends.
    batch_stop: int
    batch_end: float
    #: Fold offset and start instant of the first step not yet recorded.
    o: int
    at: float
    #: Engine id of the pending batched wake, which an event may cancel;
    #: the reference loop's step calls are never cancelled, so it keeps none.
    call: int = -1
    ranks: list[RankExecution] = field(default_factory=list)
    #: Per rank, the runtime mask it polled at the last batched wake.
    masks: list[CpuSet] = field(default_factory=list)
    # The fold of the batched loop's last pricing (see _RunState._wake);
    # empty in the reference loop.
    #: The per-rank mask shapes and interference factors it was priced under.
    key: tuple | None = None
    #: Fold offsets at which the plan's remaining segments end: stretch
    #: ``i`` runs from ``cuts[i - 1]`` (0 for the first) to ``cuts[i]``.
    cuts: list[int] = field(default_factory=list)
    #: Per stretch, its step duration (the maximum over ranks).
    durations: list[float] = field(default_factory=list)
    #: Per stretch, the instant its first step starts; then the fold's end.
    enters: list[float] = field(default_factory=list)
    #: Per rank, the piece each stretch emits.
    pieces: list[list[_Piece]] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.workload_job.label

    @property
    def model(self) -> ApplicationModel:
        return self.workload_job.app.model


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
    #: there; the fast path prices a fold once per distinct (mask shapes,
    #: interference) input and re-uses it across batches.
    steps_priced: int = 0
    #: Sleeping batched wakes an event moved earlier (telemetry counter).
    pulled_back: int = 0
    #: DROM writes that changed a pid's mask (telemetry counter).
    masks_written: int = 0
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
        owned = left_sum(r.cpu_seconds_owned for r in records)
        useful = left_sum(r.useful_time for r in records)
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
        True (the default) runs the batched fast path: a job prices its
        remaining steps per uniform segment and sleeps to its completion
        in one engine wake; a scheduler event (a submit or a completion)
        that writes one of its masks, or may change its co-runners, pulls
        the wake back to the job's first step boundary at or after it.
        Each wake emits runs of steps that expand to the same per-step
        records.
        False runs the single-step reference loop, a chain of one engine
        call per step, which writes the same accounting as runs of one.
        Both paths schedule through the same ``call_at`` and produce
        byte-identical metrics, traces and stored artifacts — the
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
            pulled_back=state.pulled_back,
            masks_written=sum(
                slurmd.plugin.masks_written for slurmd in state.slurmds.values()
            ),
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


def _below(
    cuts: list[int], durations: list[float], o: int, start: float, bound: float
) -> tuple[int, float]:
    """``(end, at)``: the offset and start instant of the first step from
    offset ``o`` (which starts at ``start``) whose end reaches or passes
    ``bound``, or the fold's end and its instant if every step ends below.

    ``fold_below`` walks each stretch's left fold to the bound in
    O(binades crossed).
    """
    i = bisect_right(cuts, o)
    while i < len(cuts):
        n, start = fold_below(start, durations[i], cuts[i] - o, bound)
        o += n
        if o < cuts[i]:
            break
        i += 1
    return o, start


def _cut(
    cuts: list[int], durations: list[float], o: int, start: float, horizon: float
) -> tuple[int, float]:
    """``(end, wake)``: the fold offset and instant of the first step
    boundary at or after ``horizon``, from offset ``o`` (which starts at
    ``start``) of a fold that ends at or after it: where the reference
    loop polls next after an event at ``horizon``."""
    end, t = _below(cuts, durations, o, start, horizon)
    # Step ``end`` is the first to end at or after the horizon.
    return end + 1, t + durations[bisect_right(cuts, end)]


class _Piece(NamedTuple):
    """A stretch of one rank's priced steps that are alike but for their
    start: its per-step stats entry and step-run fields, built once per
    pricing and shared by every run emitted from it."""

    #: ``(useful, idle, ncpus, seconds)`` of one step.
    stats: tuple[float, float, int, float]
    #: The :class:`StepRun` fields from ``duration`` to ``work_units``.
    fields: tuple


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
        node_policy = self._resolve_node_policy(runner.node_policy)
        self.ctld = Slurmctld(
            runner.cluster,
            drom_enabled=runner.drom_enabled,
            backfill=runner.backfill,
            node_policy=node_policy,
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
        #: Sleeping batched wakes an event moved earlier.
        self.pulled_back = 0
        #: Per-run launch sequence: each job's wake priority.
        self._launch_seq = 0

    def _resolve_node_policy(self, policy):
        """Build a by-name node policy against this run's statistics."""
        if policy is None or not isinstance(policy, str):
            return policy
        return build_node_policy(policy, self._node_utilisation)

    def _node_utilisation(self, name: str) -> float | None:
        # First record every step of the node's running jobs that ends
        # before now: the reference loop has recorded them by this instant.
        # A step that ends at now is recorded by its own wake, which runs
        # before or after this event in both loops alike.
        for execution in self.executions.values():
            if any(rank.node.name == name for rank in execution.ranks):
                end, at = _below(
                    execution.cuts, execution.durations, execution.o, execution.at,
                    self.engine.now,
                )
                self._emit(execution, end, at)
        summary = self.stats[name].node_summary()
        return summary.utilisation if summary.nprocesses else None

    # -- submission & scheduling ----------------------------------------------------------

    def start(self) -> None:
        for wjob in self.workload.jobs:
            self.engine.call_at(wjob.submit_time, self._submit, wjob)

    def _submit(self, wjob: WorkloadJob) -> None:
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

    def _schedule_pass(self, freed: tuple[str, ...] = ()) -> None:
        """Launch what the controller schedules now, then pull back the
        sleeping batches the event may have changed.  ``freed`` names the
        nodes of a job that just completed."""
        now = self.engine.now
        touched = set(freed)
        for decision in self.ctld.schedule(now):
            self._launch(decision.job)
            touched.update(decision.job.allocated_nodes)
        # Pull each sleeping batch whose next step the event may have changed
        # back to where the reference loop polls next.  A submit runs before
        # every same-instant wake (priority 0); a completion has woken the
        # ones due before it (_complete).
        for execution in self.executions.values():
            if execution.batch_end > now and self._changed(execution, touched):
                stop, end = _cut(
                    execution.cuts, execution.durations, execution.o, execution.at, now
                )
                if end < execution.batch_end:
                    self.engine.cancel(execution.call)
                    self.pulled_back += 1
                    self._sleep(execution, stop, end)

    def _changed(self, execution: JobExecution, touched: set[str]) -> bool:
        """Whether an event may have changed what ``execution``'s next poll
        sees: its co-runners, when an interference hook is set and a job
        started or ended on one of its nodes (``touched``), an unpolled
        DROM write to a rank of a polling job (its next poll adopts it), or
        a runtime mask that differs from the one the rank polled at its last
        wake (a runtime that adopts asynchronously, or a non-malleable
        process, whose view is its assigned mask).  Otherwise its fold still
        holds and it sleeps on."""
        if self.runner.interference is not None and any(
            rank.node.name in touched for rank in execution.ranks
        ):
            return True
        polls = execution.model.malleable
        for rank, mask in zip(execution.ranks, execution.masks):
            process = rank.process
            if polls and process.shmem.entry(process.spec.pid).dirty:
                return True
            if process.current_mask != mask:
                return True
        return False

    # -- launching --------------------------------------------------------------------------

    def _launch(self, job: Job) -> None:
        wjob = self.workload_jobs_by_id[job.job_id]
        launch = self.srun.launch(job)
        comm = MpiCommunicator(size=job.spec.ntasks, job_id=job.job_id)
        # The plan splits the work over the *requested* tasks: a request
        # deviating from the Table-1 shape re-partitions the same total work
        # over its own rank count.  The submitted spec is the single source
        # of the request.
        self._launch_seq += 1
        execution = JobExecution(
            workload_job=wjob,
            job=job,
            plan=wjob.app.model.build_plan(job.spec.request.effective_config(wjob.app.config)),
            priority=self._launch_seq,
            batch_stop=0,
            batch_end=self.engine.now,
            o=0,
            at=self.engine.now,
        )
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
                RankExecution(rank=task.global_rank, node=node_topology, process=process)
            )
        self.executions[job.job_id] = execution
        if self.runner.batching:
            self._sleep(execution, 0, self.engine.now)
        else:
            self.engine.call_at(
                self.engine.now, self._step, execution, priority=execution.priority
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

    def _piece(
        self,
        execution: JobExecution,
        rank: RankExecution,
        step: WorkStep,
        step_duration: float,
        scale: float,
        shape: MaskShape,
    ) -> _Piece:
        """The piece ``rank`` emits for steps like ``step`` on a mask of
        this shape.

        ``step_duration`` is the slowest rank's and ``scale`` this rank's
        share of it: ranks that finish their step early idle in MPI until
        the slowest rank catches up.
        """
        model = execution.model
        partition = model.profile.partition
        initial_threads = execution.plan.initial_threads
        nthreads = shape.ncpus
        # Per-thread busy fraction of one step with ``nthreads`` threads.
        utilisation = partition.thread_utilisation(initial_threads, nthreads)
        if not partition.is_static:
            utilisation = [1.0] * nthreads
        ipc = self.trace and model.step_ipc_for_phase(step.phase, shape, initial_threads)
        busy = left_sum(utilisation) * scale * step_duration
        idle = max(0.0, nthreads * step_duration - busy)
        utilisation = tuple(u * scale for u in utilisation)
        return _Piece(
            (busy, idle, nthreads, step_duration),
            (step_duration, step.phase.name, nthreads, utilisation, ipc, step.work_units),
        )

    def _step(self, execution: JobExecution) -> None:
        """One step of the single-step reference loop (``batching=False``).

        Completes the job if its plan is finished.  Otherwise every rank
        polls DROM (the malleability point before each iteration: PMPI,
        OMPT or a task-scheduling point) and prices its next step under the
        mask it polled, and the job sleeps one step, to :meth:`_stepped`.
        The loop keeps none of the batching logic (fold cache, cuts,
        pull-backs, statistics catch-up), which is what the byte-identity
        gates check.
        """
        plan = execution.plan
        if plan.finished:
            self._complete(execution)
            return
        model = execution.model
        if model.malleable:
            for rank in execution.ranks:
                rank.process.poll_malleability()
        shapes = [
            MaskShape.of(rank.process.current_mask, rank.node) for rank in execution.ranks
        ]
        durations = [
            model.step_times(
                plan,
                1,
                shape,
                rank.node,
                total_ranks=execution.job.spec.ntasks,
                interference=self._interference(execution, rank),
            )[0]
            for rank, shape in zip(execution.ranks, shapes)
        ]
        self.steps_priced += len(durations)
        now = self.engine.now
        self.engine.call_at(
            now + max(durations), self._stepped, execution, now, shapes, durations,
            priority=execution.priority,
        )

    def _stepped(
        self,
        execution: JobExecution,
        start: float,
        shapes: list[MaskShape],
        durations: list[float],
    ) -> None:
        """The end of a reference-loop step that started at ``start``.

        Every rank writes the step, under the mask it polled before it,
        through the same APIs as :meth:`_emit`: a run of one and a count-1
        stats entry.  The shared plan then advances one step and the job
        takes its next one.
        """
        plan = execution.plan
        step = plan.current_step()
        step_duration = max(durations)
        label = execution.label
        for rank, shape, duration in zip(execution.ranks, shapes, durations):
            scale = duration / step_duration if step_duration > 0 else 1.0
            piece = self._piece(execution, rank, step, step_duration, scale, shape)
            if self.trace:
                self.tracer.record_steps(
                    [StepRun(label, rank.rank, rank.node.name, start, *piece.fields, 1)]
                )
            self.stats[rank.node.name].record_compute_batch(
                rank.process.spec.pid, [(*piece.stats, 1)]
            )
        plan.advance_many(1)
        self.steps_advanced += len(execution.ranks)
        self._step(execution)

    def _sleep(self, execution: JobExecution, stop: int, end: float) -> None:
        """End ``execution``'s running batch at fold offset ``stop``, which
        ends at ``end``, and schedule its wake there."""
        execution.batch_stop, execution.batch_end = stop, end
        execution.call = self.engine.call_at(
            end, self._wake, execution, priority=execution.priority
        )

    def _wake(self, execution: JobExecution) -> None:
        """One wake of the batched fast path of the reference loop
        (:meth:`_step`).

        Records the batch that ends now, as runs and counted stats entries
        that accumulate exactly as the reference loop's runs of one and
        count-1 entries, and completes the job if its plan is finished.
        Otherwise every rank polls, the remaining steps are re-priced if the
        shapes of the masks (:class:`MaskShape`, all that pricing reads of a
        mask) or the interference factors changed, and the job sleeps to the
        end of its fold, its completion, unless an event pulls the wake back
        (:meth:`_schedule_pass`).

        The fold is kept as uniform stretches, the plan's remaining
        segments: per stretch the step duration (the slowest rank's) and the
        instant its first step starts, and per rank the piece it emits.  A
        stretch's step boundaries are the left fold of its duration from its
        entry instant, which :func:`repeat_add` and :func:`fold_below`
        evaluate in O(binades crossed), so the wakes and the piece starts
        are the very floats the reference loop's clock reaches.
        """
        self._emit(execution, execution.batch_stop, execution.batch_end)
        plan = execution.plan
        if plan.finished:
            self._complete(execution)
            return
        model = execution.model
        ranks = execution.ranks
        if model.malleable:
            for rank in ranks:
                rank.process.poll_malleability()
        masks = execution.masks = [rank.process.current_mask for rank in ranks]
        shapes = [MaskShape.of(mask, rank.node) for rank, mask in zip(ranks, masks)]
        interferences = [self._interference(execution, rank) for rank in ranks]
        # Re-price from ``now`` unless the inputs match the fold's key; the
        # fold's first unrecorded step always starts at the wake.
        if (shapes, interferences) != execution.key:
            execution.key = (shapes, interferences)
            now = self.engine.now
            remaining = plan.remaining_steps
            runs = plan.runs(remaining)
            execution.cuts = list(accumulate(n for _, n in runs))
            # ``step_times`` prices one value per plan segment, so every
            # rank's duration and their maximum are constant over each.
            per_rank = [
                [
                    duration
                    for duration, _ in model.step_times(
                        plan,
                        remaining,
                        shape,
                        rank.node,
                        total_ranks=execution.job.spec.ntasks,
                        interference=interference,
                    ).segments
                ]
                for rank, shape, interference in zip(ranks, shapes, interferences)
            ]
            durations = execution.durations = [max(column) for column in zip(*per_rank)]
            # The stretch ends are the left fold of the per-step durations
            # — the exact "now + duration" addition chain the engine clock
            # performs when the reference loop sleeps one step at a time.
            enters = execution.enters = [now]
            for (_, n), step_duration in zip(runs, durations):
                enters.append(repeat_add(enters[-1], step_duration, n))
            execution.pieces = [
                [
                    self._piece(
                        execution, rank, step, step_duration,
                        duration / step_duration if step_duration > 0 else 1.0, shape,
                    )
                    for (step, _), duration, step_duration in zip(
                        runs, rank_durations, durations
                    )
                ]
                for rank, shape, rank_durations in zip(ranks, shapes, per_rank)
            ]
            execution.o, execution.at = 0, now
            self.steps_priced += remaining * len(ranks)
        self.batches_executed += 1
        self._sleep(execution, execution.cuts[-1], execution.enters[-1])

    def _emit(self, execution: JobExecution, end: int, at: float) -> None:
        """Record ``execution``'s steps from its first unrecorded one up to
        fold offset ``end``, which starts at ``at``, and advance its plan.

        Per rank, one step run and one counted stats entry per stretch the
        steps overlap: what the reference loop records at each of their
        boundaries, in the same accumulation order.  The batched loop emits
        on each wake; a statistics read emits up to its instant first.
        """
        if end == execution.o:
            return
        cuts, enters = execution.cuts, execution.enters
        spans = []
        first, start, i = execution.o, execution.at, bisect_right(cuts, execution.o)
        while first < end:
            stop = min(cuts[i], end)
            spans.append((i, start, stop - first))
            first = stop
            i += 1
            start = enters[i]
        label = execution.label
        for rank, pieces in zip(execution.ranks, execution.pieces):
            if self.trace:
                self.tracer.record_steps(
                    [
                        StepRun(label, rank.rank, rank.node.name, start, *pieces[i].fields, n)
                        for i, start, n in spans
                    ]
                )
            self.stats[rank.node.name].record_compute_batch(
                rank.process.spec.pid, [(*pieces[i].stats, n) for i, _, n in spans]
            )
        k = end - execution.o
        execution.plan.advance_many(k)
        self.steps_advanced += k * len(execution.ranks)
        execution.o, execution.at = end, at

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
        # The completion runs in the job's wake, at its priority.  A job
        # launched earlier whose step ends at this very instant polls before
        # it in the reference loop, so wake those first, in launch order (the
        # order of ``executions``), before any side effect of this completion.
        now = self.engine.now
        for other in list(self.executions.values()):
            if other is execution:
                break
            if other.cuts:
                stop, end = _cut(other.cuts, other.durations, other.o, other.at, now)
                if end == now:
                    self.engine.cancel(other.call)
                    self.pulled_back += 1
                    other.batch_stop, other.batch_end = stop, end
                    self._wake(other)
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
        # Freed resources may let queued jobs start (the Serial scenario's
        # analytics job starts here).
        self._schedule_pass(job.allocated_nodes)
