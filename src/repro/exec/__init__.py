"""Distributed campaign execution: executor backends plus orchestration.

The campaign runner's distributed seam (see ``docs/distributed.md``):

* :mod:`repro.exec.base` — the tiny :class:`Executor` contract, the
  :class:`WorkerContext` shipped once per campaign, and the transient
  (:class:`ExecutorError`) vs terminal (:class:`ExecutorDied`) failure
  taxonomy.
* :mod:`repro.exec.local` — the in-process executor (``workers=1``) and
  persistent local process pools (``workers=N``), whose initializer ships
  the context once so per-cell pickles carry only the
  :class:`~repro.campaign.spec.RunSpec`.
* :mod:`repro.exec.ssh` — remote hosts over SSH, or the loopback subprocess
  transport, speaking the JSONL protocol of :mod:`repro.exec.worker`.
* :mod:`repro.exec.slurm` — fire-and-forget array-job submission with an
  ``afterok`` summarize job.
* :mod:`repro.exec.orchestrator` — the asyncio dealer: shared cell queue,
  per-slot loops, timeouts, retry with backoff, graceful degradation.
* :mod:`repro.exec.manifest` — the append-only resumable campaign journal.
"""

from repro.exec.base import Executor, ExecutorDied, ExecutorError, WorkerContext
from repro.exec.local import InProcessExecutor, LocalPoolExecutor
from repro.exec.manifest import DONE, FAILED, PENDING, CampaignManifest, ManifestState
from repro.exec.orchestrator import (
    CampaignExecutionError,
    ExecutorStats,
    OrchestrationOutcome,
    orchestrate,
)
from repro.exec.slurm import SlurmArrayExecutor, SlurmSubmission
from repro.exec.ssh import SSHExecutor

__all__ = [
    "DONE",
    "FAILED",
    "PENDING",
    "CampaignExecutionError",
    "CampaignManifest",
    "Executor",
    "ExecutorDied",
    "ExecutorError",
    "ExecutorStats",
    "InProcessExecutor",
    "LocalPoolExecutor",
    "ManifestState",
    "OrchestrationOutcome",
    "SSHExecutor",
    "SlurmArrayExecutor",
    "SlurmSubmission",
    "WorkerContext",
    "orchestrate",
]
