"""Application models used in the paper's evaluation (Section 6).

Four applications, each an :class:`~repro.apps.base.ApplicationModel` built
from an analytic :class:`~repro.apps.perfmodel.PerformanceProfile`:

* :func:`~repro.apps.nest.nest_model` — NEST neuro-simulator (static data
  partition, NUMA-sensitive hybrid MPI+OpenMP);
* :func:`~repro.apps.coreneuron.coreneuron_model` — CoreNeuron (similar, with
  a memory-bound initialisation phase);
* :func:`~repro.apps.pils.pils_model` — compute-bound synthetic analytics
  (MPI+OmpSs, fully malleable);
* :func:`~repro.apps.stream.stream_model` — memory-bandwidth-bound analytics
  that saturates at two CPUs per node.
"""

from repro.apps.base import AppConfig, ApplicationModel, StepTimes, WorkPlan, WorkStep
from repro.apps.coreneuron import coreneuron_model, coreneuron_profile
from repro.apps.nest import nest_model, nest_profile
from repro.apps.perfmodel import (
    MemoryBandwidthModel,
    PerformanceProfile,
    PhaseProfile,
    StaticPartition,
    ThreadEfficiency,
    NOMINAL_CYCLES_PER_US,
)
from repro.apps.pils import pils_model, pils_profile
from repro.apps.stream import stream_model, stream_profile

__all__ = [
    "AppConfig",
    "ApplicationModel",
    "StepTimes",
    "WorkPlan",
    "WorkStep",
    "PerformanceProfile",
    "PhaseProfile",
    "ThreadEfficiency",
    "StaticPartition",
    "MemoryBandwidthModel",
    "NOMINAL_CYCLES_PER_US",
    "nest_model",
    "nest_profile",
    "coreneuron_model",
    "coreneuron_profile",
    "pils_model",
    "pils_profile",
    "stream_model",
    "stream_profile",
]
