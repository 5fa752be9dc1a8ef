"""Deterministic discrete-event simulation engine.

The paper's evaluation measures wall-clock behaviour of workloads on real
MareNostrum III nodes.  This reproduction replaces the hardware with a
discrete-event simulation: the scenario runner advances every rank's
application steps on :class:`SimulationEngine` in simulated seconds,
interleaved with SLURM submissions and scheduling passes.  Everything is a
callback run at an absolute instant (``call_at``, which ``cancel`` takes
back); misuse raises :class:`SimulationError`.  Identical inputs produce
identical timelines, which makes the figure benchmarks reproducible.
"""

from repro.sim.engine import SimulationEngine, SimulationError

__all__ = [
    "SimulationEngine",
    "SimulationError",
]
