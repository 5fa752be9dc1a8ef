"""DROM-aware node-selection policies for the controller.

The paper's future work suggests that, combined with a job scheduler, DROM can
support "new scheduling policies based on malleability … or at resource
management level, by choosing as 'victim' nodes the ones with lower
utilization".  This module provides that hook: a
:class:`NodeSelectionPolicy` orders the candidate nodes slurmctld considers
for a job, and the DROM statistics module (:mod:`repro.core.stats`) supplies
the utilisation data the smarter policies need.  The scenario runner's
provider first records the running jobs' steps up to the instant of the
read, so a policy reads the statistics as of its decision, however the
runner batches its steps.

Policies:

* :class:`FirstFit` — the stock behaviour: nodes in configuration order.
* :class:`LeastAllocatedFirst` — prefer nodes with the fewest allocated CPUs
  (spreads co-allocation pressure).
* :class:`LowestUtilisationFirst` — prefer nodes whose *measured* utilisation
  is lowest, i.e. pick as victims the nodes whose current occupants make the
  worst use of their CPUs.  Falls back to allocation counts for nodes without
  statistics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Mapping, Sequence

from repro.slurm.slurmctld import NodeState

#: Callback returning the measured utilisation of a node in [0, 1] (usually
#: ``StatsModule.node_summary().utilisation`` of the node's slurmd), or None
#: when no statistics are available yet.
UtilisationProvider = Callable[[str], float | None]


class NodeSelectionPolicy(ABC):
    """Orders candidate nodes for a job (most preferred first)."""

    name: str = "abstract"

    @abstractmethod
    def order(self, candidates: Sequence[NodeState]) -> list[NodeState]:
        """Return the candidates in preference order (no filtering)."""


def build_node_policy(
    name: str, utilisation: UtilisationProvider
) -> NodeSelectionPolicy:
    """Build a policy from its registry name (see :data:`NODE_POLICY_FACTORIES`)."""
    try:
        factory = NODE_POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown node policy name {name!r}; "
            f"choose from {sorted(NODE_POLICY_FACTORIES)}"
        ) from None
    return factory(utilisation)


class FirstFit(NodeSelectionPolicy):
    """Configuration order — what the unmodified slurmctld does."""

    name = "first-fit"

    def order(self, candidates: Sequence[NodeState]) -> list[NodeState]:
        return list(candidates)


class LeastAllocatedFirst(NodeSelectionPolicy):
    """Prefer nodes with the fewest allocated CPUs, then fewer tasks."""

    name = "least-allocated"

    def order(self, candidates: Sequence[NodeState]) -> list[NodeState]:
        return sorted(
            candidates, key=lambda s: (s.allocated_cpus, s.running_tasks, s.name)
        )


class LowestUtilisationFirst(NodeSelectionPolicy):
    """Prefer the nodes whose occupants use their CPUs the least.

    ``utilisation`` is supplied per node by a callback (wired to the DROM
    statistics module by the caller).  Nodes without data sort by allocation,
    after nodes with data — an idle or badly-utilised node is always a better
    victim than an unknown one only if it actually reports low utilisation.
    Built by name, the provider is the scenario runner's, which answers
    with the statistics the running jobs have recorded up to the instant of
    the read.
    """

    name = "lowest-utilisation"

    def __init__(self, utilisation: UtilisationProvider | Mapping[str, float]) -> None:
        if callable(utilisation):
            self._lookup: UtilisationProvider = utilisation
        else:
            mapping = dict(utilisation)
            self._lookup = lambda name: mapping.get(name)

    def order(self, candidates: Sequence[NodeState]) -> list[NodeState]:
        def key(state: NodeState):
            value = self._lookup(state.name)
            if value is None:
                return (1, state.allocated_cpus, state.name)
            return (0, value, state.name)

        return sorted(candidates, key=key)


#: Single source of truth for by-name node policies: ``SchedulerRef``
#: validates against these names, the scenario runner builds from them.
#: Every factory takes the run's utilisation provider; only
#: ``lowest-utilisation`` uses it.
NODE_POLICY_FACTORIES: dict[str, Callable[[UtilisationProvider], NodeSelectionPolicy]] = {
    "first-fit": lambda utilisation: FirstFit(),
    "least-allocated": lambda utilisation: LeastAllocatedFirst(),
    "lowest-utilisation": LowestUtilisationFirst,
}
