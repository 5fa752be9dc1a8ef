"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.drom import attach_admin
from repro.core.shmem import NodeSharedMemory
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import ClusterTopology, NodeTopology

#: The larger float-fold sweep CI runs with ``--hypothesis-profile=ci``:
#: ``test_repeat_add.py`` and ``test_fold_below.py`` draw this many examples
#: per strategy instead of 150.
settings.register_profile("ci", max_examples=2000, deadline=None)


@pytest.fixture
def mn3_node() -> NodeTopology:
    """One MareNostrum III node: 2 sockets x 8 cores, 128 GB."""
    return NodeTopology.marenostrum3()


@pytest.fixture
def mn3_cluster() -> ClusterTopology:
    """The paper's two-node partition."""
    return ClusterTopology.marenostrum3(2)


@pytest.fixture
def shmem(mn3_node: NodeTopology) -> NodeSharedMemory:
    """A fresh DLB shared memory segment on an MN3 node."""
    return NodeSharedMemory(mn3_node)


@pytest.fixture
def admin(shmem: NodeSharedMemory):
    """An attached DROM administrator on the node's shared memory."""
    return attach_admin(shmem)


@pytest.fixture
def full_mask(mn3_node: NodeTopology) -> CpuSet:
    return mn3_node.full_mask()
