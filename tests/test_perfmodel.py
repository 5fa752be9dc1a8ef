"""Tests of the analytic performance model primitives."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.apps import coreneuron_model, nest_model, pils_model, stream_model
from repro.apps.base import WorkStep
from repro.apps.perfmodel import (
    MaskShape,
    MemoryBandwidthModel,
    NOMINAL_CYCLES_PER_US,
    PerformanceProfile,
    PhaseProfile,
    StaticPartition,
    ThreadEfficiency,
)
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology
from repro.workload.runner import _RunState


@pytest.fixture
def node():
    return NodeTopology.marenostrum3()


def shape(mask: CpuSet) -> MaskShape:
    """The shape pricing reads of ``mask`` on an MN3 node."""
    return MaskShape.of(mask, NodeTopology.marenostrum3())


def simple_profile(partition=StaticPartition(0), alpha=0.01, numa=0.1, memory=None):
    return PerformanceProfile(
        name="test",
        phases=(
            PhaseProfile(
                name="compute",
                work_fraction=1.0,
                efficiency=ThreadEfficiency(alpha=alpha, numa_penalty=numa),
                memory=memory or MemoryBandwidthModel(),
                base_ipc=1.0,
                comm_overhead_per_rank=0.05,
            ),
        ),
        partition=partition,
    )


class TestThreadEfficiency:
    def test_single_thread_is_perfect(self):
        eff = ThreadEfficiency(alpha=0.05)
        assert eff.efficiency(1) == 1.0

    def test_efficiency_decreases_with_threads(self):
        eff = ThreadEfficiency(alpha=0.02)
        assert eff.efficiency(16) < eff.efficiency(8) < eff.efficiency(2)

    def test_numa_penalty_applies_only_when_spanning(self):
        eff = ThreadEfficiency(alpha=0.0, numa_penalty=0.2)
        assert eff.efficiency(8, sockets_spanned=1) == 1.0
        assert eff.efficiency(8, sockets_spanned=2) == pytest.approx(0.8)

    def test_throughput_monotone_in_threads(self):
        eff = ThreadEfficiency(alpha=0.02)
        values = [eff.throughput(n) for n in range(1, 17)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadEfficiency(alpha=-0.1)
        with pytest.raises(ValueError):
            ThreadEfficiency(numa_penalty=1.0)
        with pytest.raises(ValueError):
            ThreadEfficiency().efficiency(0)

    @given(st.integers(min_value=1, max_value=64), st.floats(min_value=0, max_value=0.2))
    def test_efficiency_in_unit_interval(self, n, alpha):
        eff = ThreadEfficiency(alpha=alpha, numa_penalty=0.1)
        value = eff.efficiency(n, sockets_spanned=2)
        assert 0.0 < value <= 1.0


class TestStaticPartition:
    def test_no_partition_is_fully_malleable(self):
        part = StaticPartition(chunks_per_thread=0)
        assert not part.is_static
        assert part.rounds(16, 3) == 1
        assert part.imbalance_factor(16, 3) == 1.0

    def test_even_division_has_no_imbalance(self):
        part = StaticPartition(chunks_per_thread=4)
        assert part.imbalance_factor(16, 16) == pytest.approx(1.0)
        assert part.imbalance_factor(16, 8) == pytest.approx(1.0)

    def test_figure5_case_one_thread_removed(self):
        """16->15 threads with 4 chunks/thread: 5 rounds instead of ~4.27."""
        part = StaticPartition(chunks_per_thread=4)
        assert part.rounds(16, 15) == 5
        assert part.imbalance_factor(16, 15) == pytest.approx(5 / (64 / 15))

    def test_relative_imbalance_shrinks_with_more_removed_cpus(self):
        """The paper's Conf. 3 observation: stealing more CPUs distributes the
        orphaned chunks better, so the *relative* excess over ideal shrinks."""
        part = StaticPartition(chunks_per_thread=4)
        assert part.imbalance_factor(16, 12) < part.imbalance_factor(16, 15)

    def test_thread_utilisation_shape(self):
        part = StaticPartition(chunks_per_thread=4)
        util = part.thread_utilisation(16, 15)
        assert len(util) == 15
        # 64 chunks over 15 threads: 4 threads do 5 chunks, 11 threads do 4.
        assert util.count(1.0) == 4
        assert util.count(pytest.approx(0.8)) == 11

    def test_thread_utilisation_full_team_all_busy(self):
        part = StaticPartition(chunks_per_thread=4)
        assert part.thread_utilisation(16, 16) == [1.0] * 16

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticPartition(chunks_per_thread=-1)
        with pytest.raises(ValueError):
            StaticPartition(4).rounds(16, 0)
        with pytest.raises(ValueError):
            StaticPartition(4).thread_utilisation(16, 0)

    @given(st.integers(1, 8), st.integers(1, 32), st.integers(1, 32))
    def test_imbalance_at_least_one(self, chunks, initial, current):
        part = StaticPartition(chunks_per_thread=chunks)
        assert part.imbalance_factor(initial, current) >= 1.0 - 1e-12

    @given(st.integers(1, 8), st.integers(1, 32), st.integers(1, 32))
    def test_utilisation_bounded(self, chunks, initial, current):
        part = StaticPartition(chunks_per_thread=chunks)
        util = part.thread_utilisation(initial, current)
        assert len(util) == current
        assert max(util) == 1.0
        assert all(0.0 <= u <= 1.0 for u in util)


class TestMemoryBandwidthModel:
    def test_compute_only_phase_has_no_memory_time(self, node):
        model = MemoryBandwidthModel(traffic_gb_per_work_unit=0.0)
        assert not model.is_memory_bound
        assert model.memory_time(100.0, shape(CpuSet.from_range(0, 4)), node) == 0.0

    def test_bandwidth_saturates_at_socket_cap(self, node):
        model = MemoryBandwidthModel(per_core_gbs=20.0, traffic_gb_per_work_unit=1.0)
        one_core = model.achievable_bandwidth(shape(CpuSet([0])), node)
        two_cores = model.achievable_bandwidth(shape(CpuSet([0, 1])), node)
        four_cores = model.achievable_bandwidth(shape(CpuSet.from_range(0, 4)), node)
        assert one_core == pytest.approx(20.0)
        assert two_cores == pytest.approx(40.0)
        assert four_cores == pytest.approx(40.0)  # socket cap reached

    def test_two_sockets_double_the_cap(self, node):
        model = MemoryBandwidthModel(per_core_gbs=20.0, traffic_gb_per_work_unit=1.0)
        assert model.achievable_bandwidth(shape(CpuSet([0, 8])), node) == pytest.approx(40.0)
        full = shape(CpuSet.from_range(0, 16))
        assert model.achievable_bandwidth(full, node) == pytest.approx(80.0)

    def test_memory_time_scaling(self, node):
        model = MemoryBandwidthModel(per_core_gbs=20.0, traffic_gb_per_work_unit=2.0)
        t = model.memory_time(100.0, shape(CpuSet([0, 1])), node)
        assert t == pytest.approx(100.0 * 2.0 / 40.0)

    def test_empty_mask_gives_infinite_time(self, node):
        model = MemoryBandwidthModel(per_core_gbs=20.0, traffic_gb_per_work_unit=2.0)
        assert model.achievable_bandwidth(shape(CpuSet.empty()), node) == 0.0
        assert math.isinf(model.memory_time(1.0, shape(CpuSet.empty()), node))


class TestPerformanceProfile:
    def test_phase_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PerformanceProfile(
                name="bad",
                phases=(
                    PhaseProfile("a", 0.5, ThreadEfficiency()),
                    PhaseProfile("b", 0.6, ThreadEfficiency()),
                ),
            )

    def test_phase_lookup(self):
        profile = simple_profile()
        assert profile.phase("compute").name == "compute"
        with pytest.raises(KeyError):
            profile.phase("missing")

    def test_iteration_time_decreases_with_more_cpus(self, node):
        profile = simple_profile()
        phase = profile.phases[0]
        t4 = profile.iteration_time(phase, 100, shape(CpuSet.from_range(0, 4)), node, 4, 2)
        t8 = profile.iteration_time(phase, 100, shape(CpuSet.from_range(0, 8)), node, 8, 2)
        assert t8 < t4

    def test_static_partition_penalty_visible(self, node):
        static = simple_profile(partition=StaticPartition(chunks_per_thread=1))
        flexible = simple_profile(partition=StaticPartition(chunks_per_thread=0))
        phase_s, phase_f = static.phases[0], flexible.phases[0]
        mask = CpuSet.from_range(0, 15)
        t_static = static.iteration_time(phase_s, 100, shape(mask), node, 16, 2)
        t_flexible = flexible.iteration_time(phase_f, 100, shape(mask), node, 16, 2)
        assert t_static > t_flexible

    def test_memory_bound_phase_is_roofline_limited(self, node):
        memory = MemoryBandwidthModel(per_core_gbs=20.0, traffic_gb_per_work_unit=50.0)
        profile = simple_profile(memory=memory)
        phase = profile.phases[0]
        t2 = profile.iteration_time(phase, 10, shape(CpuSet([0, 1])), node, 2, 2)
        t8 = profile.iteration_time(phase, 10, shape(CpuSet.from_range(0, 8)), node, 8, 2)
        # Bandwidth saturates the socket at 2 cores: more CPUs do not help.
        assert t8 == pytest.approx(t2)

    def test_interference_inflates_time(self, node):
        profile = simple_profile()
        phase = profile.phases[0]
        base = profile.iteration_time(phase, 100, shape(CpuSet.from_range(0, 4)), node, 4, 2)
        slowed = profile.iteration_time(
            phase, 100, shape(CpuSet.from_range(0, 4)), node, 4, 2, interference=1.5
        )
        assert slowed == pytest.approx(base * 1.5)

    def test_comm_overhead_grows_with_ranks(self, node):
        profile = simple_profile()
        phase = profile.phases[0]
        mask = shape(CpuSet.from_range(0, 4))
        t2 = profile.iteration_time(phase, 100, mask, node, 4, total_ranks=2)
        t4 = profile.iteration_time(phase, 100, mask, node, 4, total_ranks=4)
        assert t4 > t2

    def test_zero_work_takes_zero_time(self, node):
        profile = simple_profile()
        one = shape(CpuSet([0]))
        assert profile.iteration_time(profile.phases[0], 0.0, one, node, 1, 2) == 0.0

    def test_empty_mask_takes_infinite_time(self, node):
        profile = simple_profile()
        assert math.isinf(
            profile.iteration_time(profile.phases[0], 1.0, shape(CpuSet.empty()), node, 1, 2)
        )

    def test_ipc_higher_on_single_socket(self, node):
        profile = simple_profile(numa=0.3)
        phase = profile.phases[0]
        ipc_local = profile.ipc(phase, shape(CpuSet.from_range(0, 8)), 8)
        ipc_spanning = profile.ipc(phase, shape(CpuSet.from_range(4, 12)), 8)
        assert ipc_local > ipc_spanning

    def test_ipc_of_empty_mask_is_zero(self, node):
        profile = simple_profile()
        assert profile.ipc(profile.phases[0], shape(CpuSet.empty()), 1) == 0.0

    def test_cycles_per_us_scales_with_busy_fraction(self):
        profile = simple_profile()
        assert profile.cycles_per_us(1.0) == NOMINAL_CYCLES_PER_US
        assert profile.cycles_per_us(0.5) == NOMINAL_CYCLES_PER_US / 2
        assert profile.cycles_per_us(2.0) == NOMINAL_CYCLES_PER_US
        assert profile.cycles_per_us(-1.0) == 0.0

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            PhaseProfile("x", 0.0, ThreadEfficiency())


# -- the fold key: what pricing reads of a mask ----------------------------------------

#: Every application model the workloads run, with its profile and phases.
_MODELS = [
    nest_model(),
    coreneuron_model(),
    pils_model(100.0),
    stream_model(),
]


@st.composite
def _masks_of_one_shape(draw):
    """Two MN3 masks with the same :class:`MaskShape`: the same CPU count
    spread over the same sockets, each split between them its own way (a
    two-socket pair may move CPUs across the sockets at equal count)."""
    node = NodeTopology.marenostrum3()
    sockets = draw(st.sampled_from([(0,), (1,), (0, 1)]))
    ncpus = draw(st.integers(len(sockets), 8 * len(sockets)))

    def mask():
        # CPUs per socket: at least one in each touched socket, at most 8.
        counts = [1] * len(sockets)
        for _ in range(ncpus - len(sockets)):
            room = [i for i, count in enumerate(counts) if count < 8]
            counts[draw(st.sampled_from(room))] += 1
        cpus = []
        for index, count in zip(sockets, counts):
            socket_cpus = list(node.socket_mask(index))
            cpus += draw(st.permutations(socket_cpus))[:count]
        return CpuSet(cpus)

    return node, mask(), mask()


@given(_masks_of_one_shape(), st.sampled_from([1, 2, 8, 16]), st.integers(1, 8))
def test_masks_of_one_shape_price_alike(masks, initial_threads, total_ranks):
    """Masks of one CPU count on the same sockets, however moved within
    them, have one :class:`MaskShape` and price equal, bit for bit, in every
    phase of every application: ``iteration_time`` (with and without
    interference), ``ipc`` and the runner's per-stretch ``_piece``, so the
    batched runner may key its cached fold on the shapes alone."""
    node, a, b = masks
    assert shape(a) == shape(b)
    for model in _MODELS:
        profile = model.profile
        plan = SimpleNamespace(initial_threads=initial_threads)
        execution = SimpleNamespace(model=model, plan=plan)
        rank = SimpleNamespace(node=node)
        state = SimpleNamespace(trace=True)
        for phase in profile.phases:
            for interference in (1.0, 1.3):
                times = [
                    profile.iteration_time(
                        phase, 2.5, shape(mask), node, initial_threads, total_ranks,
                        interference,
                    ).hex()
                    for mask in (a, b)
                ]
                assert times[0] == times[1]
            ipcs = [profile.ipc(phase, shape(mask), initial_threads).hex() for mask in (a, b)]
            assert ipcs[0] == ipcs[1]
            bandwidths = [
                phase.memory.achievable_bandwidth(shape(mask), node).hex() for mask in (a, b)
            ]
            assert bandwidths[0] == bandwidths[1]
            step = WorkStep(phase=phase, work_units=2.5)
            pieces = [
                _RunState._piece(state, execution, rank, step, 1.75, 0.5, shape(mask))
                for mask in (a, b)
            ]
            assert repr(pieces[0]) == repr(pieces[1])


def test_mask_shape_sees_the_sockets(node):
    """Equal CPU counts on other sockets are other shapes: a team moved
    onto two sockets pays the NUMA penalty."""
    one_socket, two_sockets = CpuSet.from_range(0, 8), CpuSet.from_range(4, 12)
    assert shape(one_socket) == (8, (0,))
    assert shape(two_sockets) == (8, (0, 1))
    profile = nest_model().profile
    phase = profile.phases[-1]
    assert profile.ipc(phase, shape(one_socket), 8) != profile.ipc(phase, shape(two_sockets), 8)
