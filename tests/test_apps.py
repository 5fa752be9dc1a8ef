"""Tests of the application models (NEST, CoreNeuron, Pils, STREAM)."""

from __future__ import annotations

import pytest

from repro.apps import (
    AppConfig,
    ApplicationModel,
    coreneuron_model,
    nest_model,
    pils_model,
    stream_model,
)
from repro.apps.perfmodel import MaskShape
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology
from repro.workload import configs


@pytest.fixture
def node():
    return NodeTopology.marenostrum3()


class TestAppConfig:
    def test_total_cpus(self):
        assert AppConfig("c", 4, 8).total_cpus == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            AppConfig("c", 0, 8)
        with pytest.raises(ValueError):
            AppConfig("c", 2, 0)

    def test_str(self):
        assert str(AppConfig("Conf. 1", 2, 16)) == "Conf. 1 (2 x 16)"


class TestWorkPlans:
    def test_plan_steps_cover_total_work(self, node):
        model = nest_model()
        config = AppConfig("Conf. 1", 2, 16)
        plan = model.build_plan(config)
        total = sum(step.work_units * n for step, n in plan.segments)
        assert total == pytest.approx(model.total_work / config.mpi_ranks)

    def test_plan_has_one_step_per_iteration_at_least(self):
        model = nest_model(iterations=100)
        plan = model.build_plan(AppConfig("c", 2, 16))
        assert plan.total_steps >= 100

    def test_every_phase_present_in_plan(self):
        model = coreneuron_model()
        plan = model.build_plan(AppConfig("c", 2, 16))
        assert {step.phase.name for step, _ in plan.segments} == {"model-setup", "solve"}

    def test_plan_advance_and_finish(self):
        model = stream_model(iterations=5)
        plan = model.build_plan(AppConfig("c", 2, 2))
        n = sum(count for _, count in plan.segments)
        for _ in range(n):
            assert not plan.finished
            plan.advance_many(1)
        assert plan.finished
        assert plan.remaining_steps == 0
        with pytest.raises(IndexError):
            plan.current_step()
        with pytest.raises(IndexError):
            plan.advance_many(1)
        with pytest.raises(ValueError):
            plan.advance_many(-1)
        assert plan.next_step == n

    def test_run_length_plan_matches_per_step_walk(self, node):
        model = coreneuron_model(iterations=50)
        config = AppConfig("c", 2, 16)
        plan = model.build_plan(config)
        walker = model.build_plan(config)
        assert len(plan.segments) == 2
        assert plan.total_steps == sum(count for _, count in plan.segments)
        mask = MaskShape.of(CpuSet.from_range(0, 12), node)
        # Start mid-segment so the window straddles the phase boundary.
        first = plan.segments[0][1] - 3
        plan.advance_many(first)
        for _ in range(first):
            walker.advance_many(1)
        assert plan.next_step == walker.next_step == first
        assert plan.runs(5) == [(plan.segments[0][0], 3), (plan.segments[1][0], 2)]
        times = model.step_times(plan, plan.remaining_steps, mask, node, 2)
        expected = []
        while not walker.finished:
            expected.append(model.step_times(walker, 1, mask, node, 2)[0])
            walker.advance_many(1)
        assert list(times) == expected
        # One price per plan segment, never expanded to a per-step list.
        assert [n for _, n in times.segments] == [3, plan.segments[1][1]]
        assert len(times) == len(expected)
        assert [times[i] for i in range(-len(expected), len(expected))] == expected * 2
        with pytest.raises(IndexError):
            times[len(expected)]
        plan.advance_many(plan.remaining_steps)
        assert plan.finished
        with pytest.raises(IndexError):
            plan.runs(1)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ApplicationModel(profile=nest_model().profile, total_work=0)
        with pytest.raises(ValueError):
            ApplicationModel(profile=nest_model().profile, total_work=10, iterations=0)


class TestCalibration:
    """Standalone runtimes stay in the ballpark of the paper's workloads."""

    def test_nest_conf1_runtime(self, node):
        runtime = nest_model().standalone_runtime(configs.NEST_CONFIGS["Conf. 1"], node)
        assert 2200 <= runtime <= 3200

    def test_coreneuron_longer_than_nest(self, node):
        nest_rt = nest_model().standalone_runtime(configs.NEST_CONFIGS["Conf. 1"], node)
        cn_rt = coreneuron_model().standalone_runtime(configs.CORENEURON_CONFIGS["Conf. 1"], node)
        assert cn_rt > nest_rt

    def test_nest_conf2_within_30pct_of_conf1(self, node):
        """The paper keeps both configurations because neither dominates."""
        model = nest_model()
        rt1 = model.standalone_runtime(configs.NEST_CONFIGS["Conf. 1"], node)
        rt2 = model.standalone_runtime(configs.NEST_CONFIGS["Conf. 2"], node)
        assert abs(rt1 - rt2) / rt1 < 0.30

    def test_pils_is_short_analytics_job(self, node):
        for conf in ("Conf. 1", "Conf. 2", "Conf. 3"):
            app = configs.pils(conf)
            runtime = app.model.standalone_runtime(app.config, node)
            assert 60 <= runtime <= 600

    def test_stream_runtime_saturates_beyond_two_cpus(self, node):
        """Over two CPUs per node STREAM performance keeps constant."""
        model = stream_model()
        t2 = model.standalone_runtime(AppConfig("2cpu", 2, 2), node)
        t8 = model.standalone_runtime(AppConfig("8cpu", 2, 8), node)
        assert t8 == pytest.approx(t2, rel=0.05)

    def test_simulators_scale_from_8_to_16_threads_sublinearly(self, node):
        """Doubling the threads of a rank helps, but far from 2x (the paper's
        locality/IPC observation that motivates Conf. 2)."""
        for factory in (nest_model, coreneuron_model):
            model = factory()
            t8 = model.standalone_runtime(AppConfig("one-socket", 2, 8), node)
            t16 = model.standalone_runtime(AppConfig("two-sockets", 2, 16), node)
            speedup = t8 / t16
            assert 1.0 < speedup < 1.7


class TestMalleabilityVariants:
    def test_fully_malleable_nest_has_no_partition(self):
        assert not nest_model(chunks_per_thread=0).profile.partition.is_static
        assert nest_model().profile.partition.is_static

    def test_non_malleable_flag(self):
        assert nest_model(malleable=False).malleable is False
        assert pils_model(100, malleable=False).malleable is False

    def test_step_time_uses_current_mask(self, node):
        model = nest_model()
        config = AppConfig("Conf. 1", 2, 16)
        plan_full = model.build_plan(config)
        plan_shrunk = model.build_plan(config)
        # advance past the init phase so both plans sit on a solve step
        for plan in (plan_full, plan_shrunk):
            while plan.current_step().phase.name != "simulate":
                plan.advance_many(1)
        full, shrunk = (MaskShape.of(CpuSet.from_range(0, n), node) for n in (16, 15))
        [t_full] = model.step_times(plan_full, 1, full, node, 2)
        [t_shrunk] = model.step_times(plan_shrunk, 1, shrunk, node, 2)
        assert t_shrunk > t_full

    def test_step_ipc_positive(self, node):
        model = coreneuron_model()
        plan = model.build_plan(AppConfig("Conf. 1", 2, 16))
        phase = plan.current_step().phase
        mask = MaskShape.of(CpuSet.from_range(0, 16), node)
        assert model.step_ipc_for_phase(phase, mask, plan.initial_threads) > 0


class TestTable1Configs:
    def test_table1_rows_shape(self):
        rows = configs.table1_rows()
        assert [r[0] for r in rows] == ["NEST", "CoreNeuron", "Pils", "STREAM"]
        assert rows[0][1] == "2 x 16"
        assert rows[2][3] == "2 x 4"
        assert rows[3][2] == "-"

    def test_config_factories(self):
        assert configs.nest("Conf. 2").config.threads_per_rank == 8
        assert configs.coreneuron().app_name == "CoreNeuron"
        assert configs.pils("Conf. 3").model.total_work == configs.PILS_WORK["Conf. 3"]
        assert configs.stream().config.total_cpus == 4
        assert configs.nest().label == "NEST Conf. 1"

    def test_unknown_config_raises(self):
        with pytest.raises(KeyError):
            configs.nest("Conf. 9")
