"""Differential tests of :func:`repro.core.floats.repeat_add`.

The oracle is the fold it replaces, ``reduce(add, repeat(x, count), total)``:
every case compares the IEEE-754 bytes of both results, so a helper that is
off by one ulp, returns ``-0.0`` for ``0.0`` or a different NaN fails.  The
strategies aim at the places a closed form goes wrong: ties (``x`` half-way
between multiples of the spacing), subnormals, a zero start, binade edges,
``x`` below half an ulp, values near overflow, and the non-finite or negative
inputs that must take the plain fold.  A replay then checks every counted
stats entry of generated workloads, batched and single-step.
"""

from __future__ import annotations

import math
import struct
from functools import reduce
from itertools import repeat
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import floats
from repro.core.floats import left_sum, repeat_add
from repro.core.stats import StatsModule
from repro.workload.generator import BURSTY, UNIFORM, WorkloadSpec, generate_workload
from repro.workload.runner import ScenarioRunner

#: Smallest subnormal.
TINY = 5e-324


def _bytes(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_fold(total: float, x: float, count: int) -> None:
    expected = reduce(add, repeat(x, count), total)
    assert _bytes(repeat_add(total, x, count)) == _bytes(expected), (
        total.hex(), x.hex(), count, expected.hex()
    )


counts = st.one_of(
    st.integers(0, 40), st.integers(0, 5_000), st.integers(0, 1_000_000)
)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
binades = st.integers(-1074, 1023)


@st.composite
def ties(draw):
    """``x`` an odd multiple of half the spacing at ``total``: every step is
    a tie, decided by the parity of ``total / ulp``."""
    total = draw(non_negative.filter(lambda t: t < 1e300))
    half = math.ulp(total) / 2
    return total, (2 * draw(st.integers(0, 64)) + 1) * half, draw(counts)


@st.composite
def subnormals(draw):
    total = draw(st.integers(0, 1 << 20)) * TINY
    return total, draw(st.integers(0, 1 << 12)) * TINY, draw(counts)


@st.composite
def zero_starts(draw):
    total = draw(st.sampled_from([0.0, -0.0]))
    x = draw(st.one_of(non_negative, st.builds(math.ldexp, st.just(1.0), binades)))
    return total, x, draw(counts)


@st.composite
def binade_edges(draw):
    """``total`` a few ulps below a power of two, steps of a few half-ulps."""
    top = math.ldexp(1.0, draw(st.integers(-1000, 1023)))
    below = math.ulp(top / 2)
    total = top - draw(st.integers(0, 64)) * below
    return total, draw(st.integers(1, 9)) * below / 2, draw(counts)


@st.composite
def below_half_ulp(draw):
    total = draw(st.floats(min_value=1e-300, max_value=1e300))
    fraction = draw(st.floats(min_value=0.0, max_value=0.5))
    return total, math.ulp(total) * fraction, draw(counts)


@st.composite
def near_overflow(draw):
    total = draw(st.floats(min_value=1e300, max_value=1.7976931348623157e308))
    x = draw(st.floats(min_value=0.0, max_value=1e306))
    return total, x, draw(st.integers(0, 5_000))


@st.composite
def generic(draw):
    return draw(non_negative), draw(non_negative), draw(counts)


@st.composite
def fallbacks(draw):
    """Negative or non-finite operands: the plain fold, NaN and all."""
    special = st.sampled_from([math.inf, -math.inf, math.nan, -1.0, -TINY, -1e300])
    total, x = draw(st.sampled_from([(special, non_negative), (non_negative, special),
                                     (special, special)]))
    return draw(total), draw(x), draw(st.integers(0, 5_000))


@pytest.mark.parametrize(
    "strategy",
    [ties(), subnormals(), zero_starts(), binade_edges(), below_half_ulp(),
     near_overflow(), generic(), fallbacks()],
    ids=["ties", "subnormals", "zero-start", "binade-edges", "below-half-ulp",
         "near-overflow", "generic", "fallbacks"],
)
def test_matches_left_fold(strategy):
    # 150, or more under the ``ci`` hypothesis profile (conftest.py).
    @settings(max_examples=max(150, settings.default.max_examples), deadline=None)
    @given(strategy)
    def check(case):
        _assert_fold(*case)

    check()


@pytest.mark.parametrize(
    "total,x,count",
    [
        (0.0, 0.1, 1_000_000),  # crosses ~20 binades
        (1.0, 2.0**-53, 1_000),  # exactly half an ulp: every step ties to 1.0
        (1.0 + 2.0**-52, 2.0**-53, 1_000),  # odd start: the first tie rounds up
        (1.0, 3 * 2.0**-53, 1_000),  # 1.5 ulps: parity decides 1 or 2 ulps
        (2.0 - 2.0**-52, 2.0**-52, 100),  # one step below the edge
        (1e308, 1e307, 100),  # overflows to inf mid-fold
        (TINY, TINY, 1 << 20),  # subnormal into the normal range
        (-0.0, 0.0, 50),
        (-0.0, -0.0, 50),
        (5.0, 0.0, 50),
        (0.0, 0.25, 0),
    ],
)
def test_pinned_cases(total, x, count):
    _assert_fold(total, x, count)


def test_left_sum_is_the_uncompensated_fold():
    # Python 3.12's builtin ``sum`` compensates: it returns 1e16 + 2.0 here.
    values = [1.0, 1e16, 1.0]
    assert _bytes(left_sum(values)) == _bytes(reduce(add, values, 0.0)) == _bytes(1e16)
    assert left_sum([]) == 0.0


GENERATED = [
    WorkloadSpec(njobs=4, mean_interarrival=60.0, work_scale=0.04, iterations=120),
    WorkloadSpec(njobs=6, arrival=UNIFORM, mean_interarrival=30.0, work_scale=0.03,
                 iterations=200),
    WorkloadSpec(njobs=6, arrival=BURSTY, burst_size=3, mean_interarrival=80.0,
                 work_scale=0.03, iterations=200),
]


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "reference"])
@pytest.mark.parametrize("drom", [False, True], ids=["serial", "drom"])
@pytest.mark.parametrize("index", range(len(GENERATED)))
def test_stats_entries_of_generated_cells(monkeypatch, index, drom, batching):
    """Every ``record_compute_batch`` call of a generated cell leaves the
    three accumulators where the per-step fold of its entries would."""
    original = StatsModule.record_compute_batch
    counted = []

    def checked(self, pid, intervals):
        before = self.process_stats(pid)
        useful, idle, owned = before.useful_time, before.idle_time, before.cpu_seconds_owned
        for useful_time, idle_time, ncpus, seconds, count in intervals:
            useful = reduce(add, repeat(useful_time, count), useful)
            idle = reduce(add, repeat(idle_time, count), idle)
            owned = reduce(add, repeat(ncpus * seconds, count), owned)
            counted.append(count)
        stats = original(self, pid, intervals)
        assert _bytes(stats.useful_time) == _bytes(useful)
        assert _bytes(stats.idle_time) == _bytes(idle)
        assert _bytes(stats.cpu_seconds_owned) == _bytes(owned)
        return stats

    monkeypatch.setattr(StatsModule, "record_compute_batch", checked)
    workload = generate_workload(GENERATED[index], seed=index + 1)
    ScenarioRunner(drom, batching=batching).run(workload, trace=False)
    assert counted
    if batching:
        # Some entries reach the closed form, not only the short-count fold.
        assert max(counted) >= floats._CUTOFF
    else:
        assert set(counted) == {1}
