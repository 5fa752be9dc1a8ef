"""Differential tests of :func:`repro.core.floats.fold_below`.

The oracle is the loop it replaces: add ``x`` to ``total`` up to ``count``
times and stop before the first sum that is not below ``bound``.  Every case
compares the count and the IEEE-754 bytes of the fold.  The cases reuse
``test_repeat_add``'s strategies (ties, subnormals, zero starts, binade
edges, steps below half an ulp, non-finite or negative fallbacks) plus a
zero step, and put the bound at, just above or just below a value of the
fold, beyond its end, or at a non-finite or arbitrary value.  A replay then
checks that the wakes the runner retimes on generated workloads land where
the per-step ``accumulate`` fold and a ``bisect_left`` cut put them.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from itertools import accumulate, repeat

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.floats import fold_below, repeat_add
from repro.workload import runner
from repro.workload.generator import BURSTY, UNIFORM, WorkloadSpec, generate_workload
from repro.workload.runner import ScenarioRunner, _RunState

from test_repeat_add import (
    binade_edges,
    below_half_ulp,
    counts,
    fallbacks,
    generic,
    non_negative,
    subnormals,
    ties,
    zero_starts,
)


def _bytes(value: float) -> bytes:
    return struct.pack("<d", value)


def _loop(total: float, x: float, count: int, bound: float) -> tuple[int, float]:
    n = 0
    while n < count:
        nxt = total + x
        if not nxt < bound:
            break
        total = nxt
        n += 1
    return n, total


def _assert_fold_below(total: float, x: float, count: int, bound: float) -> None:
    n, t = fold_below(total, x, count, bound)
    expected_n, expected_t = _loop(total, x, count, bound)
    assert (n, _bytes(t)) == (expected_n, _bytes(expected_t)), (
        total.hex(), x.hex(), count, bound.hex(), n, t.hex(), expected_n, expected_t.hex()
    )


@st.composite
def zero_steps(draw):
    return draw(non_negative), draw(st.sampled_from([0.0, -0.0])), draw(counts)


@st.composite
def bounded(draw, cases):
    """A case and a bound placed against a value of its fold."""
    total, x, count = draw(cases)
    value = repeat_add(total, x, draw(st.integers(0, count + 1)))
    bound = draw(
        st.sampled_from(["at", "above", "below", "inf", "-inf", "nan", "any"])
    )
    if bound == "at":
        bound = value
    elif bound == "above":
        bound = math.nextafter(value, math.inf)
    elif bound == "below":
        bound = math.nextafter(value, -math.inf)
    elif bound == "any":
        bound = draw(st.floats(allow_nan=False))
    else:
        bound = float(bound)
    return total, x, count, bound


@pytest.mark.parametrize(
    "strategy",
    [ties(), subnormals(), zero_starts(), binade_edges(), below_half_ulp(),
     zero_steps(), generic(), fallbacks()],
    ids=["ties", "subnormals", "zero-start", "binade-edges", "below-half-ulp",
         "zero-step", "generic", "fallbacks"],
)
def test_matches_loop(strategy):
    # 150, or more under the ``ci`` hypothesis profile (conftest.py).
    @settings(max_examples=max(150, settings.default.max_examples), deadline=None)
    @given(bounded(strategy))
    def check(case):
        _assert_fold_below(*case)

    check()


@pytest.mark.parametrize(
    "total,x,count,bound",
    [
        (0.0, 0.1, 1_000_000, 50_000.0),  # stops mid-fold, ~20 binades in
        (0.0, 0.1, 1_000_000, math.inf),  # never stops: the whole fold
        (1.0, 2.0**-53, 1_000, 1.0 + 2.0**-52),  # every step ties back to 1.0
        (1.0, 3 * 2.0**-53, 1_000, 1.5),  # parity alternates 1 and 2 ulps
        (2.0 - 2.0**-52, 2.0**-52, 100, 2.0),  # the bound is the binade edge
        (0.0, 0.25, 64, 4.0),  # the bound is a fold value: 15 steps
        (0.0, 0.25, 64, math.nextafter(4.0, math.inf)),  # just above: 16
        (5.0, 0.0, 50, 6.0),  # a zero step never reaches the bound
        (5.0, 1.0, 50, 5.0),  # the start is at the bound
        (5.0, 1.0, 50, math.nan),
        (0.0, 0.25, 0, 1.0),
    ],
)
def test_pinned_cases(total, x, count, bound):
    _assert_fold_below(total, x, count, bound)


def test_counts_the_steps_below_the_bound():
    assert fold_below(0.0, 0.25, 64, 4.0) == (15, 3.75)
    assert fold_below(0.0, 0.25, 64, math.inf) == (64, 16.0)


GENERATED = [
    WorkloadSpec(njobs=4, mean_interarrival=60.0, work_scale=0.04, iterations=120),
    WorkloadSpec(njobs=6, arrival=UNIFORM, mean_interarrival=30.0, work_scale=0.03,
                 iterations=200),
    WorkloadSpec(njobs=8, arrival=BURSTY, burst_size=3, mean_interarrival=80.0,
                 work_scale=0.03, iterations=200),
]


def _boundaries(cuts, durations, start):
    """The per-step fold of a priced fold's stretches: every step's end."""
    steps = []
    first = 0
    for cut, duration in zip(cuts, durations):
        steps.extend(repeat(duration, cut - first))
        first = cut
    return list(accumulate(steps, initial=start))[1:]


@pytest.mark.parametrize("node_policy", [None, "lowest-utilisation"],
                         ids=["first-fit", "lowest-utilisation"])
@pytest.mark.parametrize("drom", [False, True], ids=["serial", "drom"])
@pytest.mark.parametrize("index", range(len(GENERATED)))
def test_batch_cuts_of_generated_cells(monkeypatch, index, drom, node_policy):
    """Every wake a generated cell retimes, pulled back by a scheduler pass
    or woken before a same-instant completion, lands where the per-step
    fold of the stretches (``accumulate``) and a ``bisect_left`` cut at the
    event put it: the first boundary at or after the event.  Under
    ``first-fit`` some DROM pull-back lands more than one step ahead (a
    Serial cell writes no mask, so no event pulls its wakes back).  Every
    statistics catch-up records the steps that end strictly before its
    instant, again a ``bisect_left`` cut of the per-step fold, and the
    ``lowest-utilisation`` DROM cells catch up at least once."""
    original_cut, original_below = runner._cut, runner._below
    original_wake = _RunState._wake
    cuts_seen = []
    catch_ups = []
    #: Per fold (kept alive, so ids stay unique), its cuts and entry instants.
    folds = {}
    inside_cut = [False]

    def wake(state, execution):
        # A fold is priced only in a wake: check its entry instants once.
        original_wake(state, execution)
        cuts, enters = execution.cuts, execution.enters
        if cuts and id(cuts) not in folds:
            folds[id(cuts)] = (cuts, enters)
            boundaries = _boundaries(cuts, execution.durations, enters[0])
            ends = [boundaries[cut - 1] for cut in cuts]
            assert [_bytes(t) for t in enters[1:]] == [_bytes(t) for t in ends]

    def checked_cut(cuts, durations, o, start, horizon):
        fold_start = folds[id(cuts)][1][0]
        boundaries = _boundaries(cuts, durations, fold_start)
        assert _bytes(start) == _bytes(boundaries[o - 1] if o else fold_start)
        expected = bisect_left(boundaries, horizon, o) + 1
        inside_cut[0] = True
        end, wake = original_cut(cuts, durations, o, start, horizon)
        inside_cut[0] = False
        assert (end, _bytes(wake)) == (expected, _bytes(boundaries[end - 1]))
        cuts_seen.append(end - o)
        return end, wake

    def checked_below(cuts, durations, o, start, bound):
        end, at = original_below(cuts, durations, o, start, bound)
        if not cuts:
            # A fold not priced yet: nothing to record.
            assert (end, at) == (o, start)
        elif not inside_cut[0]:
            fold_start = folds[id(cuts)][1][0]
            boundaries = _boundaries(cuts, durations, fold_start)
            assert _bytes(start) == _bytes(boundaries[o - 1] if o else fold_start)
            assert end == bisect_left(boundaries, bound, o)
            assert _bytes(at) == _bytes(boundaries[end - 1] if end else fold_start)
            catch_ups.append(end - o)
        return end, at

    monkeypatch.setattr(_RunState, "_wake", wake)
    monkeypatch.setattr(runner, "_cut", checked_cut)
    monkeypatch.setattr(runner, "_below", checked_below)
    workload = generate_workload(GENERATED[index], seed=index + 1)
    ScenarioRunner(drom, node_policy=node_policy).run(workload, trace=False)
    if drom and node_policy is None:
        assert any(steps > 1 for steps in cuts_seen)
    # A pass that reads the statistics first records the steps that end
    # before it, so its pull-backs land one step ahead.
    if drom and node_policy == "lowest-utilisation":
        assert any(catch_ups)
