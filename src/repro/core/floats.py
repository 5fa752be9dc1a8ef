"""Float folds whose result does not depend on how they are evaluated.

The simulator's accumulators (the stats counters, a step run's end, an
application's standalone runtime) are defined as left folds of per-step
float additions, because that is what the single-step reference loop
computes.  :func:`repeat_add` returns the same float as ``count`` such
additions in O(binades crossed) instead of O(count), :func:`fold_below`
counts, in the same time, how many such additions stay below a bound (the
simulated clock's step boundaries before an event), and :func:`left_sum`
is the plain left fold that builtin ``sum`` stopped being on Python 3.12
(which compensates float rounding, CPython gh-100425), so rows stay the
same on every supported Python.
"""

from __future__ import annotations

import sys
from functools import reduce
from itertools import repeat
from math import frexp, inf, ldexp
from operator import add
from typing import Iterable

#: Below this count the plain fold is cheaper than looking for a steady step.
_CUTOFF = 16
#: Every float below ``2**-1021`` (subnormals, zero and the first normal
#: binade) is a multiple of ``2**-1074``: one region of uniform spacing.
_TINY = sys.float_info.min
#: ``1 - 2**-53``: ``ldexp(_BELOW_ONE, e)`` is the largest float below ``2**e``.
_BELOW_ONE = 1.0 - 2.0**-53


def left_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: builtin ``sum``'s float result before 3.12."""
    return reduce(add, values, 0.0)


def _exponent(value: float) -> int:
    """``e`` of the binade ``[2**(e-1), 2**e)`` holding ``value``; everything
    below ``2**-1021`` counts as one binade, as its spacing is uniform."""
    return frexp(value)[1] if value >= _TINY else -1021


def repeat_add(total: float, x: float, count: int) -> float:
    """Exactly ``reduce(add, repeat(x, count), total)``, without the loop.

    Inside one binade ``[2**(e-1), 2**e)`` every float is a multiple of the
    spacing ``u``, so ``fl(t + x) - t`` is the same ``d`` for every ``t``
    there, except on a tie (``x/u`` half-way between integers) where it
    depends on the parity of ``t/u``; a tied step lands on an even value, so
    once two consecutive steps inside the binade add the same ``d``, every
    further step below the binade's last float ``2**e - u`` adds ``d`` too.
    Those steps collapse to one exact ``t + n*d`` (a multiple of ``u`` below
    ``2**e``); real additions cross each binade edge.  Non-finite or
    negative inputs, and short counts, take the plain fold.
    """
    if count < _CUTOFF or not (0.0 <= total < inf and 0.0 <= x < inf):
        return reduce(add, repeat(x, count), total)
    prev, step = total, -1.0
    while count:
        nxt = total + x
        count -= 1
        d = nxt - total
        if d == step:
            # Two equal steps (never 0 or inf: those returned already); if
            # ``prev``, ``total`` and ``nxt`` share a binade, the step is steady.
            e = _exponent(nxt)
            if _exponent(prev) == e:
                # Both operands are multiples of ``u`` below ``2**53 * u``,
                # so the rounded quotient has the exact quotient's floor.
                limit = ldexp(_BELOW_ONE, e)
                n = min(count, int((limit - nxt) / d))
                count -= n
                nxt += n * d
        elif d == 0.0 or nxt == inf:
            # Every further addition returns ``nxt`` again.
            return nxt
        prev, total, step = total, nxt, d
    return total


def fold_below(total: float, x: float, count: int, bound: float) -> tuple[int, float]:
    """``(n, t)``: how many of the ``count`` additions of
    ``reduce(add, repeat(x, count), total)`` give a value below ``bound``,
    and the fold ``t`` after those ``n`` additions.

    The fold never decreases, so the first addition that reaches ``bound``
    ends the count.  A steady step (see :func:`repeat_add`) jumps to the
    last value below both the binade's last float and ``bound``: while
    ``t + m*d`` stays in the binade it is exact, so one division finds the
    largest ``m`` with ``t + m*d < bound`` up to a tie at the bound itself,
    which one exact comparison settles.
    """
    n = 0
    if count < _CUTOFF or not (0.0 <= total < inf and 0.0 <= x < inf):
        while n < count:
            nxt = total + x
            if not nxt < bound:
                break
            total = nxt
            n += 1
        return n, total
    prev, step = total, -1.0
    while n < count:
        nxt = total + x
        if not nxt < bound:
            break
        n += 1
        d = nxt - total
        if d == step:
            e = _exponent(nxt)
            if _exponent(prev) == e:
                # As in repeat_add; ``bound`` below the binade's last float
                # is in the binade too, so ``bound - nxt`` is exact and the
                # floor of the quotient is ``m`` or, on a tie, ``m + 1``.
                limit = ldexp(_BELOW_ONE, e)
                m = min(count - n, int((limit - nxt) / d))
                if bound <= limit:
                    m = min(m, int((bound - nxt) / d))
                    if not nxt + m * d < bound:
                        m -= 1
                n += m
                nxt += m * d
        elif d == 0.0:
            # Every further addition returns ``nxt``, which is below ``bound``.
            return count, nxt
        prev, total, step = total, nxt, d
    return n, total
