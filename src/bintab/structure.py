"""Constructive table surgery: canonical reduction and additive decomposition.

``canonicalize`` rescales conditional pairs until only the cell (1, ..., 1)
differs from 1; the value left there is the k-th order odds ratio, and the
log odds ratio is untouched by every step.  ``decompose`` splits a table
into a constant component, zero-DI two-cell components, and single-peak
components whose peaks all sit in one parity class, so the DI of the input
is the sum of the (same-signed) peak DIs.  Its greedy finds each pair's cells
through heaps, in O(2^k log 2^k) for the whole split, and its components
share one read-only buffer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, InvalidTableError
from .table import (BinaryTable, Cell, _check_count, _derived_table, _table_rows, index_to_cell,
                    parity_signs)


class Step(NamedTuple):
    """The table after canonical reduction step ``variable``."""

    variable: int
    table: BinaryTable


@dataclass(frozen=True)
class CanonicalTrace:
    """Record of the reduction: one intermediate table per variable."""

    steps: tuple[Step, ...]
    final: BinaryTable


def canonicalize(table: BinaryTable) -> CanonicalTrace:
    """Reduce to the canonical table by per-pair division, one variable at a time.

    Step i divides both members of every axis-i pair {j_i = 1, j_i = 2} by
    the j_i = 2 member.  The division cancels in the conditional
    distribution of variable i given the rest, and adds equal-and-opposite
    log terms to the two parity classes, so the LOR never moves.  After
    step i every entry outside the j_1 = ... = j_i = 1 block is 1; after
    step k only (1, ..., 1) remains, holding the odds ratio.

    Raises :class:`EvaluationError` naming the step whose division sends an
    entry beyond the float range or to 0.
    """
    final, steps = table, []
    for i in range(1, table.k + 1):
        arr = final.array()
        final = _derived_table(table.k, f"canonical step {i}",
                               lambda: (arr / np.take(arr, [1], axis=i - 1)).reshape(-1))
        steps.append(Step(i, final))
    return CanonicalTrace(steps=tuple(steps), final=final)


class Peak(NamedTuple):
    """A single-peak component and the cell of its peak."""

    cell: Cell
    table: BinaryTable


@dataclass(frozen=True)
class Decomposition:
    """Additive split of a table into positive components.

    ``pair_components[0]`` is constant; each later one is constant except
    two equal, larger cells of opposite parity (zero DI).  Each peak
    component is constant except one larger cell; all peaks share the
    parity class named by ``case`` ("positive" = even, "negative" = odd,
    "zero" = no peaks).  Every cell of every component includes
    ``increment``, and the components sum back to the input to within
    rounding (test_7 checks 1e-12).  The components' entries are the rows
    of one read-only ``(C, 2^k)`` buffer, which they share.
    """

    s: float
    case: str
    pair_components: tuple[BinaryTable, ...]
    peak_components: tuple[Peak, ...]
    increment: float


#: Largest k of :func:`decompose`: its output holds up to 2^k components of
#: 2^k entries each (a 129 MiB ``tracemalloc`` peak at k = 12, x4 per k).
MAX_DECOMPOSE_K = 12


def decompose(table: BinaryTable) -> Decomposition:
    """Greedy additive decomposition into zero-DI pairs plus one-signed peaks.

    Subtract the smallest entry s, then repeatedly match the smallest
    positive residue cell with the largest cell of opposite parity (ties at
    either end go to the lowest linear index; heaps find both in O(log 2^k)),
    emitting a two-cell component and subtracting it, until that partner's
    residue is 0: one parity class is exhausted, and whatever remains
    becomes single-peak components, all in the surviving class.  Every
    component is ``increment = s / (#pair components + #peaks)`` in every
    cell plus its raised cells, so the components are positive and sum back
    to the input to within rounding.
    Raises :class:`InvalidTableError` for k above ``MAX_DECOMPOSE_K`` and
    :class:`EvaluationError` when the increment is below the smallest normal
    float, where it would keep too few digits for that sum.
    """
    k = _check_count("k", table.k, 0, MAX_DECOMPOSE_K)  # before any component is built
    s = float(table.entries.min())
    residue = (table.entries - s).tolist()  # Python floats subtract as float64 does
    even = (parity_signs(k) > 0).tolist()
    # heaps keyed (value, index) and, per class indexed by even[t], (-value, index), so
    # ties at either end go to the lowest index; an item is stale, and skipped, once
    # residue[index] differs from it
    smallest = [(r, t) for t, r in enumerate(residue) if r > 0]
    largest = tuple([(-r, t) for r, t in smallest if even[t] == cls] for cls in (False, True))
    for heap in (smallest, *largest):
        heapq.heapify(heap)

    lows, highs, values = [], [], []  # the cells and value of each pair component
    while smallest:
        value, t1 = heapq.heappop(smallest)
        if residue[t1] != value:
            continue
        other = largest[not even[t1]]
        while other and residue[other[0][1]] != -other[0][0]:
            heapq.heappop(other)
        if not other:  # only t1's class holds positive cells
            break
        partner = other[0][1]  # the largest residue of the other class, so >= value
        lows.append(t1)
        highs.append(partner)
        values.append(value)
        residue[t1] = 0.0
        residue[partner] -= value
        if residue[partner] > 0:
            heapq.heappush(smallest, (residue[partner], partner))
            heapq.heappush(other, (-residue[partner], partner))
    peaks = [t for t, r in enumerate(residue) if r > 0]
    case = "zero" if not peaks else "positive" if even[peaks[0]] else "negative"

    count = 1 + len(values) + len(peaks)  # the constant component raises no cell
    increment = s / count
    if increment < np.finfo(np.float64).tiny:  # too few digits to sum back
        raise EvaluationError(f"increment {increment!r} is below the smallest normal float")
    block = np.zeros((count, 2**k))
    rows = np.arange(1, count)
    block[rows, lows + peaks] = values + [residue[t] for t in peaks]
    block[rows[:len(values)], highs] = values
    block += increment
    components = _table_rows(k, block)
    first_peak = 1 + len(values)
    peak_components = tuple(Peak(index_to_cell(t, k), c)
                            for t, c in zip(peaks, components[first_peak:]))
    return Decomposition(s, case, tuple(components[:first_peak]), peak_components, increment)


def recompose(d: Decomposition) -> BinaryTable:
    """Entrywise sum of all components of a decomposition."""
    parts = list(d.pair_components) + [t for _, t in d.peak_components]
    if not parts:
        raise InvalidTableError("decomposition has no components")
    total = np.zeros_like(parts[0].entries)
    for part in parts:
        if part.k != parts[0].k:
            raise InvalidTableError("components disagree on k")
        total = total + part.entries
    return BinaryTable(parts[0].k, total)
