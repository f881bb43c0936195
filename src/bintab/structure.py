"""Constructive table surgery: canonical reduction and additive decomposition.

``canonicalize`` rescales conditional pairs until only the cell (1, ..., 1)
differs from 1; the value left there is the k-th order odds ratio, and the
log odds ratio is untouched by every step.  ``decompose`` splits a table
into a constant component, zero-DI two-cell components, and single-peak
components whose peaks all sit in one parity class, so the DI of the input
is the sum of the (same-signed) peak DIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, InvalidTableError
from .table import BinaryTable, Cell, _derived_table, index_to_cell, parity_signs


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
    ``increment``, and the components sum back to the input exactly.
    """

    s: float
    case: str
    pair_components: tuple[BinaryTable, ...]
    peak_components: tuple[Peak, ...]
    increment: float


def decompose(table: BinaryTable) -> Decomposition:
    """Greedy additive decomposition into zero-DI pairs plus one-signed peaks.

    Subtract the smallest entry s, then repeatedly match the smallest
    positive residue cell with the largest cell of opposite parity
    (ties at either end go to the lowest linear index), emitting a
    two-cell component and subtracting it.  The loop stops as soon as one
    parity class is exhausted; whatever remains becomes single-peak
    components, necessarily all in the surviving class.  Finally s is
    spread evenly: every cell of every component gains
    ``s / (#pair components + #peaks)``, keeping components positive and
    making the entrywise sum reproduce the input.  Raises
    :class:`EvaluationError` when that increment is below the smallest
    normal float, where it would keep too few digits for the sum to do so.
    """
    k = table.k
    n = 2**k
    residue = table.entries.copy()
    s = float(residue.min())
    residue -= s
    even = parity_signs(k) > 0

    pairs: list[tuple[int, int, float]] = []
    while residue[even].any() and residue[~even].any():
        # argmin/argmax return the first occurrence: ties go to the lowest index
        t1 = int(np.argmin(np.where(residue > 0, residue, np.inf)))
        value = residue[t1]
        # value is the least positive residue and both classes hold one, so partner's is >= value
        partner = int(np.argmax(np.where(even != even[t1], residue, -np.inf)))
        pairs.append((t1, partner, float(value)))
        residue[t1] = 0.0
        residue[partner] -= value

    peak_cells = (residue > 0).nonzero()[0].tolist()
    if not peak_cells:
        case = "zero"
    else:
        case = "positive" if even[peak_cells[0]] else "negative"

    increment = s / (len(pairs) + 1 + len(peak_cells))
    if increment < np.finfo(np.float64).tiny:  # too few digits to sum back exactly
        raise EvaluationError(f"increment {increment!r} is below the smallest normal float")

    def lifted(base: np.ndarray) -> BinaryTable:
        return BinaryTable(k, base + increment)

    pair_components = [lifted(np.zeros(n))]
    for t1, partner, value in pairs:
        base = np.zeros(n)
        base[t1] = value
        base[partner] = value
        pair_components.append(lifted(base))
    peak_components = []
    for t in peak_cells:
        base = np.zeros(n)
        base[t] = residue[t]
        peak_components.append(Peak(index_to_cell(t, k), lifted(base)))
    return Decomposition(
        s=s,
        case=case,
        pair_components=tuple(pair_components),
        peak_components=tuple(peak_components),
        increment=increment,
    )


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
