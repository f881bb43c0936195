"""Collapsibility analysis: layer-versus-collapsed signs and property batteries.

Collapsing a table over one variable can reverse the direction of
association reported by a parameter (Simpson's paradox).  DI is immune:
the collapsed DI is the literal sum of the two layer DIs, so equal layer
signs force the collapsed sign.  LOR and EX are not, and
:func:`paradox_search` hunts for reversal witnesses at random.

:func:`property_battery` stress-tests the defining properties of an
association parameter on random tables: vanishing on constant tables plus
strict monotonicity in the (1, ..., 1) entry, exact sign flip under
single-variable category swaps, and invariance under conditional-pair
rescaling.  Failures are expected for some kinds (DI and EX both depend
on more than the conditional structure) and are reported with replayable
witnesses rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .assoc import AssociationKind, SIGN_TAU, _measure, evaluate, resolve_kind, thresholded_sign
from .errors import EvaluationError
from .table import MAX_DIM, BinaryTable, _check_count, rescale_conditional_pair


def random_table(k: int, rng: np.random.Generator) -> BinaryTable:
    """Entrywise log-uniform table on [e^-3, e^3]."""
    k = _check_count("k", k, 0, MAX_DIM)  # before 2^k draws are allocated
    return BinaryTable(k, np.exp(rng.uniform(-3.0, 3.0, size=2**k)))


@dataclass(frozen=True)
class CollapseReport:
    """Signs of one parameter across both layers of a variable and the collapse."""

    variable: int
    kind: str
    values: tuple[float, float, float]
    layer_signs: tuple[int, int]
    collapsed_sign: int
    paradox: bool


def collapse_check(table: BinaryTable, kind: AssociationKind | str, i: int) -> CollapseReport:
    """Evaluate ``kind`` on both layers of variable ``i`` and on the collapse.

    ``paradox`` is set when the layer signs agree, are nonzero, and the
    collapsed sign differs from them.
    """
    kind = resolve_kind(kind)
    i = _check_count("variable", i, 1, table.k)
    arr = table.array()
    parts = (arr.take(0, i - 1), arr.take(1, i - 1), arr.sum(axis=i - 1))
    measured = [_measure(part.reshape(-1), table.k - 1, kind) for part in parts]
    values = tuple(value for value, _ in measured)
    signs = tuple(thresholded_sign(value, scale) for value, scale in measured)
    paradox = signs[0] == signs[1] != 0 and signs[2] != signs[0]
    return CollapseReport(
        variable=i,
        kind=kind.name,
        values=values,
        layer_signs=(signs[0], signs[1]),
        collapsed_sign=signs[2],
        paradox=paradox,
    )


def simpson_scan(
    table: BinaryTable, kinds: Sequence[AssociationKind | str]
) -> list[CollapseReport]:
    """One collapse report per (variable, kind) pair."""
    kinds = [resolve_kind(kind) for kind in kinds]
    return [
        collapse_check(table, kind, i)
        for i in range(1, table.k + 1)
        for kind in kinds
    ]


def paradox_search(
    kind: AssociationKind | str, k: int, trials: int, seed: int
) -> Optional[BinaryTable]:
    """Random search for a table where collapsing reverses the sign of ``kind``.

    Each trial draws its table from a stream keyed by (seed, trial), so the
    outcome does not depend on evaluation order.  Returns the first witness
    table, or None when the budget runs out (always None for DI).
    """
    kind = resolve_kind(kind)
    k = _check_count("k", k, 2, MAX_DIM)  # one variable to collapse, one left
    trials = _check_count("trials", trials)
    seed = _check_count("seed", seed)
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        table = random_table(k, rng)
        if any(report.paradox for report in simpson_scan(table, [kind])):
            return table
    return None


@dataclass(frozen=True)
class PropertyBatterySummary:
    """Outcome of a randomized property battery for one parameter kind."""

    kind: str
    k: int
    trials: int
    seed: int
    failures: dict[str, int]
    witnesses: dict[str, list[dict]] = field(repr=False)

    PROPERTIES = ("monotone", "swap_antisymmetry", "conditional_invariance")


def _values_match(before: float, after: float, scale: float) -> bool:
    # invariance up to FP noise; both below the sign floor of ``before``'s
    # table (magnitude ``scale``) counts as equal
    if abs(after - before) <= 1e-9 * max(abs(before), abs(after)):
        return True
    floor = SIGN_TAU * scale
    return abs(before) <= floor and abs(after) <= floor


def property_battery(
    kind: AssociationKind | str, k: int, trials: int, seed: int, witness_cap: int = 10
) -> PropertyBatterySummary:
    """Randomized check of the three defining properties of ``kind``.

    Per trial (stream keyed by (seed, trial)): draw a table, then check

    - monotone: sign 0 on a random constant table, and the value strictly
      increases when the (1, ..., 1) entry is scaled up;
    - swap_antisymmetry: every single-variable category swap flips the
      thresholded sign;
    - conditional_invariance: a random sequence of conditional-pair
      rescalings leaves the value unchanged (up to FP noise).

    Failures are counted per property; up to ``witness_cap`` witnesses per
    property record the table and the exact operation for replay.
    """
    kind = resolve_kind(kind)
    k = _check_count("k", k, 1, MAX_DIM)
    trials = _check_count("trials", trials)
    seed = _check_count("seed", seed)
    witness_cap = _check_count("witness_cap", witness_cap)
    counts = {name: 0 for name in PropertyBatterySummary.PROPERTIES}
    witnesses: dict[str, list[dict]] = {name: [] for name in PropertyBatterySummary.PROPERTIES}

    def record(name: str, payload: dict):
        counts[name] += 1
        if len(witnesses[name]) < witness_cap:
            witnesses[name].append(payload)

    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        table = random_table(k, rng)

        const_value = float(np.exp(rng.uniform(-3.0, 3.0)))
        factor = float(np.exp(rng.uniform(0.1, 1.0)))
        bumped = table.entries.copy()
        bumped[0] *= factor
        value, scale = _measure(table.entries, k, kind)
        constant_sign = thresholded_sign(*_measure(np.full(2**k, const_value), k, kind))
        if constant_sign != 0 or not _measure(bumped, k, kind)[0] > value:
            record("monotone", {"table": table, "constant": const_value, "factor": factor})

        base_sign = thresholded_sign(value, scale)
        for i in range(1, k + 1):
            swapped = np.flip(table.array(), i - 1).reshape(-1)
            if thresholded_sign(*_measure(swapped, k, kind)) != -base_sign:
                record("swap_antisymmetry", {"table": table, "variable": i})
                break

        rescaled = table
        ops = []
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(1, k + 1))
            suffix = tuple(int(j) for j in rng.integers(1, 3, size=k - 1))
            c = float(np.exp(rng.uniform(-2.0, 2.0)))
            rescaled = rescale_conditional_pair(rescaled, i, suffix, c)
            ops.append({"variable": i, "suffix": suffix, "factor": c})
        try:
            invariant = _values_match(value, evaluate(rescaled, kind), scale)
        except EvaluationError:
            # rescaling drove the table outside the kind's evaluable range
            invariant = False
        if not invariant:
            record("conditional_invariance", {"table": table, "rescales": ops})

    return PropertyBatterySummary(
        kind=kind.name, k=k, trials=trials, seed=seed,
        failures=counts, witnesses=witnesses,
    )
