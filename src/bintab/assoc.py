"""Association parameters for 2^k tables.

The central family is the *parity contrast*

    f(p) = sum_{even cells} h(p(t)) - sum_{odd cells} h(p(t))

for a monotone increasing continuous ``h``.  ``h = log`` gives the log
odds ratio (LOR), the identity gives the entry difference (DI), and
``h = exp`` gives EX.  The *aggregate contrast* ``d(S_even) - d(S_odd)``
compares the two parity-class totals through a strictly monotone nonlinear
``d``; it always signs like DI.  The Bahadur parameter is the order-k
standardized central cross-moment of the k category-1 indicators.

All of these are zero on constant tables, strictly increasing in the
(1, ..., 1) entry, and flip sign when the categories of any one variable
are swapped.  Only the contrasts built from conditional-invariant ``h``
(LOR) are unchanged under rescaling of conditional pairs.

One kernel, ``_measure``, computes any kind on an entry vector: it applies
``h`` (or ``d``, or forms the Bahadur products) once and returns the value
together with its magnitude scale, the sum of the absolute summands.  A
sign compares the two, so ``evaluate``, ``magnitude_scale``, ``sign``, the
named parameters, the collapse checks and the Monte Carlo signs all come
from that single pass.

Sums are accumulated with ``math.fsum`` because e.g. EX contrasts cancel
catastrophically (parity sums of exponentials of similar magnitude).

The loops over many tables (searches, batteries, Monte Carlo signs) use
``_measure_rows``, which measures a whole stack of entry rows at once.  For
LOR, DI and EX it applies ``np.log``, the identity or ``np.exp`` to the stack;
for Bahadur it forms the products of the whole stack with ``_bahadur_z``, the
kernel ``_measure`` runs on one row.  It sums in floating point, with a bound
on the distance from the ``math.fsum`` result.  One rule, ``_decided``,
decides every sign and comparison made from these estimates: a row whose
margin is not beyond twice the bounds (a value near the sign threshold, a
non-finite sum, a degenerate Bahadur marginal, and every row of the
aggregate and custom-``h`` kinds, whose bound is infinite) is measured by
``_measure`` and tested again.  Signs, and the battery's comparisons, are
therefore the ones ``_measure`` gives.  A row on which ``_measure`` raises is
only marked failed; a caller raises by measuring it again.
"""

from __future__ import annotations

import contextlib
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import BintabError, EvaluationError, InvalidTableError
from .table import BinaryTable, _finite_totals, _float_range_shift, index_to_cell, parity_signs

#: Relative threshold below which a parameter value reports sign 0.
SIGN_TAU = 1e-9


def _identity(x: float) -> float:
    return x


@dataclass(frozen=True)
class ContrastKind:
    """Parity contrast through a monotone increasing continuous ``h``.

    ``h`` must be a side-effect-free total function on the positive reals.
    """

    name: str
    h: Callable[[float], float]


@dataclass(frozen=True)
class AggregateContrastKind:
    """Contrast of the parity-class totals through a strictly monotone ``d``."""

    name: str
    d: Callable[[float], float]


@dataclass(frozen=True)
class BahadurKind:
    """Order-k standardized central cross-moment of the category-1 indicators."""

    name: str = "bahadur"


AssociationKind = Union[ContrastKind, AggregateContrastKind, BahadurKind]

LOR = ContrastKind("lor", math.log)
DI = ContrastKind("di", _identity)
EX = ContrastKind("ex", math.exp)
BAHADUR = BahadurKind()

_NAMED_KINDS = {"lor": LOR, "di": DI, "ex": EX, "bahadur": BAHADUR}


def resolve_kind(kind: AssociationKind | str) -> AssociationKind:
    """A kind object as given, or the kind named ``lor``, ``di``, ``ex`` or ``bahadur``."""
    if isinstance(kind, (ContrastKind, AggregateContrastKind, BahadurKind)):
        return kind
    try:
        return _NAMED_KINDS[kind.lower()]
    except (AttributeError, KeyError):
        raise InvalidTableError(
            f"unknown association kind {kind!r}; expected one of {sorted(_NAMED_KINDS)}"
        ) from None


def _applied(f: Callable[[float], float], xs, name: str, noun: str) -> list[float]:
    """``[float(f(x)) for x in xs]``; EvaluationError when ``f`` fails or leaves the reals."""
    try:
        vals = [float(f(x)) for x in xs]
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(f"{name} failed on {noun}: {exc}") from exc
    if not all(map(math.isfinite, vals)):
        raise EvaluationError(f"{name} produced a non-finite value on {noun}")
    return vals


def contrast(table: BinaryTable, h: Callable[[float], float]) -> float:
    """Parity contrast sum(h over even cells) - sum(h over odd cells)."""
    return _measure(table.entries, table.k, ContrastKind("contrast", h))[0]


def lor(table: BinaryTable) -> float:
    """Log odds ratio: the parity contrast of the log entries."""
    return contrast(table, math.log)


def di(table: BinaryTable) -> float:
    """Entry-difference parameter: the parity contrast of the entries themselves."""
    return contrast(table, _identity)


def ex(table: BinaryTable) -> float:
    """Parity contrast of the exponentials of the entries.

    Raises :class:`EvaluationError` on overflow rather than saturating.
    """
    return contrast(table, math.exp)


def odds_ratio(table: BinaryTable) -> float:
    """Product of even-parity entries over product of odd-parity entries.

    Computed as ``exp(lor)`` to avoid overflow of the raw products.  Raises
    :class:`EvaluationError` when the ratio itself leaves the float range.
    """
    value = lor(table)
    with contextlib.suppress(OverflowError):  # above about 709
        ratio = math.exp(value)
        if ratio > 0.0:  # 0.0 below about -745
            return ratio
    raise EvaluationError(f"the odds ratio exp({value!r}) leaves the float range")


def aggregate_contrast(table: BinaryTable, d: Callable[[float], float]) -> float:
    """``d(sum over even cells) - d(sum over odd cells)``."""
    return _measure(table.entries, table.k, AggregateContrastKind("aggregate", d))[0]


def _bahadur_z(entries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell products of standardized indicator factors, for each row of ``(..., 2**k)``.

    Each row is normalized to sum 1 (scaled first by ``_finite_totals``).
    Returns the products, shaped like ``entries``, and the ``(k, ...)``
    category-1 marginals ``mu``; a row with a marginal outside (0, 1) has a
    zero or NaN ``sigma`` and so NaN products.  One row or a stack, the
    arithmetic of each row is the same, bit for bit.
    """
    lead = entries.shape[:-1]
    z, mus = np.ones(lead + (2,) * k), []
    with np.errstate(all="ignore"):  # an infinite entry leaves NaN shares, with no warning
        entries = _finite_totals(entries)
        arr = (entries / entries.sum(axis=-1, keepdims=True)).reshape(z.shape)
        for axis in range(k):
            # the marginal as a sum over the other axes, then its first category:
            # the same reduction for one row and for a stack
            mu = arr.sum(axis=tuple(len(lead) + a for a in range(k) if a != axis))[..., 0]
            sigma = np.sqrt(mu * (1.0 - mu))
            factor = np.stack(((1.0 - mu) / sigma, -mu / sigma), axis=-1)
            z = z * factor.reshape(lead + tuple(2 if a == axis else 1 for a in range(k)))
            mus.append(mu)
        return (arr * z).reshape(entries.shape), np.array(mus)


def bahadur(table: BinaryTable) -> float:
    """Standardized central cross-moment of all k category-1 indicators.

    The table is normalized to sum 1; with ``X_i = 1`` when ``j_i = 1`` and
    0 otherwise, returns ``E[prod_i (X_i - mu_i) / sigma_i]``.
    """
    return _measure(table.entries, table.k, BAHADUR)[0]


def _check_dimension(kind: AssociationKind, k: int) -> None:
    """InvalidTableError when ``kind`` is Bahadur and k < 2: the one check of a kind's k."""
    if isinstance(kind, BahadurKind) and k < 2:
        raise InvalidTableError(f"bahadur requires k >= 2, got k={k}")


def _parity_fsums(vals: list[float], k: int) -> tuple[float, float]:
    """``math.fsum`` of the ``h`` values signed by parity, and of their magnitudes.

    When a partial sum overflows, the scale is beyond the float range and is
    returned as ``inf``, against which every finite value signs 0.  The sums
    are then taken at ``2^-s`` (``table._float_range_shift``), and the value,
    scaled back, is returned when they sign 0 too; otherwise the sign is
    undecided and :class:`EvaluationError` is raised.
    """
    signs = parity_signs(k).tolist()
    try:
        return math.fsum(map(operator.mul, vals, signs)), math.fsum(map(abs, vals))
    except OverflowError:
        shift = int(_float_range_shift(max(map(abs, vals)), len(vals)))
        scaled = [math.ldexp(v, -shift) for v in vals]
        value = math.fsum(map(operator.mul, scaled, signs))
    if thresholded_sign(value, math.fsum(map(abs, scaled))) != 0:
        raise EvaluationError(
            "the parity sums overflow the float range, which leaves the sign undecided")
    return value * 2.0**shift, math.inf


def _measure(entries: np.ndarray, k: int, kind: AssociationKind) -> tuple[float, float]:
    """Value of ``kind`` on an entry vector and its magnitude scale, from one pass.

    The scale is the sum of the absolute summands entering the value, ``inf``
    when that sum passes the float range (:func:`_parity_fsums`).  Apart
    from the batched ``_measure_rows``, no other function branches on the
    kind to compute a value; callers resolve it first.  Past
    :func:`_check_dimension` it raises no :class:`BintabError` but
    :class:`EvaluationError`.
    """
    if isinstance(kind, ContrastKind):
        return _parity_fsums(_applied(kind.h, entries.tolist(), "h", "a table entry"), k)
    if isinstance(kind, AggregateContrastKind):
        even = parity_signs(k) > 0
        # a total past the float range reaches d as inf, with no numpy warning
        with np.errstate(over="ignore"):
            totals = [float(entries[even].sum()), float(entries[~even].sum())]
        a, b = _applied(kind.d, totals, "d", "a parity-class total")
        return a - b, abs(a) + abs(b)
    _check_dimension(kind, k)
    z, mus = _bahadur_z(entries, k)
    for axis, mu in enumerate(mus.tolist()):
        if not 0.0 < mu < 1.0:
            top = int(np.argmax(entries))
            if entries[top] == math.inf:  # which leaves every marginal NaN
                raise EvaluationError(f"entry at cell {index_to_cell(top, k)} is inf, "
                                      "past the float range")
            raise EvaluationError(f"degenerate marginal for variable {axis + 1}: mu={mu}")
    with np.errstate(over="ignore"):
        scale = float(np.abs(z).sum())
    if not scale < math.inf:  # NaN too: 0 * inf
        raise EvaluationError("the Bahadur products overflow the float range")
    return math.fsum(z.tolist()), scale


#: The built-in contrast kinds and the ufunc applying their ``h`` to a stack of
#: rows.  Kinds are matched by equality, name and ``h`` alike, so a kind that
#: only borrows a name is measured row by row.  Bahadur rows are stacked by
#: ``_bahadur_z`` instead; aggregate kinds are measured row by row.
_UFUNCS = ((LOR, np.log), (DI, np.positive), (EX, np.exp))

#: Per-term bound, relative to the scale, on the distance between a floating
#: sum of ufunc values and the ``math.fsum`` of ``h`` values: the sum in any
#: order is within n units of 2^-53 of the exact sum of its terms, each ufunc
#: value within a few ulps of the ``math`` one, and 2^-51 per term plus 16
#: spare terms covers both with room.  Stacked Bahadur products are the
#: single-row floats, so only the order of summation counts for them.
_TERM_BOUND = 2.0**-51


class _Rows(NamedTuple):
    """``_measure`` of each row of a stack, from :func:`_measure_rows`.

    ``values`` and ``scales`` are within ``bounds`` of the ``_measure``
    results; ``bounds`` is 0 on rows that ``_measure`` measured itself,
    which are all rows of the aggregate and custom-``h`` kinds and of
    Bahadur at k < 2.  ``signs`` are exactly ``thresholded_sign`` of the
    ``_measure`` results.  ``failed`` marks the rows on which ``_measure``
    raised, which have value, scale and sign 0; a caller that raises
    measures such a row again, and ``_measure`` raises the same error.
    """

    values: np.ndarray
    scales: np.ndarray
    bounds: np.ndarray
    signs: np.ndarray
    failed: np.ndarray


def _measure_rows(rows: np.ndarray, k: int, kind: AssociationKind) -> _Rows:
    """Measure ``kind`` on every row of a ``(B, 2**k)`` stack of entry rows.

    No error is raised for a row: callers that stop at the first error in
    their own order of rows find its row in ``failed``.
    """
    count = rows.shape[0]
    ufunc = next((f for known, f in _UFUNCS if kind == known), None)
    values, scales, bounds = np.zeros(count), np.zeros(count), np.full(count, np.inf)
    if ufunc is not None or (isinstance(kind, BahadurKind) and k >= 2):
        with np.errstate(all="ignore"):
            if ufunc is not None:
                terms = ufunc(rows)
                values = terms @ parity_signs(k)
            else:  # a degenerate marginal leaves NaN products, so its row is settled
                terms = _bahadur_z(rows, k)[0]
                values = terms.sum(axis=1)
            scales = np.abs(terms, out=terms).sum(axis=1)
            bounds = (rows.shape[1] + 16) * _TERM_BOUND * scales
    measured = _Rows(values, scales, bounds, np.zeros(count, np.int8), np.zeros(count, bool))
    measured.signs[:] = _decided(_signs, k, kind, (measured, rows))
    return measured


def _signs(measured: _Rows):
    """``thresholded_sign`` of each row, and the margin of its threshold."""
    values, threshold = measured.values, SIGN_TAU * measured.scales
    return np.where(np.abs(values) <= threshold, 0, np.sign(values)), (np.abs(values) - threshold,)


def _decided(test, k: int, kind: AssociationKind, *stacks) -> np.ndarray:
    """``test``'s outcome per row as the ``_measure`` results decide it: the one decision rule.

    Each stack is a ``(measured, rows)`` pair, and ``test(*measured)`` returns
    its outcome per row and the margins of its comparisons.  A row with a
    margin not beyond twice the stacks' summed bounds (twice covers the
    rounding of the comparison too; a NaN margin and an infinite bound are
    never beyond) is measured by ``_measure`` in every stack, unless exact
    already (bound 0), and the test is taken again.  A row on which
    ``_measure`` raises takes value and scale 0 and is marked ``failed``.
    """
    measured = [stack for stack, _ in stacks]
    error = 2.0 * sum(stack.bounds for stack in measured)
    with np.errstate(invalid="ignore"):  # np.min keeps a NaN margin, so its row is unsure
        outcome, margins = test(*measured)
        unsure = np.flatnonzero(~(np.abs(margins).min(axis=0) > error))
    if not unsure.size:
        return outcome
    for (values, scales, bounds, _, failed), rows in stacks:
        for j in unsure[bounds[unsure] != 0.0].tolist():
            try:
                values[j], scales[j] = _measure(rows[j], k, kind)
            except BintabError:
                failed[j] = True
                values[j] = scales[j] = 0.0
            bounds[j] = 0.0
    return test(*measured)[0]


def evaluate(table: BinaryTable, kind: AssociationKind | str) -> float:
    """Evaluate any association kind, given as an object or its name, on a table."""
    return _measure(table.entries, table.k, resolve_kind(kind))[0]


def magnitude_scale(table: BinaryTable, kind: AssociationKind | str) -> float:
    """Scale against which a value of ``kind`` is compared for sign extraction.

    The sum of the absolute summands entering the parameter (``inf`` past
    the float range); a value within ``SIGN_TAU`` of zero relative to this
    scale reports sign 0.
    """
    return _measure(table.entries, table.k, resolve_kind(kind))[1]


def thresholded_sign(value: float, scale: float) -> int:
    """-1, 0 or +1; zero when ``|value| <= SIGN_TAU * scale``."""
    if abs(value) <= SIGN_TAU * scale:
        return 0
    return 1 if value > 0 else -1


def sign(table: BinaryTable, kind: AssociationKind | str) -> int:
    """Sign of ``kind`` on ``table``, zero within ``SIGN_TAU`` of its magnitude scale."""
    return thresholded_sign(*_measure(table.entries, table.k, resolve_kind(kind)))
