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
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, InvalidTableError
from .table import BinaryTable, parity_signs

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


def _h_values(entries: np.ndarray, h: Callable[[float], float]) -> list[float]:
    try:
        vals = [float(h(float(x))) for x in entries]
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(f"h failed on a table entry: {exc}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise EvaluationError("h produced a non-finite value on a table entry")
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

    Computed as ``exp(lor)`` to avoid overflow of the raw products.
    """
    return math.exp(lor(table))


def aggregate_contrast(table: BinaryTable, d: Callable[[float], float]) -> float:
    """``d(sum over even cells) - d(sum over odd cells)``."""
    return _measure(table.entries, table.k, AggregateContrastKind("aggregate", d))[0]


def _bahadur_z(entries: np.ndarray, k: int) -> np.ndarray:
    """Per-cell product of standardized indicator factors (normalized weights)."""
    arr = (entries / entries.sum()).reshape((2,) * k)
    z = np.ones_like(arr)
    for axis in range(k):
        shape = [1] * k
        shape[axis] = 2
        mu = float(arr.sum(axis=tuple(a for a in range(k) if a != axis))[0])
        if not 0.0 < mu < 1.0:
            raise EvaluationError(f"degenerate marginal for variable {axis + 1}: mu={mu}")
        sigma = math.sqrt(mu * (1.0 - mu))
        z = z * (np.array([1.0 - mu, -mu]).reshape(shape) / sigma)
    return arr * z


def bahadur(table: BinaryTable) -> float:
    """Standardized central cross-moment of all k category-1 indicators.

    The table is normalized to sum 1; with ``X_i = 1`` when ``j_i = 1`` and
    0 otherwise, returns ``E[prod_i (X_i - mu_i) / sigma_i]``.
    """
    return _measure(table.entries, table.k, BAHADUR)[0]


def _measure(entries: np.ndarray, k: int, kind: AssociationKind) -> tuple[float, float]:
    """Value of ``kind`` on an entry vector and its magnitude scale, from one pass.

    The scale is the sum of the absolute summands entering the value.  No
    other function branches on the kind to compute a value; callers resolve it first.
    """
    if isinstance(kind, ContrastKind):
        vals = _h_values(entries, kind.h)
        signs = parity_signs(k)
        value = math.fsum(v if s > 0 else -v for v, s in zip(vals, signs))
        return value, math.fsum(abs(v) for v in vals)
    if isinstance(kind, AggregateContrastKind):
        even = parity_signs(k) > 0
        try:
            a = float(kind.d(float(entries[even].sum())))
            b = float(kind.d(float(entries[~even].sum())))
        except (OverflowError, ValueError) as exc:
            raise EvaluationError(f"d failed on a parity-class total: {exc}") from exc
        if not (math.isfinite(a) and math.isfinite(b)):
            raise EvaluationError("d produced a non-finite value on a parity-class total")
        return a - b, abs(a) + abs(b)
    if k < 2:
        raise InvalidTableError(f"bahadur requires k >= 2, got k={k}")
    z = _bahadur_z(entries, k)
    return float(math.fsum(z.reshape(-1))), float(np.abs(z).sum())


def evaluate(table: BinaryTable, kind: AssociationKind | str) -> float:
    """Evaluate any association kind, given as an object or its name, on a table."""
    return _measure(table.entries, table.k, resolve_kind(kind))[0]


def magnitude_scale(table: BinaryTable, kind: AssociationKind | str) -> float:
    """Scale against which a value of ``kind`` is compared for sign extraction.

    The sum of the absolute summands entering the parameter; a value within
    ``SIGN_TAU`` of zero relative to this scale reports sign 0.
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
