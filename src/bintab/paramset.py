"""The full 2^k parameter system: one DI or LOR value per margin mask.

For DI the map from table entries to the 2^k parameters is linear: the
value at mask ``m`` is ``sum_t (-1)^{popcount(m & t)} p(t)``, i.e. the
coefficient matrix is the Sylvester-ordered Hadamard matrix.  Its rows are
pairwise orthogonal with squared norm ``2^k``, so the system inverts as
``p = A v / 2^k``; both directions run in ``O(k 2^k)`` via the in-place
butterfly (:func:`fwht`).

For LOR the values at nonempty masks are log contrasts of *marginal sums*.
All of them come from one pass over the ``(3,)*k`` marginal lattice: each
axis is extended to ``(x1, x2, x1 + x2)`` so that every marginal table
appears as a sub-array, the logs are taken once, and each axis then folds
to ``(collapsed, x1 - x2)``, in ``O(k 3^k)`` overall (the Yates / fast zeta
transform pattern).  The inverse is a nonlinear system;
:func:`lor_inverse` solves it by cyclic exponential tilting: multiplying
the entries by ``exp(delta * sign_m)`` shifts the mask-m parameter by
exactly ``2^dim * delta`` while leaving every superset-mask parameter
unchanged, so each inner step hits its target in closed form and the
cycles iterate to convergence; a step's marginal is one ``np.bincount``,
and the entries are checked finite and positive once per cycle.

Zero-dimensional conventions: the empty-mask DI value is the sum of all
entries; the empty-mask LOR value is the log of the product of all entries
(the overall scale degree of freedom; marginal contrasts are scale-free).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assoc import ContrastKind
from .errors import (
    ConvergenceError,
    EvaluationError,
    InvalidTableError,
    NonRealizableParamsError,
)
from .table import BinaryTable, MarginMask, index_to_cell, parity_signs


def _kind_name(kind) -> str:
    if isinstance(kind, ContrastKind) and kind.name in ("di", "lor"):
        return kind.name
    if isinstance(kind, str) and kind.lower() in ("di", "lor"):
        return kind.lower()
    raise InvalidTableError(f"parameter system supports kinds 'di' and 'lor', got {kind!r}")


@dataclass(frozen=True, eq=False)
class ParamSet:
    """All 2^k parameter values of one kind, indexed by margin mask.

    ``values[m]`` holds the value for the mask whose integer encoding is
    ``m`` (variable 1 most significant), including the empty mask at 0.
    """

    k: int
    kind: str
    values: np.ndarray

    def __post_init__(self):
        _kind_name(self.kind)
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (2**self.k,):
            raise InvalidTableError(
                f"expected {2**self.k} values for k={self.k}, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidTableError("parameter values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def value(self, mask: MarginMask) -> float:
        if mask.k != self.k:
            raise InvalidTableError(f"mask length {mask.k} != k={self.k}")
        return float(self.values[mask.to_int()])

    def as_dict(self) -> dict[str, float]:
        """Values keyed by mask bitstring, ascending mask integer."""
        return {
            MarginMask.from_int(m, self.k).to_string(): float(v)
            for m, v in enumerate(self.values)
        }

    def allclose(self, other: "ParamSet", rtol: float = 1e-12, atol: float = 0.0) -> bool:
        return (
            self.k == other.k
            and self.kind == other.kind
            and bool(np.allclose(self.values, other.values, rtol=rtol, atol=atol))
        )


def masks_by_dimension(k: int) -> list[int]:
    """All mask integers ordered by nondecreasing dimension, ascending within."""
    return sorted(range(2**k), key=lambda m: (m.bit_count(), m))


def mask_signs(m: int, k: int) -> np.ndarray:
    """One row of the coefficient matrix: ``(-1)^{popcount(m & t)}`` over cells t."""
    t = np.arange(2**k, dtype=np.uint64)
    return np.where(np.bitwise_count(np.uint64(m) & t) % 2 == 0, 1.0, -1.0)


def fwht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of two).

    Butterfly per axis bit: ``(a, b) -> (a + b, a - b)``; the result at index
    ``m`` is ``sum_t (-1)^{popcount(m & t)} x[t]``.  The same transform
    scaled by ``1 / n`` is its own inverse.
    """
    a = np.array(values, dtype=np.float64, copy=True)
    n = a.shape[-1]
    if n & (n - 1):
        raise InvalidTableError(f"length {n} is not a power of two")
    h = 1
    while h < n:
        a = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        top = a[..., 0, :] + a[..., 1, :]
        bot = a[..., 0, :] - a[..., 1, :]
        a = np.stack((top, bot), axis=-2).reshape(a.shape[:-3] + (n,))
        h *= 2
    return a


def _lor_lattice(p: np.ndarray) -> np.ndarray:
    """All 2^k LOR parameters of the positive entry vector ``p``.

    Extends each axis to ``(x1, x2, x1 + x2)`` -- the ``(3,)*k`` lattice of
    every marginal table -- takes logs, then folds each axis to
    ``(collapsed, x1 - x2)``.  Index ``m`` of the result is the log contrast
    of the marginal over the variables whose mask bit is 1; the empty mask
    is the compensated sum of the logs.  Entries whose total could overflow
    are first scaled, exactly, by a power of two.
    """
    k = p.size.bit_length() - 1
    shift = max(0, math.frexp(float(p.max()))[1] + k - 1022)  # keeps the total below 2^1022
    a = np.ldexp(p, -shift)
    for i in range(k):
        a = a.reshape(3**i, 2, -1)
        a = np.concatenate((a, a[:, :1] + a[:, 1:]), axis=1)
    a = np.log(a)
    for i in range(k):
        a = a.reshape(2**i, 3, -1)
        a = np.concatenate((a[:, 2:], a[:, :1] - a[:, 1:2]), axis=1)
    values = a.reshape(-1)
    values[0] = math.fsum(np.log(p))
    return values


def full_params(table: BinaryTable, kind) -> ParamSet:
    """Evaluate the parameter of every marginal table, one value per mask.

    DI runs the butterfly (:func:`di_forward_fast`) in ``O(k 2^k)``; LOR
    runs the marginal lattice in ``O(k 3^k)``.
    """
    if _kind_name(kind) == "di":
        return di_forward_fast(table)
    return ParamSet(table.k, "lor", _lor_lattice(table.entries))


def di_forward_fast(table: BinaryTable) -> ParamSet:
    """All DI parameters in ``O(k 2^k)`` via the butterfly transform."""
    return ParamSet(table.k, "di", fwht(table.entries))


def di_inverse(params: ParamSet) -> BinaryTable:
    """Unique table with the given DI parameters: ``p = A v / 2^k``.

    Raises :class:`NonRealizableParamsError` when the solution is not
    strictly positive (the values do not come from a positive table).
    """
    if params.kind != "di":
        raise InvalidTableError(f"di_inverse needs kind 'di', got {params.kind!r}")
    entries = fwht(params.values) / (2**params.k)
    if not np.all(entries > 0):
        bad = int(np.argmin(entries))
        raise NonRealizableParamsError(
            f"reconstructed entry {float(entries[bad])!r} at cell "
            f"{index_to_cell(bad, params.k)} is not positive",
            entries=entries,
        )
    return BinaryTable(params.k, entries)


def lor_inverse(params: ParamSet, tol: float = 1e-8, max_iter: int = 10_000) -> BinaryTable:
    """Positive table whose LOR parameters match ``params`` within ``tol``.

    Starts from the constant table with the target log-product, then cycles
    the masks in nondecreasing dimension (ascending within a dimension),
    tilting the entries in place by ``exp(delta * sign_m)``.  The mask's own
    parameter responds linearly with slope ``2^dim`` (``2^k`` for the empty
    mask), so each tilt lands exactly.  Its marginal is one ``np.bincount``
    over blocks of cells, a block summed first where the mask's last
    variables are unselected: the order of a reshape-sum, bit for bit.  A
    cycle ends with one check that the entries are finite and positive (no
    tilt can repair one that is not) and the residual from the lattice.

    Raises :class:`ConvergenceError` when ``max_iter`` cycles do not reach
    ``tol`` in max absolute deviation, and :class:`EvaluationError` when a
    cycle ends with a non-finite or non-positive entry.
    """
    if params.kind != "lor":
        raise InvalidTableError(f"lor_inverse needs kind 'lor', got {params.kind!r}")
    if not tol > 0:
        raise InvalidTableError(f"tol must be positive, got {tol}")
    k, n = params.k, 2 ** params.k
    target = params.values
    p = np.full(n, math.exp(target[0] / n))
    # rows: p's blocks of trailing unselected variables, as a view; idx: each
    # block's marginal index, the rank of its m-bits among m's submasks
    cells, steps = np.arange(n), []
    for m in masks_by_dimension(k)[1:]:
        block = m & -m
        steps.append((m, p.reshape(-1, block) if block > 1 else None,
                      np.unique(cells[::block] & m, return_inverse=True)[1],
                      parity_signs(m.bit_count()), mask_signs(m, k), 2.0 ** m.bit_count()))
    residual = math.inf
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            p *= np.exp((target[0] - float(np.log(p).sum())) / n)
            for m, rows, idx, signs_small, signs_full, slope in steps:
                weights = p if rows is None else np.add.reduce(rows, axis=1)
                marg = np.bincount(idx, weights=weights, minlength=signs_small.size)
                delta = (target[m] - float(signs_small @ np.log(marg))) / slope
                p *= np.exp(delta * signs_full)
            if not (np.all(np.isfinite(p)) and np.all(p > 0)):
                raise EvaluationError("non-finite intermediate while fitting LOR targets")
            residual = float(np.max(np.abs(_lor_lattice(p) - target)))
            if residual < tol:
                return BinaryTable(k, p)
    raise ConvergenceError(
        f"LOR fit residual {residual:.3e} above tol={tol:.3e} "
        f"after {max_iter} cycles",
        residual=residual,
    )
