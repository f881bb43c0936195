"""The full 2^k parameter system: one DI or LOR value per margin mask.

For DI the map from table entries to the 2^k parameters is linear: the
value at mask ``m`` is ``sum_t (-1)^{popcount(m & t)} p(t)``, i.e. the
coefficient matrix is the Sylvester-ordered Hadamard matrix.  Its rows are
pairwise orthogonal with squared norm ``2^k``, so the system inverts as
``p = A v / 2^k``; both directions run in ``O(k 2^k)`` via the butterfly
(:func:`fwht`).  It and the lattices below run in constant geometry (Pease
1968): each pass moves one index digit from one end of the index to the
other, so every pass is a few long strided reads and writes instead of inner
loops as short as one element, and the k passes end in natural order.

For LOR the values at nonempty masks are log contrasts of *marginal sums*.
All of them come from one pass over the ``(3,)*k`` marginal lattice: each
axis is extended to ``(x1, x2, x1 + x2)`` so that every marginal table
appears as a sub-array, the logs are taken once, and each axis then folds
to ``(collapsed, x1 - x2)``, in ``O(k 3^k)`` overall (the Yates / fast zeta
transform pattern).

The LOR inverse is a nonlinear system with a triangular structure in DI
coordinates: the DI value of a mask is the same in every margin that
contains it, so the marginal of a d-mask is fixed by the DI values of its
proper submasks up to its own, and its LOR rises strictly in that one
value (the mixed parameterization: lower margins and top interaction are
variation independent).  :func:`lor_inverse` therefore sweeps the masks
by dimension, one bracketed Newton root per mask, batched over the masks
of a dimension, and then runs Newton passes whose linear solve is the same
sweep linearized, with the marginals read from the lattice; corrections
are applied multiplicatively so that small cells keep their relative
precision.  Time and memory are ``O(k 3^k)``; ``max_iter`` bounds the
Newton iterations of each dimension's roots and the number of passes.

Zero-dimensional conventions: the empty-mask DI value is the sum of all
entries; the empty-mask LOR value is the log of the product of all entries
(the overall scale degree of freedom; marginal contrasts are scale-free).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .assoc import DI, LOR, ContrastKind, resolve_kind
from .errors import (
    ConvergenceError,
    EvaluationError,
    InvalidTableError,
    NonRealizableParamsError,
)
from .table import (BinaryTable, _check_count, _check_real, _float_range_shift, _frozen_vector,
                    index_to_cell, parity_signs)


def _system_kind(kind) -> ContrastKind:
    """Resolve ``kind`` and check that it is DI or LOR, the kinds with a full system."""
    resolved = resolve_kind(kind)
    if resolved not in (DI, LOR):
        raise InvalidTableError(f"parameter system supports kinds 'di' and 'lor', got {kind!r}")
    return resolved


@dataclass(frozen=True, eq=False)
class ParamSet:
    """All 2^k parameter values of one kind, indexed by margin mask.

    ``values[m]`` holds the value for the mask whose integer encoding is
    ``m`` (variable 1 most significant), including the empty mask at 0.
    ``kind`` may be given as a kind object or its name; the name is stored.
    """

    k: int
    kind: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kind", _system_kind(self.kind).name)
        k, arr = _frozen_vector(self.k, self.values, "parameter values")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "values", arr)

    def allclose(self, other: "ParamSet", rtol: float = 1e-12, atol: float = 0.0) -> bool:
        return (
            self.k == other.k
            and self.kind == other.kind
            and bool(np.allclose(self.values, other.values, rtol=rtol, atol=atol))
        )


def fwht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of two).

    Butterfly per axis bit: ``(a, b) -> (a + b, a - b)``, one pass per bit,
    each writing the whole axis as two unit-stride halves (:func:`_butterfly`);
    the result at index ``m`` is ``sum_t (-1)^{popcount(m & t)} x[t]``.  The
    same transform scaled by ``1 / n`` is its own inverse.  ``values`` is
    never written.
    """
    a = np.asarray(values, dtype=np.float64)
    n = a.shape[-1] if a.ndim else 0
    if n < 1 or n & (n - 1):
        raise InvalidTableError(f"fwht needs a power-of-two last axis, got shape {a.shape}")
    return _butterfly(a) if n > 1 else a.copy()


def _butterfly(a: np.ndarray) -> np.ndarray:
    """:func:`fwht` of a float array whose last axis has a power-of-two length above 1.

    Pass j writes ``even + odd`` neighbours to the first half and ``even - odd``
    to the second: the pairs, in order, of the butterfly's level ``h = 2^j``,
    as strided reads and contiguous writes of n / 2.  ``a`` is only read.
    """
    n = a.shape[-1]
    buffers = np.empty(a.shape), np.empty(a.shape)
    for j in range(n.bit_length() - 1):
        out = buffers[j % 2]
        np.add(a[..., 0::2], a[..., 1::2], out=out[..., :n // 2])
        np.subtract(a[..., 0::2], a[..., 1::2], out=out[..., n // 2:])
        a = out
    return a


def _marginal_lattice(a: np.ndarray, add=np.add) -> np.ndarray:
    """The flat ``(3,)*k`` lattice of every marginal table of the entries ``a``.

    Each axis, variable 1 first, is extended to ``(x1, x2, x1 + x2)``, so the
    index with digit 2 on the variables outside a mask and 0 or 1 on those
    inside holds a cell of that mask's marginal.  ``add`` is ``np.logaddexp``
    when ``a`` holds logs.  Each pass splits on the leading binary digit and
    writes ``(x1, x2, x1 + x2)`` as the trailing trit of an ``(R, 3)`` array.
    """
    for _ in range(a.size.bit_length() - 1):
        x1, x2 = a.reshape(2, -1)
        a = np.empty((x1.size, 3))
        a[:, 0], a[:, 1] = x1, x2
        add(x1, x2, out=a[:, 2])
    return a.reshape(-1)


def _fold_contrasts(logs: np.ndarray, k: int) -> np.ndarray:
    """Fold each axis of a ``(3,)*k`` log lattice to ``(collapsed, x1 - x2)``.

    Index ``m`` of the result is the log contrast of the mask-m marginal;
    index 0 is the log of the total.  Each pass splits on the leading trit
    and writes the fold as the trailing digit of an ``(R, 2)`` array.
    """
    for _ in range(k):
        x1, x2, collapsed = logs.reshape(3, -1)
        logs = np.empty((x1.size, 2))
        logs[:, 0] = collapsed
        np.subtract(x1, x2, out=logs[:, 1])
    return logs.reshape(-1)


def _lor_lattice(p: np.ndarray) -> np.ndarray:
    """All 2^k LOR parameters of the positive entry vector ``p``.

    Takes the logs of the marginal lattice (:func:`_marginal_lattice`) once
    and folds them (:func:`_fold_contrasts`); the empty mask is the
    compensated sum of the logs.  When the total could reach 2^1022 (a
    positive ``table._float_range_shift``), the logs come first and each
    axis extends by ``np.logaddexp`` instead; they are
    logs of ``p / 2^E`` (``E`` the largest binary exponent), from the
    mantissas and exponents, so no subnormal entry is flushed to zero and
    the large logs lose no digits to their magnitude.
    """
    k = p.size.bit_length() - 1
    if _float_range_shift(p.max(), p.size) > 0:
        mant, expo = np.frexp(p)
        logs = np.log(mant) + (expo - expo.max()) * math.log(2.0)
        lattice = _marginal_lattice(logs, np.logaddexp)
    else:
        lattice = np.log(_marginal_lattice(p))
    values = _fold_contrasts(lattice, k)
    values[0] = math.fsum(np.log(p))
    return values


#: Largest k of the ``(3,)*k`` marginal lattice, that is of LOR's
#: :func:`full_params` and of :func:`lor_inverse`: their ``tracemalloc`` peaks
#: are 26 and 50 MiB at k = 13 and grow x3 per k.
MAX_LATTICE_K = 16


def full_params(table: BinaryTable, kind) -> ParamSet:
    """Evaluate the parameter of every marginal table, one value per mask.

    DI runs the butterfly (:func:`di_forward_fast`) in ``O(k 2^k)``; LOR
    runs the marginal lattice in ``O(k 3^k)``, for k up to ``MAX_LATTICE_K``.
    """
    if _system_kind(kind) == DI:
        return di_forward_fast(table)
    _check_count("k", table.k, 0, MAX_LATTICE_K)  # before the lattice is allocated
    return ParamSet(table.k, "lor", _lor_lattice(table.entries))


def di_forward_fast(table: BinaryTable) -> ParamSet:
    """All DI parameters in ``O(k 2^k)`` via the butterfly transform.

    Raises :class:`EvaluationError` when the total passes the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        values = fwht(table.entries)
    if not math.isfinite(values[0]):  # the total bounds every value
        raise EvaluationError("the DI parameters leave the float range with the total")
    return ParamSet(table.k, "di", values)


def di_inverse(params: ParamSet) -> BinaryTable:
    """Unique table with the given DI parameters: ``p = A (v / 2^k)``.

    Scaling first is exact and keeps every sum within the float range.
    Raises :class:`NonRealizableParamsError` when the solution is not
    strictly positive (the values do not come from a positive table).
    """
    if params.kind != "di":
        raise InvalidTableError(f"di_inverse needs kind 'di', got {params.kind!r}")
    entries = fwht(params.values / 2**params.k)
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

    A sweep over the masks in nondecreasing dimension builds the table in DI
    coordinates, the values that are the same in every margin containing
    their mask (:func:`_sweep`): once the masks below dimension d are
    solved, the marginal of a d-mask is known up to its own DI value, and
    its LOR rises strictly in that value, so each mask takes one bracketed
    Newton root, batched over the masks of a dimension.  Newton passes then
    refine the table (:func:`_newton_pass`): the residuals are those of
    :func:`_lor_lattice`, the linear solve is the same sweep linearized, and
    each correction is applied multiplicatively.  Last, the table is
    rescaled in logs to the target log-product ``params.values[0]``.  Time
    and memory are ``O(k 3^k)``, so k is at most ``MAX_LATTICE_K``.

    ``max_iter`` bounds the Newton iterations of each dimension's roots and
    the number of refinement passes; the passes also stop at the first one
    that sends a cell out of the float range or does not lower the residual.

    Raises :class:`NonRealizableParamsError` naming the first mask whose
    fitted lower margins admit no positive marginal beyond rounding and
    ``tol``, :class:`EvaluationError` when a mask's bracket closes within
    them (ill-conditioned), a fitted cell underflows relative to the total or
    an entry leaves the float range in the rescale, and
    :class:`ConvergenceError` when the residual (max absolute deviation)
    stays at or above ``tol``.
    """
    if params.kind != "lor":
        raise InvalidTableError(f"lor_inverse needs kind 'lor', got {params.kind!r}")
    tol = _check_real("tol", tol, 0)
    max_iter = _check_count("max_iter", max_iter, 1)
    k = _check_count("k", params.k, 0, MAX_LATTICE_K)  # before the lattice is allocated
    target = params.values
    tables = (_memo_mask_tables if k <= _MEMO_K else _mask_tables)(k)
    with np.errstate(all="ignore"):
        p = _sweep(target, tables, tol, max_iter)
        r = _lor_lattice(p) - target
        residual = np.max(np.abs(r[1:]), initial=0.0)
        passes = 0
        while residual >= tol and passes < max_iter:
            trial = _newton_pass(p, r, tables)
            if not np.all((trial > 0) & (trial < np.inf)):  # a cell left the float range
                break
            trial_r = _lor_lattice(trial) - target
            trial_residual = np.max(np.abs(trial_r[1:]), initial=0.0)
            if not trial_residual < residual:
                break
            p, residual, r = trial, trial_residual, trial_r
            passes += 1
        p = _rescale(p, float(target[0]))
    residual = float(np.max(np.abs(_lor_lattice(p) - target)))
    if residual >= tol:
        raise ConvergenceError(
            f"LOR fit residual {residual:.3e} not below tol={tol:.3e} "
            f"after {passes} refinement passes",
            residual=residual,
        )
    return BinaryTable(k, p)


def _mask_tables(k: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per dimension d = 1..k: the d-masks ascending, their submasks, their lattice cells.

    Row i of ``subs`` lists the submasks of ``masks[i]`` by the local index j
    of that mask's marginal table (bit 0 of j is the mask's last variable),
    so the Walsh transform of the marginal at j is the DI value at
    ``subs[i, j]``; row i of ``cells`` holds the flat indices of the
    marginal's cells in :func:`_marginal_lattice` (mask bit b has stride
    ``3^b`` there, digit 2 is the collapsed axis).  Read-only, as the tables
    of the small dimensions are memoized (:data:`_memo_mask_tables`).
    """
    tables = []
    for d in range(1, k + 1):
        bits = np.array(list(itertools.combinations(range(k), d)), dtype=np.intp)
        subs = np.zeros((len(bits), 1), dtype=np.intp)
        cells = 3**k - 1 - 2 * (3**bits).sum(axis=1, keepdims=True)
        for b in bits.T:
            subs = np.concatenate((subs, subs + (1 << b)[:, None]), axis=1)
            cells = np.concatenate((cells, cells + (3**b)[:, None]), axis=1)
        order = np.argsort(subs[:, -1])
        table = (subs[order, -1], subs[order], cells[order])
        for a in table:
            a.flags.writeable = False
        tables.append(table)
    return tuple(tables)


#: Largest k whose index tables (3^k entries each) stay memoized.
_MEMO_K = 8

_memo_mask_tables = functools.lru_cache(maxsize=_MEMO_K + 1)(_mask_tables)


def _mask_name(m: int, k: int) -> str:
    variables = ", ".join(str(i + 1) for i in range(k) if m >> (k - 1 - i) & 1)
    return f"mask {m:0{k}b} (variables {variables})"


#: Bound on the logistic coordinate of a root: at 750 the cell closing the
#: bracket is below 1e-325 of the bracket's width, which is 0 in floats.
_X_BOUND = 750.0

#: The smallest normal float: a swept marginal cell below it, relative to a
#: total of 1, has lost digits to underflow.
_TINY = np.finfo(np.float64).tiny

#: Rounding bound of ``q0`` (signed sums of the known values over 2^d), in units of
#: ``sum|known| / 2^d``: a bracket closed by less, or by less than the fit's ``tol``,
#: is ill-conditioned, not non-realizable.
_SLACK = 64 * 2**-52


def _sweep(target: np.ndarray, tables, tol: float, max_iter: int) -> np.ndarray:
    """Entries summing to 1 whose LOR values at the nonempty masks are ``target``'s.

    For the masks of dimension d, the marginal is ``q0 + delta * s``: ``q0``
    the local :func:`fwht` of the solved DI values of the proper submasks
    (top coefficient 0), ``s`` the parity signs, ``delta`` the mask's DI
    value over ``2^d``.  The marginal is positive for ``delta`` in
    ``(lo, hi)``, from the even and the odd cells of ``q0``; an empty
    interval, closed by more than ``max(_SLACK, tol)`` units of
    ``sum|known| / 2^d``, means no positive table has these lower margins.  With
    ``delta = lo + width * sigmoid(x)`` each cell is a non-negative offset
    plus a positive term (:func:`_marginal_cells`), so none loses digits to
    cancellation, and :func:`_logistic_roots` finds ``x``.  The last
    dimension's marginal is the table.
    """
    k = target.size.bit_length() - 1
    v = np.zeros(target.size)
    v[0] = 1.0
    marginals = v
    for masks, subs, _ in tables:
        size = subs.shape[1]
        even = parity_signs(size.bit_length() - 1) > 0
        known = v[subs]
        known[:, -1] = 0.0
        q0 = _butterfly(known) / size
        lo, hi = np.max(-q0[:, even], axis=1), np.min(q0[:, ~even], axis=1)
        width = hi - lo
        closed = np.flatnonzero(~(width > 0))
        if closed.size:
            slack = max(_SLACK, tol) * np.abs(known[closed]).sum(axis=1) / size
            past = closed[width[closed] < -slack]
            if past.size:
                raise NonRealizableParamsError(
                    f"LOR targets are not realizable: no positive marginal over "
                    f"{_mask_name(int(masks[past[0]]), k)} has the lower margins fitted so far")
            raise EvaluationError(
                f"LOR fit is ill-conditioned: the bracket of the marginal over "
                f"{_mask_name(int(masks[closed[0]]), k)} closes within the rounding of its cells "
                "or the fit's tol")
        low, high = q0[:, even] + lo[:, None], q0[:, ~even] - hi[:, None]
        x = _logistic_roots(low, high, width, target[masks], max_iter)
        marginals = np.empty_like(q0)
        marginals[:, even], marginals[:, ~even], up, _ = _marginal_cells(low, high, width, x)
        under = np.flatnonzero(~np.all(marginals >= _TINY, axis=1))
        if under.size:
            raise EvaluationError(
                f"LOR fit underflows: a cell of the marginal over "
                f"{_mask_name(int(masks[under[0]]), k)} falls below the smallest normal "
                "float relative to the table total")
        v[masks] = (lo + width * up) * size
    return marginals.reshape(-1)


def _marginal_cells(low: np.ndarray, high: np.ndarray, width: np.ndarray, x: np.ndarray):
    """Even cells ``low + width * sigmoid(x)``, odd cells ``high + width * sigmoid(-x)``.

    Also returns ``sigmoid(x)`` and ``sigmoid(-x)``, each to full relative
    precision.
    """
    up, down = 1.0 / (1.0 + np.exp(-x)), 1.0 / (1.0 + np.exp(x))
    return low + (width * up)[:, None], high + (width * down)[:, None], up, down


def _logistic_roots(low, high, width, tau, max_iter: int) -> np.ndarray:
    """The ``x`` at which each row's marginal LOR, ``sum log(even) - sum log(odd)``, is ``tau``.

    The LOR rises in ``x`` with slope at least 1 (the two cells that close
    the bracket contribute ``sigmoid(-x)`` and ``sigmoid(x)``) and tends to
    lines at both ends, so Newton steps from 0 converge; a step that leaves
    the closed bracket known so far bisects it instead (closed, as the zero
    step of a converged row starts at one of its ends).  Every row steps
    until all steps are below ``1e-12 (1 + |x|)``, at most ``max_iter`` times.
    """
    x = np.zeros(len(tau))
    below, above = np.full_like(x, -_X_BOUND), np.full_like(x, _X_BOUND)
    for _ in range(max_iter):
        even, odd, up, down = _marginal_cells(low, high, width, x)
        f = np.log(even).sum(axis=1) - np.log(odd).sum(axis=1) - tau
        slope = width * up * down * ((1.0 / even).sum(axis=1) + (1.0 / odd).sum(axis=1))
        below, above = np.where(f < 0, x, below), np.where(f > 0, x, above)
        step = x - f / slope
        step = np.where((step >= below) & (step <= above), step, 0.5 * (below + above))
        done = np.all(np.abs(step - x) <= 1e-12 * (1.0 + np.abs(x)))
        x = step
        if done:
            break
    return x


def _newton_pass(p: np.ndarray, r: np.ndarray, tables) -> np.ndarray:
    """One Newton step on the LOR deviations ``r`` (nonempty masks), solved in DI coordinates.

    The LOR of mask m depends on the DI values of m's submasks only, so the
    linear system is triangular and solves by the sweep of :func:`_sweep`:
    row m is ``fwht(s / q_m) / 2^d`` with the marginal ``q_m`` read from the
    lattice, here scaled by ``min(q_m)`` so that no tiny cell overflows it.
    The correction maps back by :func:`fwht` and is applied as
    ``p * exp(dp / p)``, which keeps every cell positive and its relative
    precision.
    """
    lattice, dv = _marginal_lattice(p), np.zeros(p.size)
    for masks, subs, cells in tables:
        size = subs.shape[1]
        q = lattice[cells]
        floor = q.min(axis=1)
        rows = _butterfly(parity_signs(size.bit_length() - 1) * (floor[:, None] / q))
        lower = (rows[:, :-1] * dv[subs[:, :-1]]).sum(axis=1)
        dv[masks] = -(r[masks] * size * floor + lower) / rows[:, -1]
    return p * np.exp(_butterfly(dv) / (p.size * p))


def _rescale(p: np.ndarray, log_product: float) -> np.ndarray:
    """``p`` times the factor that makes the sum of its logs ``log_product``.

    The factor's log splits into a power of two and a remainder in
    ``[0, log 2)``, so a factor beyond the float range still scales entries
    that stay within it.  Raises :class:`EvaluationError` when an entry
    overflows or underflows to 0.
    """
    shift = (log_product - math.fsum(np.log(p))) / p.size
    power = math.floor(shift / math.log(2.0))
    scaled = np.ldexp(p * math.exp(shift - power * math.log(2.0)), power)
    if not (np.all(np.isfinite(scaled)) and np.all(scaled > 0)):
        raise EvaluationError(
            f"LOR fit leaves the float range: the target log-product {log_product!r} "
            "needs entries beyond it")
    return scaled
